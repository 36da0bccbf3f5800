#include "dsrt/engine/tuning.hpp"

#include <cmath>
#include <stdexcept>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/engine/runner.hpp"

namespace dsrt::engine {

namespace {

struct Probe {
  double md_local;
  double md_global;
  double gap;
};

Probe probe_at(system::Config& config, double x, std::size_t replications) {
  config.psp = core::make_div_x(x);
  const system::ExperimentResult r =
      run({{.config = config}}, replications, 0).front().result;
  return {r.md_local.mean, r.md_global.mean,
          r.md_global.mean - r.md_local.mean};
}

}  // namespace

DivXTuneResult tune_div_x(system::Config config, std::size_t replications,
                          double x_lo, double x_hi, std::size_t max_probes,
                          double gap_tolerance) {
  if (!(x_lo > 0) || !(x_hi > x_lo))
    throw std::invalid_argument("tune_div_x: need 0 < x_lo < x_hi");
  if (replications == 0)
    throw std::invalid_argument("tune_div_x: zero replications");
  if (max_probes < 2)
    throw std::invalid_argument("tune_div_x: need at least 2 probes");

  DivXTuneResult result;
  auto record = [&](double x, const Probe& p) {
    ++result.evaluations;
    result.probes.emplace_back(x, p.gap);
  };
  auto adopt = [&](double x, const Probe& p) {
    result.x = x;
    result.md_local = p.md_local;
    result.md_global = p.md_global;
    result.gap = p.gap;
  };

  // Bisection in log-x space (the effect of x is roughly multiplicative).
  const Probe at_lo = probe_at(config, x_lo, replications);
  record(x_lo, at_lo);
  if (at_lo.gap <= 0) {  // even minimal promotion overshoots
    adopt(x_lo, at_lo);
    return result;
  }
  const Probe at_hi = probe_at(config, x_hi, replications);
  record(x_hi, at_hi);
  if (at_hi.gap >= 0) {  // maximal promotion still leaves globals behind
    adopt(x_hi, at_hi);
    return result;
  }

  double lo = std::log(x_lo), hi = std::log(x_hi);
  adopt(x_hi, at_hi);
  while (result.evaluations < max_probes) {
    const double mid = 0.5 * (lo + hi);
    const double x = std::exp(mid);
    const Probe p = probe_at(config, x, replications);
    record(x, p);
    if (std::abs(p.gap) <= std::abs(result.gap)) adopt(x, p);
    if (std::abs(p.gap) <= gap_tolerance) break;
    if (p.gap > 0)
      lo = mid;  // globals still worse off: promote harder
    else
      hi = mid;
  }
  return result;
}

}  // namespace dsrt::engine
