#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dsrt/system/config.hpp"

namespace dsrt::engine {

/// Outcome of a DIV-x search.
struct DivXTuneResult {
  double x = 1.0;          ///< chosen promotion factor
  double md_local = 0;     ///< miss ratios at the chosen x
  double md_global = 0;
  double gap = 0;          ///< md_global - md_local at the chosen x
  std::size_t evaluations = 0;  ///< simulation batches spent
  /// The (x, gap) points probed, in evaluation order — useful for reports.
  std::vector<std::pair<double, double>> probes;
};

/// Answers Section 5.3's open question "how to set the value of x for the
/// DIV-x strategy" for a concrete system: finds the x at which global and
/// local tasks miss deadlines at the same rate.
///
/// Rationale: the class gap g(x) = MD_global - MD_local is monotonically
/// decreasing in x (more promotion helps globals and hurts locals), so the
/// fair point is a root of g and bisection converges. If even the most
/// aggressive x in [x_lo, x_hi] leaves globals behind, x_hi is returned
/// (and symmetrically x_lo).
///
/// Each probe runs `replications` replications of `config` with DIV-x as
/// the PSP strategy on the engine Runner; choose the horizon accordingly —
/// tuning cost is evaluations * replications * one run.
DivXTuneResult tune_div_x(system::Config config,
                          std::size_t replications = 1, double x_lo = 0.125,
                          double x_hi = 16.0, std::size_t max_probes = 10,
                          double gap_tolerance = 0.01);

}  // namespace dsrt::engine
