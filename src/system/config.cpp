#include "dsrt/system/config.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dsrt::system {

double Config::expected_leaves() const {
  if (shape == GlobalShape::SerialParallel) return sp_shape.expected_leaves();
  if (subtask_count) return std::max(1.0, subtask_count->mean());
  return static_cast<double>(subtasks);
}

double Config::expected_global_work() const {
  return expected_leaves() * subtask_exec->mean();
}

double Config::expected_critical_path() const {
  switch (shape) {
    case GlobalShape::Serial: {
      const double m = expected_leaves();
      double path = m * subtask_exec->mean();
      // Transmission stages sit on the critical path too, so the deadline
      // window (and hence the slack scaling) must cover them.
      if (link_nodes > 0 && comm_exec)
        path += (m - 1.0) * comm_exec->mean();
      return path;
    }
    case GlobalShape::Parallel: {
      // E[max of m iid Exp(mean)] = mean * H_m.
      const double m = expected_leaves();
      const auto m_int = static_cast<std::size_t>(std::llround(m));
      return subtask_exec->mean() * workload::harmonic(std::max<std::size_t>(
                                        1, m_int));
    }
    case GlobalShape::SerialParallel: {
      double path = sp_shape.expected_critical_path(subtask_exec->mean());
      if (link_nodes > 0 && comm_exec)
        path += (static_cast<double>(sp_shape.stages) - 1.0) *
                comm_exec->mean();
      return path;
    }
  }
  return 0;  // unreachable
}

double Config::lambda_local_total() const {
  return load * frac_local * static_cast<double>(nodes) / local_exec->mean();
}

double Config::lambda_global() const {
  if (frac_local >= 1.0) return 0;
  return load * (1.0 - frac_local) * static_cast<double>(nodes) /
         expected_global_work();
}

sim::DistributionPtr Config::global_slack() const {
  if (shape == GlobalShape::Parallel)
    return sim::scaled(parallel_slack, rel_flex);
  // Serial / serial-parallel: same *relative* slack range as locals. With
  // rel_flex = 1 the average flexibility sl/ex of globals matches that of
  // locals (Section 4.2.1 relies on this), because slack scales with the
  // ratio of expected execution lengths.
  const double scale =
      rel_flex * expected_critical_path() / local_exec->mean();
  return sim::scaled(local_slack, scale);
}

void Config::validate() const {
  if (nodes == 0) throw std::invalid_argument("Config: nodes == 0");
  if (!(load >= 0 && load < 1))
    throw std::invalid_argument("Config: load outside [0,1)");
  if (!(frac_local >= 0 && frac_local <= 1))
    throw std::invalid_argument("Config: frac_local outside [0,1]");
  if (subtasks == 0) throw std::invalid_argument("Config: subtasks == 0");
  if (!policy || !abort_policy || !ssp || !psp || !local_exec ||
      !subtask_exec || !local_slack || !parallel_slack || !pex_error)
    throw std::invalid_argument("Config: null component");
  if (rel_flex <= 0) throw std::invalid_argument("Config: rel_flex <= 0");
  // A lo/hi flag pair whose lower bound passed its upper one leaves an
  // open range (config_fields), hence no finite mean.
  for (const sim::Distribution* range :
       {local_slack.get(), parallel_slack.get(), subtask_count.get()})
    if (range && !std::isfinite(range->mean()))
      throw std::invalid_argument(
          "Config: empty range (--smin > --smax or --m_min > --m_max)");
  if (shape == GlobalShape::Parallel && !subtask_count && subtasks > nodes)
    throw std::invalid_argument(
        "Config: parallel task wider than node count");
  if (shape == GlobalShape::SerialParallel &&
      (sp_shape.stages == 0 || sp_shape.parallel_width == 0 ||
       sp_shape.parallel_width > nodes ||
       sp_shape.parallel_prob < 0 || sp_shape.parallel_prob > 1))
    throw std::invalid_argument("Config: bad serial-parallel shape");
  if (!local_weights.empty()) {
    if (local_weights.size() != nodes)
      throw std::invalid_argument("Config: local_weights size != nodes");
    double sum = 0;
    for (double w : local_weights) {
      if (w < 0) throw std::invalid_argument("Config: negative local weight");
      sum += w;
    }
    if (sum <= 0)
      throw std::invalid_argument("Config: local_weights sum to zero");
  }
  if (link_nodes > 0) {
    if (!comm_exec)
      throw std::invalid_argument("Config: link_nodes needs comm_exec");
    if (shape == GlobalShape::Parallel)
      throw std::invalid_argument(
          "Config: link nodes need serial stages (serial or "
          "serial-parallel shape)");
  }
  load_model.validate();
  arrivals.validate();
  faults.validate();
  if (faults.link_enabled() && link_nodes == 0)
    throw std::invalid_argument(
        "Config: link fault component needs link_nodes > 0");
  if (!trace.empty() && faults.straggle_enabled())
    throw std::invalid_argument(
        "Config: exec_straggle does not compose with --trace replay (the "
        "trace pins real demands; crash/link/retry/shed compose fine)");
  if (periodic_globals && !arrivals.for_globals().is_default())
    throw std::invalid_argument(
        "Config: periodic_globals composes only with poisson/batch "
        "arrivals");
  if (horizon <= 0) throw std::invalid_argument("Config: horizon <= 0");
  if (warmup < 0 || warmup >= horizon)
    throw std::invalid_argument("Config: warmup outside [0, horizon)");
}

std::string Config::describe() const {
  std::ostringstream os;
  os << "k=" << nodes << " load=" << load << " frac_local=" << frac_local
     << " m=" << subtasks << " shape=";
  switch (shape) {
    case GlobalShape::Serial: os << "serial"; break;
    case GlobalShape::Parallel: os << "parallel"; break;
    case GlobalShape::SerialParallel: os << "serial-parallel"; break;
  }
  os << " ssp=" << ssp->name() << " psp=" << psp->name()
     << " policy=" << policy->name() << " abort=" << abort_policy->name()
     << " rel_flex=" << rel_flex << " horizon=" << horizon;
  // Appended only when non-default, so the describe() of every pre-existing
  // config — and with it every committed expectation's config hash — is
  // byte-identical.
  if (!arrivals.is_default()) os << " arrivals=" << arrivals.describe();
  if (!trace.empty()) os << " trace=" << trace;
  if (load_model.kind != core::LoadModelKind::None)
    os << " load_model=" << load_model.describe();
  if (placement.kind != core::PlacementKind::Static)
    os << " placement=" << placement.describe();
  if (faults.any()) os << " faults=" << faults.describe();
  return os.str();
}

}  // namespace dsrt::system
