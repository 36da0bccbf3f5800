#include "dsrt/engine/sweep.hpp"

#include <stdexcept>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/fault/spec.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/util/flags.hpp"
#include "dsrt/workload/arrival.hpp"
#include "dsrt/workload/pex_error.hpp"
#include "dsrt/workload/service.hpp"

namespace dsrt::engine {

namespace {

double parse_double(const std::string& field, const std::string& text) {
  const auto v = util::parse_double(text);
  if (!v)
    throw std::invalid_argument("SweepAxis::by_field: bad value '" + text +
                                "' for field '" + field + "'");
  return *v;
}

/// Strict non-negative integer parse, so a label like "4.7" can never end
/// up naming a silently truncated nodes/m value.
std::size_t parse_count(const std::string& field, const std::string& text) {
  try {
    std::size_t used = 0;
    const long v = std::stol(text, &used);
    if (used != text.size() || v < 0) throw std::invalid_argument(text);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("SweepAxis::by_field: bad value '" + text +
                                "' for integer field '" + field + "'");
  }
}

}  // namespace

SweepAxis SweepAxis::numeric(std::string name,
                             const std::vector<double>& values,
                             std::function<void(system::Config&, double)> set,
                             int precision) {
  SweepAxis axis;
  axis.name = std::move(name);
  for (double v : values) {
    axis.labels.push_back(stats::Table::cell(v, precision));
    axis.apply.push_back([set, v](system::Config& cfg) { set(cfg, v); });
  }
  return axis;
}

SweepAxis SweepAxis::choices(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(system::Config&)>>>
        options) {
  SweepAxis axis;
  axis.name = std::move(name);
  for (auto& [label, fn] : options) {
    axis.labels.push_back(std::move(label));
    axis.apply.push_back(std::move(fn));
  }
  return axis;
}

SweepAxis SweepAxis::by_field(const std::string& field,
                              const std::vector<std::string>& values) {
  SweepAxis axis;
  axis.name = field;
  for (const std::string& value : values) {
    axis.labels.push_back(value);
    std::function<void(system::Config&)> fn;
    if (field == "load") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) { c.load = v; };
    } else if (field == "frac_local") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) { c.frac_local = v; };
    } else if (field == "rel_flex") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) { c.rel_flex = v; };
    } else if (field == "horizon") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) { c.horizon = v; };
    } else if (field == "warmup") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) { c.warmup = v; };
    } else if (field == "nodes") {
      const std::size_t v = parse_count(field, value);
      fn = [v](system::Config& c) { c.nodes = v; };
    } else if (field == "m") {
      const std::size_t v = parse_count(field, value);
      fn = [v](system::Config& c) { c.subtasks = v; };
    } else if (field == "pex_err") {
      const double v = parse_double(field, value);
      fn = [v](system::Config& c) {
        c.pex_error = v > 0 ? workload::make_uniform_relative_error(v)
                            : workload::make_perfect_prediction();
      };
    } else if (field == "ssp") {
      const auto s = core::serial_strategy_by_name(value);
      fn = [s](system::Config& c) { c.ssp = s; };
    } else if (field == "psp") {
      const auto s = core::parallel_strategy_by_name(value);
      fn = [s](system::Config& c) { c.psp = s; };
    } else if (field == "load_model") {
      // Specs (not live models) sweep safely: each run builds its own
      // accounts/snapshots, so points never share mutable state.
      const auto spec = core::LoadModelSpec::parse(value);
      fn = [spec](system::Config& c) { c.load_model = spec; };
    } else if (field == "placement") {
      // Also a spec: the jsq tie-break rotation is per-run state, built
      // fresh inside every SimulationRun.
      const auto spec = core::PlacementSpec::parse(value);
      fn = [spec](system::Config& c) { c.placement = spec; };
    } else if (field == "faults") {
      // A spec too: the injector (rng stream, per-node outage clocks) is
      // per-run state, built fresh inside every SimulationRun.
      const auto spec = fault::FaultSpec::parse(value);
      fn = [spec](system::Config& c) { c.faults = spec; };
    } else if (field == "arrivals") {
      // A spec again: every run builds its own process instances, so
      // sweep points (and concurrent replications) share no phase state.
      const auto spec = workload::ArrivalSpec::parse(value);
      fn = [spec](system::Config& c) { c.arrivals = spec; };
    } else if (field == "service") {
      // Matched-mean: the law swaps around the base config's subtask mean,
      // so the offered load is identical across the axis.
      const auto spec = workload::ServiceSpec::parse(value);
      fn = [spec](system::Config& c) {
        c.subtask_exec = spec.make(c.subtask_exec->mean());
      };
    } else if (field == "policy") {
      const auto p = sched::policy_by_name(value);
      fn = [p](system::Config& c) { c.policy = p; };
    } else if (field == "abort") {
      const auto p = sched::abort_policy_by_name(value);
      fn = [p](system::Config& c) { c.abort_policy = p; };
    } else if (field == "shape") {
      // A shape switch is not just the enum: each shape's section baseline
      // pins its own slack distributions / stage structure (Section 5.2's
      // U[1.25,5.0] for parallel, the 3-stage sp_shape for combined).
      // Mirror config_from_flags, which starts from the shape's baseline.
      system::Config shaped;
      if (value == "serial") {
        shaped = system::baseline_ssp();
      } else if (value == "parallel") {
        shaped = system::baseline_psp();
      } else if (value == "serial-parallel") {
        shaped = system::baseline_combined();
      } else {
        throw std::invalid_argument("SweepAxis::by_field: unknown shape '" +
                                    value + "'");
      }
      fn = [shaped](system::Config& c) {
        c.shape = shaped.shape;
        c.local_slack = shaped.local_slack;
        c.parallel_slack = shaped.parallel_slack;
        c.sp_shape = shaped.sp_shape;
      };
    } else {
      throw std::invalid_argument("SweepAxis::by_field: unknown field '" +
                                  field + "'");
    }
    axis.apply.push_back(std::move(fn));
  }
  return axis;
}

SweepGrid& SweepGrid::axis(SweepAxis a) {
  axes_.push_back(std::move(a));
  return *this;
}

SweepGrid& SweepGrid::mode(Mode m) {
  mode_ = m;
  return *this;
}

std::vector<std::string> SweepGrid::axis_names() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const auto& axis : axes_) names.push_back(axis.name);
  return names;
}

std::size_t SweepGrid::points() const {
  if (axes_.empty()) return 1;
  if (mode_ == Mode::Zipped) return axes_.front().size();
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return n;
}

std::vector<SweepPoint> SweepGrid::expand(const system::Config& base) const {
  for (const auto& axis : axes_) {
    if (axis.size() == 0)
      throw std::invalid_argument("SweepGrid: axis '" + axis.name +
                                  "' has no values");
    if (axis.labels.size() != axis.apply.size())
      throw std::invalid_argument("SweepGrid: axis '" + axis.name +
                                  "' labels/mutators size mismatch");
    if (mode_ == Mode::Zipped && axis.size() != axes_.front().size())
      throw std::invalid_argument(
          "SweepGrid: zipped axes must have equal lengths ('" + axis.name +
          "' vs '" + axes_.front().name + "')");
  }

  std::vector<SweepPoint> out;
  out.reserve(points());
  if (axes_.empty()) {
    SweepPoint point;
    point.config = base;
    out.push_back(std::move(point));
    return out;
  }

  if (mode_ == Mode::Zipped) {
    for (std::size_t i = 0; i < axes_.front().size(); ++i) {
      SweepPoint point;
      point.ordinal = i;
      point.config = base;
      for (const auto& axis : axes_) {
        point.labels.push_back(axis.labels[i]);
        point.indices.push_back(i);
        axis.apply[i](point.config);
      }
      out.push_back(std::move(point));
    }
    return out;
  }

  // Cartesian: odometer over the axis indices, last axis fastest.
  std::vector<std::size_t> indices(axes_.size(), 0);
  const std::size_t total = points();
  for (std::size_t ordinal = 0; ordinal < total; ++ordinal) {
    SweepPoint point;
    point.ordinal = ordinal;
    point.indices = indices;
    point.config = base;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      point.labels.push_back(axes_[a].labels[indices[a]]);
      axes_[a].apply[indices[a]](point.config);
    }
    out.push_back(std::move(point));
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++indices[a] < axes_[a].size()) break;
      indices[a] = 0;
    }
  }
  return out;
}

}  // namespace dsrt::engine
