#pragma once

#include <cstddef>
#include <vector>

#include "dsrt/stats/confidence.hpp"
#include "dsrt/system/config.hpp"
#include "dsrt/system/metrics.hpp"

namespace dsrt::system {

/// Aggregate of R independent replications of one configuration — one data
/// point of a paper figure. Estimates carry 95% (configurable) confidence
/// half-widths over the replication means, the paper's methodology.
struct ExperimentResult {
  stats::Estimate md_local;        ///< MD_local
  stats::Estimate md_global;       ///< MD_global
  stats::Estimate md_overall;      ///< both classes pooled
  stats::Estimate response_local;
  stats::Estimate response_global;
  stats::Estimate utilization;     ///< mean server busy fraction
  std::vector<RunMetrics> runs;    ///< raw per-replication metrics
  /// Engine counters pooled across the replications in replication order
  /// (empty unless Config::probes). Counters add, gauges average, peaks
  /// max — see obs::Snapshot::merge.
  obs::Snapshot counters;
};

/// Aggregates per-replication metrics (in replication order) into the
/// confidence-interval estimates above. Deterministic in the order of
/// `runs`, so serial and parallel orchestration agree bit-for-bit as long
/// as both present the runs in replication-index order. Throws
/// std::invalid_argument when `runs` is empty.
ExperimentResult aggregate_runs(std::vector<RunMetrics> runs,
                                double confidence = 0.95);

}  // namespace dsrt::system
