#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "dsrt/obs/registry.hpp"
#include "dsrt/stats/histogram.hpp"
#include "dsrt/stats/tally.hpp"

namespace dsrt::system {

/// Per-class observations of one simulation run. "Missed" means the task
/// finished after its end-to-end deadline or was discarded by an abort
/// policy — the paper's primary measure MD (Section 4.2).
struct ClassMetrics {
  stats::Ratio missed;       ///< MD: fraction of finished tasks that missed
  stats::Tally response;     ///< finish - arrival (completed tasks)
  stats::Tally lateness;     ///< finish - deadline (completed; <0 = early)
  stats::Tally tardiness;    ///< max(0, lateness) (completed)
  /// Response-time distribution: bins of 0.25 covering [0, 200); use
  /// quantile() for median/p90/p99 tail analysis.
  stats::Histogram response_hist{0.25, 800};
  std::uint64_t generated = 0;  ///< tasks submitted (incl. in-flight at end)
  std::uint64_t aborted = 0;    ///< tasks discarded by the abort policy
  std::uint64_t failed = 0;     ///< tasks lost to crashes (retries exhausted)
  std::uint64_t shed = 0;       ///< tasks shed by the admission controller

  void reset();
  /// Records a task that received full service.
  void record_completed(double response_time, double lateness_value);
  /// Records a task discarded by the abort policy (always a miss).
  void record_aborted();
  /// Records a task lost to a node crash (always a miss).
  void record_failed();
  /// Records a task shed at dispatch by the admission controller (counted
  /// as a miss: the work was offered and not served on time).
  void record_shed();
  /// Pools another run's observations into this one (tallies, ratios and
  /// histograms all use exact parallel-combination rules, so merge order
  /// does not affect counts). Used by the engine layer to report pooled
  /// tail statistics across replications.
  void merge(const ClassMetrics& other);
};

/// Global subtasks of one stage: its position within the parent group
/// (core::LeafSubmission::sibling_index). Section 4.2's mechanism: under
/// UD the early stages carry the far-away end-to-end deadline and consume
/// most of the slack waiting; under EQS/EQF the waits even out.
struct StageMetrics {
  stats::Tally window;        ///< virtual deadline - submission time
  stats::Tally wait;          ///< queue wait of completed subtasks
  stats::Ratio virtual_miss;  ///< not completed by the virtual deadline

  void merge(const StageMetrics& other);
};

/// Everything measured in one run.
struct RunMetrics {
  /// Buckets of the per-width and per-stage arrays; wider tasks and later
  /// stages fold into the last bucket.
  static constexpr std::size_t kBuckets = 16;

  ClassMetrics local;
  ClassMetrics global;
  /// MD_global by task width (leaf count): width w is bucket w - 1. Every
  /// global miss and completion lands in exactly one bucket, so the
  /// buckets partition `global.missed` (Section 7: DIV-x "evens up the
  /// miss rate of global tasks with different number of subtasks").
  std::array<stats::Ratio, kBuckets> global_missed_by_width;
  /// By stage: windows at every submission, waits at every completion and
  /// virtual misses at every disposal, so the waits partition
  /// `subtask_wait`.
  std::array<StageMetrics, kBuckets> stages;
  stats::Tally subtask_wait;    ///< queue wait of global subtasks
  stats::Tally local_wait;      ///< queue wait of local tasks
  double mean_utilization = 0;  ///< average compute-server busy fraction
  double mean_link_utilization = 0;  ///< average link-node busy fraction
  std::uint64_t events = 0;     ///< simulator events executed
  double observed_span = 0;     ///< measured interval (horizon - warmup)
  /// Engine-wide obs counters, harvested at the end of the run when
  /// Config::probes is set (empty otherwise). Merged across replications
  /// by metric kind: counters add, gauges average, peaks max.
  obs::Snapshot counters;

  void reset();
  /// The global-miss bucket of a task `width` leaves wide.
  stats::Ratio& width_missed(std::size_t width) {
    return global_missed_by_width[std::clamp<std::size_t>(width, 1,
                                                          kBuckets) - 1];
  }
  /// The bucket of stage `index` (0-based sibling index).
  StageMetrics& stage(std::size_t index) {
    return stages[std::min(index, kBuckets - 1)];
  }
  /// Pools another run into this one: counters add, per-task statistics
  /// merge exactly, and the utilization means combine weighted by each
  /// run's observed span.
  void merge(const RunMetrics& other);
};

}  // namespace dsrt::system
