#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dsrt/engine/sweep.hpp"
#include "dsrt/system/experiment.hpp"

namespace dsrt::engine {

/// One executed grid point: its coordinates plus the replication aggregate.
struct PointResult {
  SweepPoint point;
  system::ExperimentResult result;
};

/// A fully executed sweep, plus the run bookkeeping (workers, wall time)
/// the CLIs report.
struct SweepResult {
  std::vector<std::string> axis_names;
  std::vector<PointResult> points;   ///< in grid (row-major) order
  std::size_t replications = 0;      ///< per point
  std::size_t total_runs = 0;        ///< points * replications
  std::size_t jobs = 0;              ///< worker threads actually used
  double wall_seconds = 0;
  /// Total simulated replications per wall-clock second.
  double runs_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(total_runs) / wall_seconds
                            : 0.0;
  }
};

/// The experiment runner — the one way replications and sweeps execute.
/// Every (point, replication) unit is a pure function of `(config, seed,
/// rep_index)` — `system::SimulationRun` mixes the replication index into
/// the seed — so the runner executes units in any order across the pool,
/// stores each result in its preassigned slot, and aggregates in
/// replication order. Output is byte-identical for every job count.
class Runner {
 public:
  /// `jobs` worker threads; 0 = one per hardware thread. Results are
  /// identical for every value — parallelism only changes wall time.
  explicit Runner(std::size_t jobs = 0);

  /// Runs `replications` independent replications of `config` (seeded from
  /// config.seed) and aggregates them with system::aggregate_runs. When
  /// `run_seconds` is given it receives each replication's own run time in
  /// seconds (replication order), which does not shrink with the job count
  /// the way the call's wall time does.
  system::ExperimentResult run_replications(
      const system::Config& config, std::size_t replications,
      std::vector<double>* run_seconds = nullptr) const;

  /// Expands `grid` over `base` and runs every (point, replication) unit
  /// on one shared pool — points and replications interleave freely, so a
  /// wide grid with few replications parallelizes as well as the reverse.
  /// Every point keeps the base seed: common random numbers across points,
  /// the paper's variance-reduction discipline, which paired comparisons
  /// between points rely on.
  SweepResult run_sweep(const SweepGrid& grid, const system::Config& base,
                        std::size_t replications) const;

 private:
  std::size_t jobs_;
};

}  // namespace dsrt::engine
