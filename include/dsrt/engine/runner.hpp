#pragma once

#include <cstddef>
#include <vector>

#include "dsrt/engine/sweep.hpp"
#include "dsrt/system/experiment.hpp"

namespace dsrt::engine {

/// One executed grid point: its coordinates, the replication aggregate and
/// the summed run time of its replications, each timed on its own, so the
/// figure does not depend on how many ran at once.
struct PointResult {
  SweepPoint point;
  system::ExperimentResult result;
  double run_seconds = 0;
};

/// Worker threads run() uses for `units` (point, replication) units when
/// asked for `jobs`: min(jobs, units), where 0 jobs is one per hardware
/// thread.
std::size_t workers(std::size_t jobs, std::size_t units);

/// The one executor of replications and sweeps. Runs `replications`
/// replications of every point on one pool of workers(jobs, units)
/// threads — points and replications interleave freely, so a wide grid
/// with few replications parallelizes as well as the reverse — and
/// aggregates each point with system::aggregate_runs, in grid order.
/// Every unit is a pure function of (config, seed, replication index) —
/// system::SimulationRun mixes the index into the seed — and lands in its
/// preassigned slot, so results are byte-identical for every `jobs`. Grid
/// points keep their base seed: common random numbers across points, the
/// paper's variance-reduction discipline, which paired comparisons
/// between points rely on. Throws std::invalid_argument for no points,
/// zero replications or a point whose config does not validate.
std::vector<PointResult> run(std::vector<SweepPoint> points,
                             std::size_t replications, std::size_t jobs);

}  // namespace dsrt::engine
