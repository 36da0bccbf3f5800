#include "dsrt/engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dsrt/engine/seed_sequence.hpp"
#include "dsrt/engine/thread_pool.hpp"
#include "dsrt/system/simulation.hpp"

namespace dsrt::engine {

Runner::Runner(RunnerOptions options)
    : options_(options),
      jobs_(options.jobs == 0 ? ThreadPool::default_jobs() : options.jobs) {}

system::ExperimentResult Runner::run_replications(
    const system::Config& config, std::size_t replications,
    std::vector<double>* run_seconds) const {
  if (replications == 0)
    throw std::invalid_argument("Runner::run_replications: zero replications");
  config.validate();

  std::vector<system::RunMetrics> runs(replications);
  if (run_seconds) run_seconds->assign(replications, 0.0);
  ThreadPool pool(std::min(jobs_, replications));
  parallel_for_index(pool, replications, [&](std::size_t r) {
    const auto start = std::chrono::steady_clock::now();
    runs[r] = system::simulate(config, r);
    if (run_seconds)
      (*run_seconds)[r] = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  });
  return system::aggregate_runs(std::move(runs), options_.confidence);
}

SweepResult Runner::run_sweep(const SweepGrid& grid,
                              const system::Config& base,
                              std::size_t replications) const {
  if (replications == 0)
    throw std::invalid_argument("Runner::run_sweep: zero replications");
  const auto start = std::chrono::steady_clock::now();

  std::vector<SweepPoint> points = grid.expand(base);
  if (options_.reseed_points) {
    const SeedSequence seeds(base.seed);
    for (SweepPoint& point : points)
      point.config.seed = seeds.seed_for(point.ordinal);
  }
  for (const SweepPoint& point : points) point.config.validate();

  // Flatten to (point, replication) units so narrow-but-deep and
  // wide-but-shallow studies both saturate the pool.
  const std::size_t total = points.size() * replications;
  const std::size_t pool_size = std::min(jobs_, total);
  std::vector<std::vector<system::RunMetrics>> runs(points.size());
  for (auto& per_point : runs)
    per_point.resize(replications);
  {
    ThreadPool pool(pool_size);
    parallel_for_index(pool, total, [&](std::size_t unit) {
      const std::size_t p = unit / replications;
      const std::size_t r = unit % replications;
      runs[p][r] = system::simulate(points[p].config, r);
    });
  }

  SweepResult result;
  result.axis_names = grid.axis_names();
  result.replications = replications;
  result.total_runs = total;
  result.jobs = pool_size;
  result.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointResult point_result;
    point_result.result =
        system::aggregate_runs(std::move(runs[p]), options_.confidence);
    point_result.point = std::move(points[p]);
    result.points.push_back(std::move(point_result));
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace dsrt::engine
