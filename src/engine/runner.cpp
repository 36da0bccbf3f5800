#include "dsrt/engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dsrt/engine/thread_pool.hpp"
#include "dsrt/system/simulation.hpp"

namespace dsrt::engine {

std::size_t workers(std::size_t jobs, std::size_t units) {
  return std::min(jobs == 0 ? ThreadPool::default_jobs() : jobs, units);
}

std::vector<PointResult> run(std::vector<SweepPoint> points,
                             std::size_t replications, std::size_t jobs) {
  if (points.empty() || replications == 0)
    throw std::invalid_argument("engine::run: no points or zero replications");
  for (const SweepPoint& point : points) point.config.validate();

  // Flatten to (point, replication) units so narrow-but-deep and
  // wide-but-shallow studies both saturate the pool.
  const std::size_t units = points.size() * replications;
  std::vector<std::vector<system::RunMetrics>> runs(
      points.size(), std::vector<system::RunMetrics>(replications));
  std::vector<double> seconds(units);
  {
    ThreadPool pool(workers(jobs, units));
    parallel_for_index(pool, units, [&](std::size_t unit) {
      const std::size_t p = unit / replications;
      const std::size_t r = unit % replications;
      const auto start = std::chrono::steady_clock::now();
      runs[p][r] = system::simulate(points[p].config, r);
      seconds[unit] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    });
  }

  std::vector<PointResult> results(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    results[p].point = std::move(points[p]);
    results[p].result = system::aggregate_runs(std::move(runs[p]));
    for (std::size_t r = 0; r < replications; ++r)
      results[p].run_seconds += seconds[p * replications + r];
  }
  return results;
}

}  // namespace dsrt::engine
