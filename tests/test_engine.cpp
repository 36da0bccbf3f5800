// Engine layer: thread pool, sweep grids, the executor's (engine::run)
// bit-for-bit equivalence with serial replication, and the result and
// pivot tables.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/engine/sweep.hpp"
#include "dsrt/engine/thread_pool.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/experiment.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;

system::Config tiny_config() {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 2000;
  return cfg;
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    engine::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(257);
    engine::parallel_for_index(pool, hits.size(),
                               [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  engine::ThreadPool pool(2);
  EXPECT_THROW(
      engine::parallel_for_index(pool, 8,
                                 [](std::size_t i) {
                                   if (i == 3)
                                     throw std::runtime_error("unit 3");
                                 }),
      std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ran{0};
  engine::parallel_for_index(pool, 4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, ZeroUnitsReturnsImmediately) {
  engine::ThreadPool pool(2);
  engine::parallel_for_index(pool, 0, [](std::size_t) { FAIL(); });
}

// --- SweepGrid ------------------------------------------------------------

TEST(SweepGrid, EmptyGridExpandsToBaseConfig) {
  engine::SweepGrid grid;
  EXPECT_EQ(grid.points(), 1u);
  const auto points = grid.expand(tiny_config());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].labels.empty());
  EXPECT_EQ(points[0].config.load, tiny_config().load);
}

TEST(SweepGrid, CartesianExpansionIsRowMajorLastAxisFastest) {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("rel_flex", {"0.5", "1", "2"}));
  EXPECT_EQ(grid.points(), 6u);
  const auto points = grid.expand(tiny_config());
  ASSERT_EQ(points.size(), 6u);
  // Last axis (rel_flex) advances fastest.
  EXPECT_EQ(points[0].labels, (std::vector<std::string>{"0.2", "0.5"}));
  EXPECT_EQ(points[1].labels, (std::vector<std::string>{"0.2", "1"}));
  EXPECT_EQ(points[3].labels, (std::vector<std::string>{"0.4", "0.5"}));
  EXPECT_EQ(points[5].labels, (std::vector<std::string>{"0.4", "2"}));
  EXPECT_DOUBLE_EQ(points[5].config.load, 0.4);
  EXPECT_DOUBLE_EQ(points[5].config.rel_flex, 2.0);
  EXPECT_EQ(points[5].ordinal, 5u);
  EXPECT_EQ(points[5].indices, (std::vector<std::size_t>{1, 2}));
  // Base config is untouched by the mutators of other points.
  EXPECT_DOUBLE_EQ(points[0].config.load, 0.2);
  EXPECT_DOUBLE_EQ(points[0].config.rel_flex, 0.5);
}

TEST(SweepGrid, ZippedAdvancesAxesInLockstep) {
  engine::SweepGrid grid;
  grid.mode(engine::SweepGrid::Mode::Zipped)
      .axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("horizon", {"1000", "2000"}));
  EXPECT_EQ(grid.points(), 2u);
  const auto points = grid.expand(tiny_config());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[1].config.load, 0.4);
  EXPECT_DOUBLE_EQ(points[1].config.horizon, 2000);
}

TEST(SweepGrid, ZippedLengthMismatchThrows) {
  engine::SweepGrid grid;
  grid.mode(engine::SweepGrid::Mode::Zipped)
      .axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("rel_flex", {"1"}));
  EXPECT_THROW(grid.expand(tiny_config()), std::invalid_argument);
}

TEST(SweepAxis, ByFieldParsesKnownFieldsAndRejectsUnknown) {
  const auto axis = engine::SweepAxis::by_field("load", {"0.25", "0.5"});
  ASSERT_EQ(axis.size(), 2u);
  system::Config cfg = tiny_config();
  axis.apply[1](cfg);
  EXPECT_DOUBLE_EQ(cfg.load, 0.5);

  const auto ssp = engine::SweepAxis::by_field("ssp", {"UD", "EQF"});
  system::Config cfg2 = tiny_config();
  ssp.apply[1](cfg2);
  EXPECT_NE(cfg2.ssp.get(), tiny_config().ssp.get());

  const auto lm =
      engine::SweepAxis::by_field("load_model", {"none", "stale:3"});
  system::Config cfg3 = tiny_config();
  lm.apply[1](cfg3);
  EXPECT_EQ(cfg3.load_model.kind, core::LoadModelKind::Stale);
  EXPECT_DOUBLE_EQ(cfg3.load_model.period, 3.0);
  EXPECT_THROW(engine::SweepAxis::by_field("load_model", {"psychic"}),
               std::invalid_argument);

  EXPECT_THROW(engine::SweepAxis::by_field("no_such_field", {"1"}),
               std::invalid_argument);
  EXPECT_THROW(engine::SweepAxis::by_field("load", {"not-a-number"}),
               std::invalid_argument);
  EXPECT_THROW(engine::SweepAxis::by_field("shape", {"ring"}),
               std::invalid_argument);
}

// --- engine::run ----------------------------------------------------------

/// `replications` replications of `cfg` alone, on `jobs` workers.
system::ExperimentResult run_one(const system::Config& cfg,
                                 std::size_t replications, std::size_t jobs) {
  return engine::run({{.config = cfg}}, replications, jobs).front().result;
}

void expect_identical_runs(const std::vector<system::RunMetrics>& a,
                           const std::vector<system::RunMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(a[r].events, b[r].events);
    EXPECT_EQ(a[r].local.missed.trials(), b[r].local.missed.trials());
    EXPECT_EQ(a[r].local.missed.hits(), b[r].local.missed.hits());
    EXPECT_EQ(a[r].global.missed.trials(), b[r].global.missed.trials());
    EXPECT_EQ(a[r].global.missed.hits(), b[r].global.missed.hits());
    // Bit-identical, not just close: same seeds, same draw order.
    EXPECT_EQ(a[r].local.response.mean(), b[r].local.response.mean());
    EXPECT_EQ(a[r].global.response.mean(), b[r].global.response.mean());
    EXPECT_EQ(a[r].local.response.variance(), b[r].local.response.variance());
    EXPECT_EQ(a[r].mean_utilization, b[r].mean_utilization);
  }
}

TEST(Run, ParallelReplicationsMatchSerialBitForBit) {
  const system::Config cfg = tiny_config();
  const std::size_t reps = 4;
  const auto serial = run_one(cfg, reps, 1);
  const auto threaded4 = run_one(cfg, reps, 4);
  expect_identical_runs(serial.runs, threaded4.runs);
  EXPECT_EQ(serial.md_global.mean, threaded4.md_global.mean);
  EXPECT_EQ(serial.md_global.half_width, threaded4.md_global.half_width);
  EXPECT_EQ(serial.utilization.mean, threaded4.utilization.mean);
}

TEST(Run, RunSecondsTimeEachReplicationOnItsOwn) {
  // A point's run_seconds sums its replications' own run times. On one
  // job the replications run one after another inside the call, so the
  // sum is at most its wall time; on three they overlap, which changes
  // neither the results nor that every point is timed.
  const system::Config cfg = tiny_config();
  const auto start = std::chrono::steady_clock::now();
  const auto serial = engine::run({{.config = cfg}}, 3, 1);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_GT(serial[0].run_seconds, 0.0);
  EXPECT_LE(serial[0].run_seconds, wall);

  const auto threaded = engine::run({{.config = cfg}}, 3, 3);
  expect_identical_runs(serial[0].result.runs, threaded[0].result.runs);
  EXPECT_GT(threaded[0].run_seconds, 0.0);
}

TEST(Run, PooledGridMatchesPerPointSerialRuns) {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));

  const auto results = engine::run(grid.expand(tiny_config()), 2, 4);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t p = 0; p < results.size(); ++p) {
    const auto& pr = results[p];
    EXPECT_EQ(pr.point.ordinal, p);  // grid order
    ASSERT_EQ(pr.result.runs.size(), 2u);
    EXPECT_GT(pr.run_seconds, 0.0);
    const auto serial = run_one(pr.point.config, 2, 1);
    expect_identical_runs(serial.runs, pr.result.runs);
  }
}

TEST(Run, WorkersAreTheJobsCappedByTheUnits) {
  EXPECT_EQ(engine::workers(4, 2), 2u);
  EXPECT_EQ(engine::workers(4, 8), 4u);
  EXPECT_EQ(engine::workers(0, 1), 1u);
  EXPECT_EQ(engine::workers(0, 1000000),
            engine::ThreadPool::default_jobs());
}

TEST(Run, ZeroUnitsAndInvalidConfigsThrow) {
  EXPECT_THROW(engine::run({{.config = tiny_config()}}, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(engine::run({}, 2, 1), std::invalid_argument);
  system::Config bad = tiny_config();
  bad.load = 1.5;
  EXPECT_THROW(engine::run({{.config = tiny_config()}, {.config = bad}}, 1, 2),
               std::invalid_argument);
}

// --- Mergeable metrics ----------------------------------------------------

TEST(RunMetricsMerge, PoolsCountsAndSpanWeightsUtilization) {
  system::RunMetrics a, b;
  a.local.record_completed(1.0, -0.5);
  a.local.record_completed(2.0, 0.5);
  a.mean_utilization = 0.4;
  a.events = 10;
  a.observed_span = 1000;
  b.local.record_completed(3.0, 1.5);
  b.local.record_aborted();
  b.mean_utilization = 0.8;
  b.events = 5;
  b.observed_span = 3000;

  a.merge(b);
  EXPECT_EQ(a.local.missed.trials(), 4u);
  EXPECT_EQ(a.local.missed.hits(), 3u);  // two late + one aborted
  EXPECT_EQ(a.local.response.count(), 3u);
  EXPECT_DOUBLE_EQ(a.local.response.mean(), 2.0);
  EXPECT_EQ(a.local.aborted, 1u);
  EXPECT_EQ(a.events, 15u);
  EXPECT_DOUBLE_EQ(a.observed_span, 4000);
  EXPECT_DOUBLE_EQ(a.mean_utilization, (0.4 * 1000 + 0.8 * 3000) / 4000);
}

// --- Tables ---------------------------------------------------------------

engine::SweepGrid small_grid() {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
  return grid;
}

TEST(Emit, TableAndPivotAgreeOnShape) {
  system::Config cfg = tiny_config();
  cfg.horizon = 500;
  const engine::SweepGrid grid = small_grid();
  const auto results = engine::run(grid.expand(cfg), 2, 2);

  const auto table = engine::sweep_table(grid.axis_names(), results);
  EXPECT_EQ(table.rows(), 4u);

  const auto pivot = engine::pivot_table(
      grid.axis_names(), results, {"load"}, "ssp",
      [](const engine::PointResult& p) {
        return stats::Table::percent(p.result.md_global.mean, 1);
      });
  EXPECT_EQ(pivot.rows(), 2u);  // one row per load
}

TEST(Emit, PivotTableRejectsZippedSweep) {
  engine::SweepGrid grid = small_grid();
  grid.mode(engine::SweepGrid::Mode::Zipped);
  system::Config cfg = tiny_config();
  cfg.horizon = 500;
  const auto results = engine::run(grid.expand(cfg), 1, 0);
  EXPECT_THROW(engine::pivot_table(grid.axis_names(), results, {"load"},
                                   "ssp",
                                   [](const engine::PointResult&) {
                                     return std::string();
                                   }),
               std::invalid_argument);
}

TEST(Emit, PivotTableStacksRowAxesAndPlacesEveryAxisOnce) {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}))
      .axis(engine::SweepAxis::by_field("policy", {"EDF", "MLF", "FCFS"}));
  system::Config cfg = tiny_config();
  cfg.horizon = 200;
  const auto results = engine::run(grid.expand(cfg), 1, 0);
  const auto coordinates = [](const engine::PointResult& p) {
    return p.point.labels[0] + "/" + p.point.labels[1] + "/" +
           p.point.labels[2];
  };

  // Rows (policy, load), policy slowest; one column per ssp value. Each
  // cell must hold the point at exactly its coordinates.
  const auto table = engine::pivot_table(
      grid.axis_names(), results, {"policy", "load"}, "ssp", coordinates);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(),
            "policy,load,UD,EQF\n"
            "EDF,0.2,0.2/UD/EDF,0.2/EQF/EDF\n"
            "EDF,0.4,0.4/UD/EDF,0.4/EQF/EDF\n"
            "MLF,0.2,0.2/UD/MLF,0.2/EQF/MLF\n"
            "MLF,0.4,0.4/UD/MLF,0.4/EQF/MLF\n"
            "FCFS,0.2,0.2/UD/FCFS,0.2/EQF/FCFS\n"
            "FCFS,0.4,0.4/UD/FCFS,0.4/EQF/FCFS\n");

  for (const auto& [rows, column] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"load"}, "ssp"},                     // policy not placed
           {{"load", "ssp", "policy"}, "ssp"},    // ssp placed twice
           {{"load", "policy"}, "nope"}}) {       // unknown axis
    EXPECT_THROW(engine::pivot_table(grid.axis_names(), results, rows,
                                     column, coordinates),
                 std::invalid_argument)
        << column;
  }
}

}  // namespace
