// Engine layer: thread pool, seed derivation, sweep grids, the parallel
// runner's bit-for-bit equivalence with serial replication, and the
// structured emitters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/engine/seed_sequence.hpp"
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

// --- SeedSequence ---------------------------------------------------------

TEST(SeedSequence, IndexZeroKeepsBaseSeed) {
  engine::SeedSequence seeds(20250612);
  EXPECT_EQ(seeds.seed_for(0), 20250612u);
}

TEST(SeedSequence, DerivedSeedsAreDeterministicAndDistinct) {
  engine::SeedSequence seeds(42);
  std::vector<std::uint64_t> first;
  for (std::uint64_t i = 0; i < 64; ++i) first.push_back(seeds.seed_for(i));
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(first[i], engine::SeedSequence::mix(42, i));
    for (std::uint64_t j = i + 1; j < 64; ++j)
      EXPECT_NE(first[i], first[j]) << i << " vs " << j;
  }
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
  grid.axis(engine::SweepAxis::numeric(
          "load", {0.2, 0.4}, [](system::Config& c, double v) { c.load = v; }))
      .axis(engine::SweepAxis::numeric(
          "rel_flex", {0.5, 1.0, 2.0},
          [](system::Config& c, double v) { c.rel_flex = v; }));
  EXPECT_EQ(grid.points(), 6u);
  const auto points = grid.expand(tiny_config());
  ASSERT_EQ(points.size(), 6u);
  // Last axis (rel_flex) advances fastest.
  EXPECT_EQ(points[0].labels, (std::vector<std::string>{"0.20", "0.50"}));
  EXPECT_EQ(points[1].labels, (std::vector<std::string>{"0.20", "1.00"}));
  EXPECT_EQ(points[3].labels, (std::vector<std::string>{"0.40", "0.50"}));
  EXPECT_EQ(points[5].labels, (std::vector<std::string>{"0.40", "2.00"}));
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
      .axis(engine::SweepAxis::numeric(
          "load", {0.2, 0.4}, [](system::Config& c, double v) { c.load = v; }))
      .axis(engine::SweepAxis::numeric(
          "horizon", {1000, 2000},
          [](system::Config& c, double v) { c.horizon = v; }));
  EXPECT_EQ(grid.points(), 2u);
  const auto points = grid.expand(tiny_config());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[1].config.load, 0.4);
  EXPECT_DOUBLE_EQ(points[1].config.horizon, 2000);
}

TEST(SweepGrid, ZippedLengthMismatchThrows) {
  engine::SweepGrid grid;
  grid.mode(engine::SweepGrid::Mode::Zipped)
      .axis(engine::SweepAxis::numeric(
          "load", {0.2, 0.4}, [](system::Config& c, double v) { c.load = v; }))
      .axis(engine::SweepAxis::numeric(
          "rel_flex", {1.0},
          [](system::Config& c, double v) { c.rel_flex = v; }));
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

// --- Runner determinism ---------------------------------------------------

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

TEST(Runner, ParallelReplicationsMatchSerialBitForBit) {
  const system::Config cfg = tiny_config();
  const std::size_t reps = 4;
  engine::RunnerOptions one_job;
  one_job.jobs = 1;
  const auto serial = engine::Runner(one_job).run_replications(cfg, reps);

  engine::RunnerOptions four_jobs;
  four_jobs.jobs = 4;
  const auto threaded4 =
      engine::Runner(four_jobs).run_replications(cfg, reps);
  expect_identical_runs(serial.runs, threaded4.runs);
  EXPECT_EQ(serial.md_global.mean, threaded4.md_global.mean);
  EXPECT_EQ(serial.md_global.half_width, threaded4.md_global.half_width);
  EXPECT_EQ(serial.utilization.mean, threaded4.utilization.mean);
}

TEST(Runner, RunSecondsTimeEachReplicationOnItsOwn) {
  // Each replication's run time lands in its slot. On one job the
  // replications run one after another inside the call, so their times
  // sum to at most its wall time; on three they overlap, which changes
  // neither the results nor the slot count.
  const system::Config cfg = tiny_config();
  engine::RunnerOptions one_job;
  one_job.jobs = 1;
  std::vector<double> seconds;
  const auto start = std::chrono::steady_clock::now();
  const auto serial =
      engine::Runner(one_job).run_replications(cfg, 3, &seconds);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(seconds.size(), 3u);
  double sum = 0;
  for (const double s : seconds) {
    EXPECT_GT(s, 0.0);
    sum += s;
  }
  EXPECT_LE(sum, wall);

  engine::RunnerOptions three_jobs;
  three_jobs.jobs = 3;
  std::vector<double> threaded_seconds = {1.0};
  const auto threaded = engine::Runner(three_jobs).run_replications(
      cfg, 3, &threaded_seconds);
  expect_identical_runs(serial.runs, threaded.runs);
  ASSERT_EQ(threaded_seconds.size(), 3u);
  for (const double s : threaded_seconds) EXPECT_GT(s, 0.0);
}

TEST(Runner, SweepMatchesPerPointSerialRuns) {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));

  engine::RunnerOptions options;
  options.jobs = 4;
  const auto sweep =
      engine::Runner(options).run_sweep(grid, tiny_config(), 2);
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_EQ(sweep.total_runs, 8u);
  EXPECT_EQ(sweep.axis_names, (std::vector<std::string>{"load", "ssp"}));

  engine::RunnerOptions one_job;
  one_job.jobs = 1;
  for (const auto& pr : sweep.points) {
    const auto serial =
        engine::Runner(one_job).run_replications(pr.point.config, 2);
    expect_identical_runs(serial.runs, pr.result.runs);
  }
}

TEST(Runner, ReseedPointsDerivesIndependentSeedsPointZeroKeepsBase) {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.3", "0.4"}));
  const system::Config base = tiny_config();

  engine::RunnerOptions options;
  options.jobs = 2;
  options.reseed_points = true;
  const auto sweep = engine::Runner(options).run_sweep(grid, base, 1);
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_EQ(sweep.points[0].point.config.seed, base.seed);
  EXPECT_NE(sweep.points[1].point.config.seed, base.seed);
  EXPECT_NE(sweep.points[1].point.config.seed,
            sweep.points[2].point.config.seed);
}

TEST(Runner, ZeroReplicationsThrows) {
  EXPECT_THROW(engine::Runner().run_replications(tiny_config(), 0),
               std::invalid_argument);
  EXPECT_THROW(engine::Runner().run_sweep(engine::SweepGrid(), tiny_config(),
                                          0),
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

// --- Emitters -------------------------------------------------------------

engine::SweepResult small_sweep() {
  engine::SweepGrid grid;
  grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
  engine::RunnerOptions options;
  options.jobs = 2;
  system::Config cfg = tiny_config();
  cfg.horizon = 500;
  return engine::Runner(options).run_sweep(grid, cfg, 2);
}

TEST(Emit, TablesCsvAndJsonAgreeOnShape) {
  const auto sweep = small_sweep();

  const auto table = engine::sweep_table(sweep);
  EXPECT_EQ(table.rows(), 4u);

  const auto pivot = engine::pivot_table(
      sweep, {"load"}, "ssp", [](const engine::PointResult& p) {
        return stats::Table::percent(p.result.md_global.mean, 1);
      });
  EXPECT_EQ(pivot.rows(), 2u);  // one row per load

  std::ostringstream csv;
  engine::write_sweep_csv(sweep, csv);
  EXPECT_NE(csv.str().find("load,ssp,md_local"), std::string::npos);
  // Header + one line per point.
  std::size_t lines = 0;
  for (char c : csv.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 5u);

  const std::string json = engine::sweep_json(sweep);
  EXPECT_NE(json.find("\"axes\":[\"load\",\"ssp\"]"), std::string::npos);
  EXPECT_NE(json.find("\"replications\":2"), std::string::npos);
}

TEST(Emit, PivotTableRejectsZippedSweep) {
  engine::SweepGrid grid;
  grid.mode(engine::SweepGrid::Mode::Zipped)
      .axis(engine::SweepAxis::by_field("load", {"0.2", "0.4"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
  system::Config cfg = tiny_config();
  cfg.horizon = 500;
  const auto sweep = engine::Runner().run_sweep(grid, cfg, 1);
  EXPECT_THROW(engine::pivot_table(sweep, {"load"}, "ssp",
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
  const auto sweep = engine::Runner().run_sweep(grid, cfg, 1);
  const auto coordinates = [](const engine::PointResult& p) {
    return p.point.labels[0] + "/" + p.point.labels[1] + "/" +
           p.point.labels[2];
  };

  // Rows (policy, load), policy slowest; one column per ssp value. Each
  // cell must hold the point at exactly its coordinates.
  const auto table = engine::pivot_table(sweep, {"policy", "load"}, "ssp",
                                         coordinates);
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
    EXPECT_THROW(engine::pivot_table(sweep, rows, column, coordinates),
                 std::invalid_argument)
        << column;
  }
}

}  // namespace
