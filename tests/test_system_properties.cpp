// System-level property sweeps: parameterized over strategy combinations,
// shapes, policies, and overload settings, asserting the invariants every
// configuration must satisfy (task conservation, bounded ratios, drained
// instances, deterministic replay, the per-width and per-stage counts
// partitioning the per-class ones). These catch interaction bugs the
// focused unit tests cannot. Below them, the two mechanisms those counts
// measure: DIV-x evens out misses across task widths (Section 7), and UD
// spends the slack in early stages (Section 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;

/// Sums the per-width misses and the per-stage waits and disposals.
struct Partition {
  std::uint64_t width_trials = 0, width_hits = 0;
  std::uint64_t stage_waits = 0, stage_windows = 0, stage_disposals = 0;

  explicit Partition(const system::RunMetrics& m) {
    for (const stats::Ratio& r : m.global_missed_by_width) {
      width_trials += r.trials();
      width_hits += r.hits();
    }
    for (const system::StageMetrics& stage : m.stages) {
      stage_waits += stage.wait.count();
      stage_windows += stage.window.count();
      stage_disposals += stage.virtual_miss.trials();
    }
  }
};

struct Case {
  const char* shape;
  const char* ssp;
  const char* psp;
  const char* policy;
  const char* abort_policy;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = std::string(info.param.shape) + "_" + info.param.ssp +
                     "_" + info.param.psp + "_" + info.param.policy + "_" +
                     info.param.abort_policy;
  for (auto& c : name)
    if (c == '-' || c == '.') c = '_';
  return name;
}

class SystemProperties : public ::testing::TestWithParam<Case> {
 protected:
  system::Config make_config() const {
    const Case& c = GetParam();
    std::vector<std::string> args_storage = {
        "prog",
        std::string("--shape=") + c.shape,
        std::string("--ssp=") + c.ssp,
        std::string("--psp=") + c.psp,
        std::string("--policy=") + c.policy,
        std::string("--abort=") + c.abort_policy,
        "--horizon=8000",
        "--load=0.6",
    };
    std::vector<const char*> argv;
    argv.reserve(args_storage.size());
    for (const auto& a : args_storage) argv.push_back(a.c_str());
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    return system::config_from_flags(flags);
  }
};

TEST_P(SystemProperties, InvariantsHold) {
  const system::Config cfg = make_config();
  system::SimulationRun run(cfg, 0);
  const system::RunMetrics m = run.run();

  // Ratios are probabilities.
  EXPECT_GE(m.local.missed.value(), 0.0);
  EXPECT_LE(m.local.missed.value(), 1.0);
  EXPECT_GE(m.global.missed.value(), 0.0);
  EXPECT_LE(m.global.missed.value(), 1.0);

  // Conservation: finished + aborted <= generated (the rest is in flight
  // at the horizon). "Finished" trials include aborted tasks.
  EXPECT_LE(m.local.missed.trials(), m.local.generated);
  EXPECT_LE(m.global.missed.trials(), m.global.generated);
  EXPECT_LE(m.local.aborted, m.local.missed.trials());
  EXPECT_LE(m.global.aborted, m.global.missed.trials());

  // Work happened in both classes.
  EXPECT_GT(m.local.missed.trials(), 100u);
  EXPECT_GT(m.global.missed.trials(), 10u);

  // Response time of a global task is at least its critical path's worth
  // of service; mean response must exceed mean local response.
  if (!m.global.response.empty())
    EXPECT_GT(m.global.response.mean(), m.local.response.mean());

  // The server can't be more than fully utilized, and at load 0.6 it must
  // do real work.
  EXPECT_GT(m.mean_utilization, 0.3);
  EXPECT_LE(m.mean_utilization, 1.0);

  // No model bugs: nothing scheduled into the past.
  EXPECT_EQ(run.simulator().past_schedules(), 0u);

  // Live instances at the horizon are only in-flight tasks (bounded by
  // generated - finished).
  EXPECT_LE(run.process_manager().live_instances(),
            m.global.generated - m.global.missed.trials());

  // The widths partition the global misses, and the stages the subtask
  // waits; only subtasks still queued at the horizon are undisposed.
  const Partition sums(m);
  EXPECT_EQ(sums.width_trials, m.global.missed.trials());
  EXPECT_EQ(sums.width_hits, m.global.missed.hits());
  EXPECT_EQ(sums.stage_waits, m.subtask_wait.count());
  EXPECT_LE(sums.stage_disposals, sums.stage_windows);
}

TEST_P(SystemProperties, ReplayIsDeterministic) {
  const system::Config cfg = make_config();
  const system::RunMetrics a = system::simulate(cfg, 3);
  const system::RunMetrics b = system::simulate(cfg, 3);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.local.missed.hits(), b.local.missed.hits());
  EXPECT_EQ(a.global.missed.hits(), b.global.missed.hits());
  EXPECT_EQ(a.global.aborted, b.global.aborted);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyMatrix, SystemProperties,
    ::testing::Values(
        // The paper's main combinations.
        Case{"serial", "UD", "UD", "EDF", "NoAbort"},
        Case{"serial", "ED", "UD", "EDF", "NoAbort"},
        Case{"serial", "EQS", "UD", "EDF", "NoAbort"},
        Case{"serial", "EQF", "UD", "EDF", "NoAbort"},
        Case{"parallel", "UD", "UD", "EDF", "NoAbort"},
        Case{"parallel", "UD", "DIV1", "EDF", "NoAbort"},
        Case{"parallel", "UD", "DIV2", "EDF", "NoAbort"},
        Case{"parallel", "UD", "GF", "EDF", "NoAbort"},
        Case{"serial-parallel", "UD", "UD", "EDF", "NoAbort"},
        Case{"serial-parallel", "EQF", "DIV1", "EDF", "NoAbort"},
        // Relaxations.
        Case{"serial", "EQF", "UD", "MLF", "NoAbort"},
        Case{"serial", "EQF", "UD", "FCFS", "NoAbort"},
        Case{"serial", "EQF", "UD", "SJF", "NoAbort"},
        Case{"serial", "EQS", "UD", "EDF", "AbortTardy"},
        Case{"serial", "UD", "UD", "EDF", "AbortHopeless"},
        Case{"parallel", "UD", "DIV1", "EDF", "AbortTardy"},
        Case{"serial-parallel", "EQF", "GF", "MLF", "AbortTardy"},
        // Extension strategies.
        Case{"serial", "EQS-S", "UD", "EDF", "NoAbort"},
        Case{"serial", "EQF-S", "UD", "EDF", "NoAbort"},
        Case{"serial-parallel", "EQF", "DIV0.5", "EDF", "NoAbort"}),
    case_name);

// Sanitizer allocators pad every heap block with redzones, so the heap
// layout below holds only on the plain allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kPaddedHeap = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kPaddedHeap = true;
#else
constexpr bool kPaddedHeap = false;
#endif
#else
constexpr bool kPaddedHeap = false;
#endif

TEST(SimulationLayout, EachComputeNodeSitsInsideItsSourcesPrefetch) {
  if (kPaddedHeap) GTEST_SKIP() << "sanitizer heap redzones move blocks apart";
  // The scale_pod_k4096 benchmark shape. For a source event the ladder
  // tier prefetches whole lines from kTargetBack before the source's line
  // to kTargetSpan after the source, which must hold the source's arrival
  // process and its node. A warm heap hands out its recycled blocks of
  // these sizes first, so a few nodes land elsewhere (up to ~40 of 4096,
  // whatever k, in a test binary and in repeated runs); building a node
  // before its source again puts every node outside.
  system::Config cfg = system::baseline_ssp();
  cfg.nodes = 4096;
  cfg.placement = core::PlacementSpec::parse("pod:2");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  cfg.ssp = core::make_eqf();
  const system::SimulationRun run(cfg);
  ASSERT_EQ(run.local_sources().size(), cfg.nodes);

  const std::size_t allowed = cfg.nodes / 32;
  std::size_t nodes_outside = 0, processes_outside = 0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const workload::LocalTaskSource& source = *run.local_sources()[i];
    const auto at = reinterpret_cast<std::uintptr_t>(&source);
    const auto node = reinterpret_cast<std::uintptr_t>(run.nodes()[i].get());
    const auto process = reinterpret_cast<std::uintptr_t>(&source.process());
    if (node < at + sizeof source ||
        node + sizeof(sched::Node) > at + sim::kTargetSpan)
      ++nodes_outside;
    if (process < (at & ~(sim::kCacheLine - 1)) - sim::kTargetBack ||
        process >= at)
      ++processes_outside;
  }
  EXPECT_LE(nodes_outside, allowed);
  EXPECT_LE(processes_outside, allowed);
}

// --- per-width and per-stage counts ---------------------------------------

system::Config variable_width_config(double horizon) {
  system::Config cfg = system::baseline_psp();
  cfg.horizon = horizon;
  cfg.subtask_count = sim::uniform(1.0, 6.0);
  return cfg;
}

TEST(WidthAndStageCounts, PartitionMissesAndWaitsUnderCrashRetryAndShed) {
  // Failed and shed tasks are misses too: each lands in its width.
  for (system::Config cfg :
       {variable_width_config(20000), system::baseline_ssp()}) {
    cfg.horizon = 20000;
    cfg.load = 0.85;
    system::config_setter("faults", "crash:200,20;retry:2;shed:1.5")(cfg);
    const system::RunMetrics m = system::simulate(cfg, 0);
    ASSERT_GT(m.global.failed, 0u);
    ASSERT_GT(m.global.shed, 0u);
    const Partition sums(m);
    EXPECT_EQ(sums.width_trials, m.global.missed.trials());
    EXPECT_EQ(sums.width_hits, m.global.missed.hits());
    EXPECT_EQ(sums.stage_waits, m.subtask_wait.count());
  }
}

TEST(WidthAndStageCounts, WidthsOneToSixAllAppear) {
  const system::RunMetrics m =
      system::simulate(variable_width_config(20000), 0);
  for (std::size_t w = 1; w <= 6; ++w)
    EXPECT_GT(m.global_missed_by_width[w - 1].trials(), 0u) << "m=" << w;
  for (std::size_t w = 7; w <= system::RunMetrics::kBuckets; ++w)
    EXPECT_EQ(m.global_missed_by_width[w - 1].trials(), 0u) << "m=" << w;
}

TEST(WidthAndStageCounts, ObservesAllStages) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  const system::RunMetrics m = system::simulate(cfg, 0);
  for (std::size_t s = 0; s < system::RunMetrics::kBuckets; ++s) {
    const system::StageMetrics& stage = m.stages[s];
    if (s >= 4) {  // m = 4 serial stages
      EXPECT_EQ(stage.window.count(), 0u) << "stage " << s + 1;
      continue;
    }
    EXPECT_GT(stage.wait.count(), 50u);
    EXPECT_GE(stage.wait.mean(), 0.0);
  }
  // In-flight leftovers at the horizon only.
  const Partition sums(m);
  EXPECT_LT(sums.stage_windows - sums.stage_disposals, 50u);
}

TEST(WidthAndStageCounts, LaterStagesFoldIntoTheLastBucket) {
  system::Config cfg = system::baseline_ssp();
  cfg.subtasks = 20;
  cfg.horizon = 2000;
  const system::RunMetrics m = system::simulate(cfg, 0);
  constexpr std::size_t last = system::RunMetrics::kBuckets - 1;
  for (std::size_t s = 0; s < last; ++s)
    EXPECT_GT(m.stages[s].window.count(), 0u) << "stage " << s + 1;
  // Stages 16..20 share the last bucket: five stages' windows in one.
  EXPECT_GT(m.stages[last].window.count(),
            3 * m.stages[last - 1].window.count());
  EXPECT_EQ(Partition(m).stage_waits, m.subtask_wait.count());
}

TEST(WidthAndStageCounts, DivXFlattensWidthPenalty) {
  // The Section 7 claim: the miss-ratio spread across widths shrinks a lot
  // from UD to DIV-1.
  auto spread = [&](core::ParallelStrategyPtr psp) {
    system::Config cfg = variable_width_config(60000);
    cfg.psp = std::move(psp);
    const system::RunMetrics m = system::simulate(cfg, 0);
    double lo = 1.0, hi = 0.0;
    for (const stats::Ratio& width : m.global_missed_by_width) {
      if (width.trials() == 0) continue;
      lo = std::min(lo, width.value());
      hi = std::max(hi, width.value());
    }
    return hi - lo;
  };
  const double ud_spread = spread(core::make_parallel_ud());
  const double div_spread = spread(core::make_div_x(1.0));
  EXPECT_LT(div_spread, 0.7 * ud_spread);
}

TEST(WidthAndStageCounts, UdConcentratesWaitInEarlyStages) {
  // The paper's mechanism: under UD stage 1 waits much longer than stage 4;
  // under EQF the waits are far more even.
  auto profile = [&](const char* name) {
    system::Config cfg = system::baseline_ssp();
    cfg.horizon = 60000;
    cfg.ssp = core::serial_strategy_by_name(name);
    const system::RunMetrics m = system::simulate(cfg, 0);
    std::vector<double> waits;
    for (const system::StageMetrics& s : m.stages)
      if (s.wait.count() > 0) waits.push_back(s.wait.mean());
    return waits;
  };
  const auto ud = profile("UD");
  const auto eqf = profile("EQF");
  ASSERT_EQ(ud.size(), 4u);
  // UD: first stage waits much longer than the last.
  EXPECT_GT(ud[0], 1.5 * ud[3]);
  // EQF: spread between extreme stages is much smaller than UD's.
  const auto spread = [](const std::vector<double>& w) {
    const auto [lo, hi] = std::minmax_element(w.begin(), w.end());
    return *hi - *lo;
  };
  EXPECT_LT(spread(eqf), 0.5 * spread(ud));
}

TEST(WidthAndStageCounts, WindowsShrinkUnderEqf) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.ssp = core::make_eqf();
  const system::RunMetrics m = system::simulate(cfg, 0);
  // EQF's stage window is ~ pex + share of slack, far below the full
  // end-to-end window UD would hand out (mean total window ~ ex+slack ~ 9.5).
  EXPECT_LT(m.stages[0].window.mean(), 5.0);
}

}  // namespace
