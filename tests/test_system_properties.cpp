// System-level property sweeps: parameterized over strategy combinations,
// shapes, policies, and overload settings, asserting the invariants every
// configuration must satisfy (task conservation, bounded ratios, drained
// instances, deterministic replay). These catch interaction bugs the
// focused unit tests cannot.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;

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

}  // namespace
