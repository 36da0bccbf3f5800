// Golden-metrics regression test: pins the *exact* RunMetrics of fixed-seed
// fig2 configurations (Table-1 baseline, serial global tasks) down to the
// last bit. The constants were captured from the pre-rewrite kernel
// (std::function event queue + std::map ready queue); the allocation-free
// kernel (InlineAction slots + flat heaps) must reproduce them verbatim —
// any drift in event order, queue tie-breaking, or accumulation order shows
// up here as a hard failure rather than as a silent statistical shift.
//
// Hex-float literals keep the doubles exact; EXPECT_EQ (not EXPECT_NEAR) is
// deliberate throughout.
#include <gtest/gtest.h>

#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;

system::Config golden_config() {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 150000;  // full paper horizon is 1e6; this keeps ctest fast
  return cfg;
}

TEST(GoldenMetrics, Fig2UdLoad05Rep0) {
  const system::RunMetrics m = system::simulate(golden_config(), 0);
  EXPECT_EQ(m.events, 815073u);
  EXPECT_EQ(m.local.generated, 337564u);
  EXPECT_EQ(m.global.generated, 27990u);
  EXPECT_EQ(m.local.aborted, 0u);
  EXPECT_EQ(m.global.aborted, 0u);
  EXPECT_EQ(m.local.missed.trials(), 337559u);
  EXPECT_EQ(m.local.missed.hits(), 79158u);
  EXPECT_EQ(m.global.missed.trials(), 27990u);
  EXPECT_EQ(m.global.missed.hits(), 10290u);
  EXPECT_EQ(m.local.response.count(), 337559u);
  EXPECT_EQ(m.local.response.mean(), 0x1.d392016e4f2e3p+0);
  EXPECT_EQ(m.local.response.variance(), 0x1.b1fde8908030dp+1);
  EXPECT_EQ(m.local.response.min(), 0x1.5882p-18);
  EXPECT_EQ(m.local.response.max(), 0x1.bf8a97f622p+4);
  EXPECT_EQ(m.global.response.count(), 27990u);
  EXPECT_EQ(m.global.response.mean(), 0x1.0805a8f5e1949p+3);
  EXPECT_EQ(m.global.response.variance(), 0x1.5c0d132366c35p+4);
  EXPECT_EQ(m.global.response.min(), 0x1.bf4d52aep-4);
  EXPECT_EQ(m.global.response.max(), 0x1.33747310268p+5);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.1a81363b12004p-1);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.4205ed2de09c1p+0);
  EXPECT_EQ(m.subtask_wait.count(), 111960u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.0fb36791d1149p+0);
  EXPECT_EQ(m.local_wait.count(), 337559u);
  EXPECT_EQ(m.local_wait.mean(), 0x1.a6a69e4197bddp-1);
  EXPECT_EQ(m.mean_utilization, 0x1.fffe93c4b5afbp-2);
}

TEST(GoldenMetrics, Fig2UdLoad05Rep1) {
  // Second replication: the seed mix (not the event order) changes.
  const system::RunMetrics m = system::simulate(golden_config(), 1);
  EXPECT_EQ(m.events, 815639u);
  EXPECT_EQ(m.local.missed.trials(), 337097u);
  EXPECT_EQ(m.local.missed.hits(), 79600u);
  EXPECT_EQ(m.global.missed.trials(), 28288u);
  EXPECT_EQ(m.global.missed.hits(), 10591u);
  EXPECT_EQ(m.local.response.mean(), 0x1.d2590f2d173e9p+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.094826d2e88ebp+3);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.12ca3fff95bf8p+0);
  EXPECT_EQ(m.local_wait.mean(), 0x1.a484150ec3f8fp-1);
  EXPECT_EQ(m.mean_utilization, 0x1.0028598daeceap-1);
}

TEST(GoldenMetrics, Fig2EqfLoad03Rep0) {
  // Different SSP strategy and load: exercises EQF's deadline arithmetic.
  system::Config cfg = golden_config();
  cfg.load = 0.3;
  cfg.ssp = core::make_eqf();
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 489041u);
  EXPECT_EQ(m.local.missed.trials(), 202670u);
  EXPECT_EQ(m.local.missed.hits(), 24143u);
  EXPECT_EQ(m.global.missed.trials(), 16739u);
  EXPECT_EQ(m.global.missed.hits(), 1690u);
  EXPECT_EQ(m.local.response.mean(), 0x1.6488b081083b6p+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.60921854eca96p+2);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.ffc23ee2d0af1p+1);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.7f99b98fa79e3p-2);
  EXPECT_EQ(m.mean_utilization, 0x1.32f8ec913379ep-2);
}

TEST(GoldenMetrics, CombinedCommLoadAwareSampledRep0) {
  // Serial-parallel shape with transmission stages on dedicated link nodes,
  // driven by the load-aware stack: EQS-L fed by the *sampled* load model
  // (periodic snapshot events interleave with the workload) and the online
  // DIV-x autotuner adapting on subtask lateness. Pins the whole extension
  // path — Node load accounting, snapshot scheduling, queueing-inflated
  // deadline arithmetic, and adaptation order — bit for bit.
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 150000;
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.25);
  cfg.ssp = core::make_eqs_load_aware();
  cfg.psp = core::parallel_strategy_by_name("DIVA");
  cfg.load_model = core::LoadModelSpec::parse("sampled:5");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 875406u);
  EXPECT_EQ(m.local.generated, 337564u);
  EXPECT_EQ(m.global.generated, 18951u);
  EXPECT_EQ(m.local.missed.trials(), 337560u);
  EXPECT_EQ(m.local.missed.hits(), 86657u);
  EXPECT_EQ(m.global.missed.trials(), 18951u);
  EXPECT_EQ(m.global.missed.hits(), 4760u);
  EXPECT_EQ(m.local.response.mean(), 0x1.f3fc95a701fadp+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.0df2092cd99fcp+3);
  EXPECT_EQ(m.global.response.variance(), 0x1.08e9503848199p+4);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.b357eaf7aeff5p-2);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.6847322112cd4p+1);
  EXPECT_EQ(m.subtask_wait.count(), 151331u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.403801ca6bc38p-1);
  EXPECT_EQ(m.local_wait.mean(), 0x1.e77c5c52c468bp-1);
  EXPECT_EQ(m.mean_utilization, 0x1.00f4635cf2a8ep-1);
  EXPECT_EQ(m.mean_link_utilization, 0x1.03fe0c763c251p-5);
}

TEST(GoldenMetrics, CombinedCommDownstreamSampledRep0) {
  // The downstream-aware serial strategy (EQS-LD): identical configuration
  // to CombinedCommLoadAwareSampledRep0 except the SSP also charges the
  // later stages' board backlog. Pins the downstream-estimate walk
  // (placed-node backlog, min-over-eligible, sum-over-serial /
  // max-over-parallel) bit for bit; the *generated* workload matches the
  // EQS-L golden exactly (same seeds, same draws), only disposals move.
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 150000;
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.25);
  cfg.ssp = core::serial_strategy_by_name("EQS-LD");
  cfg.psp = core::parallel_strategy_by_name("DIVA");
  cfg.load_model = core::LoadModelSpec::parse("sampled:5");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 875406u);
  EXPECT_EQ(m.local.generated, 337564u);
  EXPECT_EQ(m.global.generated, 18951u);
  EXPECT_EQ(m.local.missed.trials(), 337560u);
  EXPECT_EQ(m.local.missed.hits(), 87058u);
  EXPECT_EQ(m.global.missed.trials(), 18951u);
  EXPECT_EQ(m.global.missed.hits(), 4647u);
  EXPECT_EQ(m.local.response.mean(), 0x1.f5d8414148319p+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.0b8f1109e9518p+3);
  EXPECT_EQ(m.global.response.variance(), 0x1.00404a0319393p+4);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.abe93c8e960d1p-2);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.71d312acd407dp+1);
  EXPECT_EQ(m.subtask_wait.count(), 151331u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.3c618f10351b7p-1);
  EXPECT_EQ(m.local_wait.mean(), 0x1.eb33b38750d94p-1);
  EXPECT_EQ(m.mean_utilization, 0x1.00f4635cf2a8ep-1);
  EXPECT_EQ(m.mean_link_utilization, 0x1.03fe0c763c251p-5);
}

TEST(GoldenMetrics, CombinedCommJsqPexDownstreamSampledRep0) {
  // The full extension stack in one trajectory: SerialParallel shape with
  // transmission stages, jsq-pex dispatch-time placement, the
  // downstream-aware EQS-LD deadlines, and the sampled:5 snapshot board.
  // Re-pinned when an empty account's backlog became exactly 0 (idle
  // nodes tie exactly, so the jsq rotation spreads over them); the values
  // before that were captured from the tree-of-vectors task layer and held
  // bitwise through the flat-spec/pooled-instance rewrite.
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 150000;
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.25);
  cfg.ssp = core::serial_strategy_by_name("EQS-LD");
  cfg.psp = core::parallel_strategy_by_name("DIVA");
  cfg.load_model = core::LoadModelSpec::parse("sampled:5");
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 875404u);
  EXPECT_EQ(m.local.generated, 337564u);
  EXPECT_EQ(m.global.generated, 18951u);
  EXPECT_EQ(m.local.missed.trials(), 337558u);
  EXPECT_EQ(m.local.missed.hits(), 83931u);
  EXPECT_EQ(m.global.missed.trials(), 18951u);
  EXPECT_EQ(m.global.missed.hits(), 2656u);
  EXPECT_EQ(m.local.response.mean(), 0x1.de42954c0581ep+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.c62845aefa55dp+2);
  EXPECT_EQ(m.global.response.variance(), 0x1.4a76d47992e2dp+3);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.051fcddb52655p-1);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.09df65bb424e3p+2);
  EXPECT_EQ(m.subtask_wait.count(), 151331u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.af32b6e62fae3p-2);
  EXPECT_EQ(m.local_wait.mean(), 0x1.bc085cef97d8p-1);
  EXPECT_EQ(m.mean_utilization, 0x1.00f42171333d8p-1);
  EXPECT_EQ(m.mean_link_utilization, 0x1.03fe0c763c25p-5);
}

TEST(GoldenMetrics, Fig2EqfJsqPexExactRep0) {
  // Dispatch-time placement: EQF over jsq-pex routing fed by the exact
  // board. Pins the whole placement path — deferred eligible sets, the
  // ready-instant shortest-queue decision, and the tie-break rotation —
  // bit for bit, with idle nodes at a backlog of exactly 0 (re-pinned when
  // the accounts stopped carrying rounding residue past their last job).
  // The event count matches the static UD golden (815073):
  // placement moves work between nodes but never changes the event
  // *population*, only its order.
  system::Config cfg = golden_config();
  cfg.ssp = core::make_eqf();
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 815073u);
  EXPECT_EQ(m.local.generated, 337564u);
  EXPECT_EQ(m.global.generated, 27990u);
  EXPECT_EQ(m.local.missed.trials(), 337559u);
  EXPECT_EQ(m.local.missed.hits(), 72624u);
  EXPECT_EQ(m.global.missed.trials(), 27990u);
  EXPECT_EQ(m.global.missed.hits(), 79u);
  EXPECT_EQ(m.local.response.mean(), 0x1.b7b0c82353c55p+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.050649a97703ap+2);
  EXPECT_EQ(m.global.response.variance(), 0x1.0ef55365f989fp+2);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.5243a8d108e14p-1);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.5b86838dc44c9p+2);
  EXPECT_EQ(m.subtask_wait.count(), 111960u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.2b97d3e13bd3dp-6);
  EXPECT_EQ(m.local_wait.mean(), 0x1.6ee42baba0efp-1);
  EXPECT_EQ(m.mean_utilization, 0x1.fffe93c4b5afcp-2);
}

TEST(GoldenMetrics, Fig2UdLoad05PreemptiveRep0) {
  // Preemptive-resume relaxation: covers the preempt/stale-token paths the
  // flat ready queue rewrite touched.
  system::Config cfg = golden_config();
  cfg.preemption = sched::PreemptionMode::Preemptive;
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_EQ(m.events, 897773u);
  EXPECT_EQ(m.local.missed.trials(), 337560u);
  EXPECT_EQ(m.local.missed.hits(), 47108u);
  EXPECT_EQ(m.global.missed.trials(), 27990u);
  EXPECT_EQ(m.global.missed.hits(), 11477u);
  EXPECT_EQ(m.local.response.mean(), 0x1.96191b00e8597p+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.1aedfd18a93b6p+3);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.9572eac80ac66p-1);
  EXPECT_EQ(m.global.lateness.mean(), -0x1.5586982f470eep-1);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.35840fd76057cp+0);
  EXPECT_EQ(m.local_wait.mean(), 0x1.2bb567069124bp-1);
  EXPECT_EQ(m.mean_utilization, 0x1.fffe93c4b5afbp-2);
}

TEST(GoldenMetrics, Fig2UdK128LadderRep0) {
  // k=128 keeps ~258 events pending, so the run lives in the event
  // queue's ladder tier. Captured when a forced 4-ary heap still existed
  // and this exact run was asserted equal to it (and to a forced ladder):
  // the ladder pops the heap's (time, seq) order bit for bit.
  system::Config cfg = system::baseline_ssp();
  cfg.nodes = 128;
  cfg.horizon = 4000;
  cfg.load = 0.6;
  cfg.probes = true;
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_GE(m.counters.value_or("sim.queue.mode_flips"), 1.0);
  EXPECT_EQ(m.events, 555330u);
  EXPECT_EQ(m.local.generated, 230351u);
  EXPECT_EQ(m.global.generated, 18977u);
  EXPECT_EQ(m.local.missed.trials(), 230219u);
  EXPECT_EQ(m.local.missed.hits(), 72047u);
  EXPECT_EQ(m.global.missed.trials(), 18930u);
  EXPECT_EQ(m.global.missed.hits(), 11386u);
  EXPECT_EQ(m.local.response.mean(), 0x1.16ea1c8df5afep+1);
  EXPECT_EQ(m.global.response.mean(), 0x1.59adeebda334cp+3);
  EXPECT_EQ(m.global.response.variance(), 0x1.d73d20f4c620fp+4);
  EXPECT_EQ(m.local.lateness.mean(), -0x1.9152d6d4ba5eap-3);
  EXPECT_EQ(m.global.lateness.mean(), 0x1.4cee3bf191165p+0);
  EXPECT_EQ(m.subtask_wait.count(), 75783u);
  EXPECT_EQ(m.subtask_wait.mean(), 0x1.b2a303d09a2p+0);
  EXPECT_EQ(m.local_wait.count(), 230219u);
  EXPECT_EQ(m.local_wait.mean(), 0x1.2e7f35b404d39p+0);
  EXPECT_EQ(m.mean_utilization, 0x1.31b2b0ddb7ef4p-1);
}

}  // namespace
