// Steady-state allocation contract of the simulation hot path: once the
// fig2 baseline (Table 1: 6 nodes, EDF, serial global tasks of 4 subtasks,
// load 0.5) is warmed up — every pool, scratch buffer and queue past its
// high-water mark — the arrival → dispatch → disposal cycle of the event
// kernel *and* the task layer combined performs ZERO heap allocations.
//
// This pins the whole arena-backed lifecycle: the generator refills one
// flat TaskSpec in place, the process manager recycles pooled
// TaskInstances through the slot map, nodes churn flat ready queues, and
// the event queue recycles action slots. A single stray allocation per
// task (a vector rebuilt instead of reused, a map node, a std::function
// respawn) fails this test deterministically — seeds are fixed, so the
// allocation sequence is reproducible bit for bit.
//
// The global operator-new family is replaced by tests/support/
// alloc_counter.cpp (linked into this target only).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/trace/recorder.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/generator.hpp"
#include "support/alloc_counter.hpp"

namespace {

using namespace dsrt;

/// Ready-queue prewarm: a node's ready queue starts at the run's small
/// reserve (SimulationRun::kReadyReserve) and grows only at new
/// high-water marks of its depth, which, like the pool's, can creep
/// arbitrarily late in a stochastic run. Queueing kReadyFlood tiny local
/// tasks at every node at once (deeper than any queue gets in the measured
/// windows below), then draining them, moves every such growth event into
/// the warm-up. (They draw nothing from the workload RNG streams; they
/// only shift the clock.)
constexpr int kReadyFlood = 32;

void flood_ready_queues(sim::Simulator& sim, system::ProcessManager& pm,
                        std::size_t nodes) {
  for (std::size_t i = 0; i < nodes; ++i)
    for (int j = 0; j <= kReadyFlood; ++j)
      pm.submit_local(static_cast<core::NodeId>(i), 0.001, 0.001, 1e9);
  sim.run(sim.now() + 10.0);
}

/// The fig2 system, wired by hand so the simulator clock can be advanced
/// in phases (SimulationRun::run is one-shot to the horizon).
struct Fig2System {
  static constexpr sim::Time kHorizon = 50000.0;

  sim::Simulator sim;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  system::RunMetrics metrics;
  std::unique_ptr<system::ProcessManager> pm;
  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  std::unique_ptr<workload::GlobalTaskSource> globals;

  Fig2System() {
    const system::Config cfg = system::baseline_ssp();
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, cfg.policy, cfg.abort_policy,
          cfg.preemption));
      nodes.back()->reserve_ready(system::SimulationRun::kReadyReserve);
    }
    pm = std::make_unique<system::ProcessManager>(sim, nodes, cfg.ssp,
                                                  cfg.psp, metrics);
    const double local_rate =
        cfg.lambda_local_total() / static_cast<double>(cfg.nodes);
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      locals.push_back(std::make_unique<workload::LocalTaskSource>(
          sim, static_cast<core::NodeId>(i), local_rate, cfg.local_exec,
          cfg.local_slack, cfg.pex_error, sim::Rng(cfg.seed, 100 + i),
          kHorizon,
          [this](core::NodeId node, double exec, double pex,
                 sim::Time deadline) {
            pm->submit_local(node, exec, pex, deadline);
          }));
    }
    workload::GlobalTaskParams params;
    params.shape = cfg.shape;
    params.nodes = cfg.nodes;
    params.subtasks = cfg.subtasks;
    params.exec = cfg.subtask_exec;
    params.slack = cfg.global_slack();
    params.pex_error = cfg.pex_error;
    globals = std::make_unique<workload::GlobalTaskSource>(
        sim, std::move(params), cfg.lambda_global(), sim::Rng(cfg.seed, 1),
        kHorizon, [this](const core::TaskSpec& spec, sim::Time deadline) {
          pm->submit_global(spec, deadline);
        });
    // Pool prewarm: the instance pool grows only at new high-water marks
    // of *simultaneously live* tasks, and that peak can creep arbitrarily
    // late in a stochastic run. Flooding the manager once with more
    // concurrent tasks than the measured window will ever hold in flight
    // moves every such growth event into the warm-up phase, so the
    // measured cycle exercises pure recycling. (These submissions draw
    // nothing from the workload RNG streams; they only shift the clock.)
    for (int i = 0; i < 64; ++i) {
      const auto spec = core::TaskSpec::serial(
          {core::TaskSpec::simple(0, 0.001), core::TaskSpec::simple(1, 0.001),
           core::TaskSpec::simple(2, 0.001),
           core::TaskSpec::simple(3, 0.001)});
      pm->submit_global(spec, /*deadline=*/1e9);
    }
    sim.run(sim.now() + 10.0);  // drain the flood
    flood_ready_queues(sim, *pm, cfg.nodes);
    for (auto& source : locals) source->start();
    globals->start();
  }
};

TEST(AllocSteadyState, WarmFig2CycleAllocatesNothing) {
  Fig2System f;

  // Warm-up: thousands of task lifecycles push every buffer — instance
  // pool, flat-spec arena, event slots, ready queues, disposal scratch —
  // past its steady-state high-water mark.
  f.sim.run(5000.0);
  ASSERT_GT(f.metrics.global.generated, 500u);  // the cycle really ran

  // Measured window: ~10k further local tasks and ~800 further global
  // tasks (arrival, spec fill, deadline decomposition, node queueing,
  // service, disposal, instance recycling) must not touch the allocator.
  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  const std::uint64_t tasks_before = f.metrics.global.generated;
  f.sim.run(15000.0);
  const std::uint64_t allocs = dsrt::testing::allocation_count() -
                               allocs_before;
  const std::uint64_t frees = dsrt::testing::deallocation_count() -
                              frees_before;
  const std::uint64_t tasks = f.metrics.global.generated - tasks_before;

  EXPECT_GT(tasks, 500u);
  EXPECT_EQ(allocs, 0u) << "steady-state cycle hit the allocator " << allocs
                        << " times over " << tasks << " global tasks";
  EXPECT_EQ(frees, 0u) << "steady-state cycle freed " << frees
                       << " heap blocks over " << tasks << " global tasks";
}

TEST(AllocSteadyState, PassiveCountersKeepDetachedRunAllocationFree) {
  // The obs counters added to the hot layers (event-queue high-water mark
  // and mode flips, per-node ready-queue peaks, pool recycle counts, load
  // and placement tallies) are plain member increments — with no observer
  // attached and no harvest, the steady-state cycle must still be
  // allocation-free. This is the same contract as WarmFig2CycleAllocates-
  // Nothing, asserted separately so a probe regression is named as such.
  Fig2System f;
  f.sim.run(5000.0);
  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  f.sim.run(10000.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  EXPECT_EQ(allocs, 0u)
      << "passive engine counters allocated " << allocs << " times";
}

TEST(AllocSteadyState, AttachedObserversStayBounded) {
  // With the full observability stack attached — a pre-filled KeepTail ring
  // recorder (overwrites in place, never grows) and the miss-attribution
  // postmortem (pooled task records; one hash-map node churned per task) —
  // steady-state allocation must stay bounded by a small multiple of the
  // task count, not by the event count.
  Fig2System f;
  trace::Recorder recorder(1024, trace::Overflow::KeepTail);
  obs::MissAttribution attribution(6);
  obs::ObserverTee tee;
  tee.attach(&recorder);
  tee.attach(&attribution);
  f.pm->set_observer(&tee);

  f.sim.run(5000.0);  // warm-up fills the ring and the attribution pool
  ASSERT_GT(recorder.dropped(), 0u);  // ring really wrapped

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t tasks_before = f.metrics.global.generated;
  f.sim.run(10000.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t tasks = f.metrics.global.generated - tasks_before;

  ASSERT_GT(tasks, 300u);
  // The ring recorder allocates nothing; attribution may allocate a few
  // blocks per task (unordered_map node churn + first-touch job vectors).
  EXPECT_LT(allocs, 4 * tasks)
      << "attached observers allocated " << allocs << " times over " << tasks
      << " tasks";
}

/// The big-config system: k=1024 nodes, whose ~2050 pending events keep
/// the event queue in its ladder tier, pod:2 (or another)
/// placement over an exact load board, deferred eligible-set specs.
/// Hand-wired like Fig2System, mirroring SimulationRun's proportional
/// reserves.
struct ScaleSystem {
  static constexpr std::size_t kNodes = 1024;
  static constexpr sim::Time kHorizon = 2000.0;

  sim::Simulator sim;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  core::LoadBoard board{kNodes};
  core::ExactLoadModel model{board};
  core::PlacementPolicyPtr placement;
  system::RunMetrics metrics;
  std::unique_ptr<system::ProcessManager> pm;
  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  std::unique_ptr<workload::GlobalTaskSource> globals;

  explicit ScaleSystem(const char* placement_name = "pod:2") {
    system::Config cfg = system::baseline_ssp();
    cfg.nodes = kNodes;
    sim.reserve_queue(2 * kNodes + 64);
    placement = core::make_placement(
        core::PlacementSpec::parse(placement_name), cfg.seed);
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, cfg.policy, cfg.abort_policy,
          cfg.preemption));
      nodes.back()->reserve_ready(system::SimulationRun::kReadyReserve);
      board[i].configure(cfg.load_model.ewma_tau, sim.now());
      nodes.back()->attach_load_account(&board[i]);
    }
    pm = std::make_unique<system::ProcessManager>(
        sim, nodes, cfg.ssp, cfg.psp, metrics, &model, placement.get());
    pm->reserve_for_scale(kNodes);
    const double local_rate =
        cfg.lambda_local_total() / static_cast<double>(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      locals.push_back(std::make_unique<workload::LocalTaskSource>(
          sim, static_cast<core::NodeId>(i), local_rate, cfg.local_exec,
          cfg.local_slack, cfg.pex_error, sim::Rng(cfg.seed, 100 + i),
          kHorizon,
          [this](core::NodeId node, double exec, double pex,
                 sim::Time deadline) {
            pm->submit_local(node, exec, pex, deadline);
          }));
    }
    workload::GlobalTaskParams params;
    params.shape = cfg.shape;
    params.nodes = kNodes;
    params.subtasks = cfg.subtasks;
    params.exec = cfg.subtask_exec;
    params.slack = cfg.global_slack();
    params.pex_error = cfg.pex_error;
    params.defer_placement = true;  // eligible-set leaves, bound at dispatch
    globals = std::make_unique<workload::GlobalTaskSource>(
        sim, std::move(params), cfg.lambda_global(), sim::Rng(cfg.seed, 1),
        kHorizon, [this](const core::TaskSpec& spec, sim::Time deadline) {
          pm->submit_global(spec, deadline);
        });
    // Pool prewarm, scaled: at k=1024 the global arrival rate keeps a few
    // hundred instances live; flooding well past that peak moves every
    // slot-map growth into warm-up (see Fig2System for the rationale).
    for (int i = 0; i < 768; ++i) {
      const auto spec = core::TaskSpec::serial(
          {core::TaskSpec::simple(0, 0.001), core::TaskSpec::simple(1, 0.001),
           core::TaskSpec::simple(2, 0.001),
           core::TaskSpec::simple(3, 0.001)});
      pm->submit_global(spec, /*deadline=*/1e9);
    }
    sim.run(sim.now() + 10.0);  // drain the flood
    flood_ready_queues(sim, *pm, kNodes);
    for (auto& source : locals) source->start();
    globals->start();
  }
};

/// The measured cycles run on the ladder tier, not the sorted one: the
/// queue has entered it and is deeper than the sorted tier's bound.
void expect_in_ladder(const ScaleSystem& s) {
  EXPECT_GE(s.sim.queue().mode_flips(), 1u);
  EXPECT_GT(s.sim.pending(), 64u);
}

TEST(AllocSteadyState, BigConfigLadderPodCycleAllocatesNothing) {
  // The k>=1024 acceptance bar of the scaling PR: with the ladder queue
  // holding ~2050 pending events, pod:2 sampling every global stage, and
  // the sharded load board live, the warmed steady-state cycle must not
  // touch the allocator at all — same contract as the fig2 baseline, at
  // 170x the node count.
  ScaleSystem s;

  // Warm-up: ~250k local + ~18k global lifecycles push the ladder buckets,
  // overflow/respill scratch, the instance pool, and every per-node queue
  // past their high-water marks. Bucket-occupancy maxima creep slower than
  // pool peaks (the last capacity raise on this seed is an epoch re-seed
  // near t=750), hence the long warm-up relative to the fig2 test; the
  // run is fixed-seed deterministic, so the window is reproducible.
  s.sim.run(800.0);
  ASSERT_GT(s.metrics.global.generated, 10000u);
  expect_in_ladder(s);

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  const std::uint64_t tasks_before = s.metrics.global.generated;
  s.sim.run(1900.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t frees =
      dsrt::testing::deallocation_count() - frees_before;
  const std::uint64_t tasks = s.metrics.global.generated - tasks_before;

  EXPECT_GT(tasks, 2000u);
  EXPECT_EQ(allocs, 0u) << "big-config steady-state cycle hit the allocator "
                        << allocs << " times over " << tasks
                        << " global tasks";
  EXPECT_EQ(frees, 0u) << "big-config steady-state cycle freed " << frees
                       << " heap blocks over " << tasks << " global tasks";
}

TEST(AllocSteadyState, BigConfigLadderJsqPexCycleAllocatesNothing) {
  // The exact-jsq twin of the pod cycle above: every global stage asks the
  // board's backlog index. The index is built lazily by the first jsq-pex
  // decision, inside the warm-up; from then on every backlog write updates
  // it in place and every decision queries it, without the allocator.
  ScaleSystem s("jsq-pex");
  s.sim.run(800.0);
  ASSERT_GT(s.metrics.global.generated, 10000u);
  ASSERT_GT(s.model.reads(), 10000u);
  expect_in_ladder(s);

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  const std::uint64_t tasks_before = s.metrics.global.generated;
  const std::uint64_t reads_before = s.model.reads();
  s.sim.run(1900.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t frees =
      dsrt::testing::deallocation_count() - frees_before;
  const std::uint64_t tasks = s.metrics.global.generated - tasks_before;

  EXPECT_GT(tasks, 2000u);
  // One index query per decision, not one read per node.
  EXPECT_LT(s.model.reads() - reads_before, 8 * tasks);
  EXPECT_EQ(allocs, 0u) << "jsq-pex steady-state cycle hit the allocator "
                        << allocs << " times over " << tasks
                        << " global tasks";
  EXPECT_EQ(frees, 0u) << "jsq-pex steady-state cycle freed " << frees
                       << " heap blocks over " << tasks << " global tasks";
}

TEST(AllocFootprint, K4096RunConstructionStaysSmall) {
  // Construction footprint of the largest benchmarked run (k=4096, pod:2
  // over an exact load board): the bytes a SimulationRun asks of
  // operator new while it is built. Most of it is per node, so a per-node
  // reserve that creeps back (a ready queue pre-sized for a depth no node
  // reaches) shows up here multiplied by 4096.
  system::Config cfg = system::baseline_ssp();
  cfg.nodes = 4096;
  cfg.placement = core::PlacementSpec::parse("pod:2");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  cfg.horizon = 120;
  const std::uint64_t before = dsrt::testing::allocated_bytes();
  system::SimulationRun run(cfg);
  const std::uint64_t bytes = dsrt::testing::allocated_bytes() - before;
  // Measured 7.76 MB (x86-64, g++ 12, libstdc++; 9.76 MB while the task
  // pool reserved 2k slots); the bound keeps the headroom it had. A ready
  // queue reserved 128 deep per node would add ~59 MB.
  constexpr std::uint64_t kBoundBytes = 15'000'000;
  EXPECT_LT(bytes, kBoundBytes)
      << "building the k=4096 run requested " << bytes << " bytes";
}

TEST(AllocSteadyState, CounterSeesAllocations) {
  // Sanity: the hook is actually installed in this binary.
  const std::uint64_t before = dsrt::testing::allocation_count();
  auto* p = new std::vector<int>(1024);
  // Escape both blocks, or the optimizer may merge the two allocations
  // of a vector that never leaves this scope.
  asm volatile("" : : "g"(p), "g"(p->data()) : "memory");
  const std::uint64_t after = dsrt::testing::allocation_count();
  delete p;
  EXPECT_GE(after - before, 2u);  // the vector object + its buffer
}

}  // namespace
