// Kernel microbenchmarks: events/sec of the discrete-event hot path, from
// the bare pending-event set up to a full fig2 replication. Self-timed (no
// external benchmark dependency) and emitted as BENCH_kernel.json via the
// engine's micro-bench emitter, so every PR extends a machine-readable
// performance trajectory of the kernel.
//
// Benchmarks:
//   event_queue_hold_<d>    hold model of the pending-event set (Jones,
//                           CACM 1986): pop the earliest event, push one
//                           at its time + Exp(mean d), at steady depth d
//                           (32/64 = sorted tier, 1024/8192 = ladder; the
//                           `_heap` entries are forced-heap A/B partners)
//   backlog_index_k1024     exact jsq-pex over a k=1024 load board: eight
//                           backlog writes per indexed placement query
//   node_cycle              Node submit -> dispatch -> complete cycle
//                           through the flat ready queue (EDF, no abort)
//   task_churn              task-layer lifecycle with no nodes: flat-spec
//                           fill, pooled-instance recycle, deadline
//                           decomposition, and completion walk per task
//   end_to_end_fig2         whole-system events/sec at the Table-1
//                           baseline (UD, load 0.5), non-preemptive
//   end_to_end_fig2_preempt same with preemptive-resume servers
//   observer_overhead       end_to_end_fig2 with the full observability
//                           stack attached (probes + KeepTail recorder +
//                           miss attribution) — compare against
//                           end_to_end_fig2 for the cost of watching
//   replication_throughput  replications/sec through the engine runner
//                           (the number that bounds sweep-grid cost)
//
// Flags: --quick (shrink iteration counts ~8x), --out=<dir>.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/trace/recorder.hpp"
#include "dsrt/util/flags.hpp"
#include "dsrt/workload/pex_error.hpp"
#include "dsrt/workload/shapes.hpp"

namespace {

using namespace dsrt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

engine::BenchEntry hold(std::size_t depth, std::uint64_t iters,
                        sim::QueueMode mode = sim::QueueMode::Adaptive) {
  sim::Rng rng(42);
  sim::EventQueue q;
  std::string name = "event_queue_hold_" + std::to_string(depth);
  if (mode != sim::QueueMode::Adaptive) {
    // Forced layout: the A/B partner of the adaptive entry at the same
    // depth (e.g. ladder-vs-heap at 8192 pending).
    q.set_mode(mode);
    name += '_';
    name += sim::queue_mode_name(mode);
  }
  // Mean offset = depth: about one pending event per unit of time, so the
  // offsets land anywhere in the pending set, as completions and arrival
  // timers do in a run.
  const double mean = static_cast<double>(depth);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.push(rng.exponential(mean), [&fired] { ++fired; });
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const sim::Time now = q.next_time();
    q.pop()();
    q.push(now + rng.exponential(mean), [&fired] { ++fired; });
  }
  const double s = seconds_since(t0);
  if (fired != iters) std::abort();  // exactly one action fires per pop
  return {std::move(name), "events", static_cast<double>(iters), s};
}

engine::BenchEntry backlog_index_k1024(std::uint64_t queries) {
  // Exact jsq-pex decisions over a k=1024 board, with the backlog writes a
  // serial-parallel run issues per decision (about eight: the chosen
  // node's add plus the submits and completions elsewhere). Covers both
  // halves of the indexed path: the in-place key writes and the
  // per-decision (min, count) reads over a range minus taken positions.
  constexpr std::size_t kNodes = 1024;
  constexpr int kWritesPerQuery = 8;
  sim::Rng rng(13);
  core::LoadBoard board(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) board[i].configure(20.0, 0.0);
  core::ExactLoadModel model(board);
  const auto placement =
      core::make_placement(core::PlacementSpec::parse("jsq-pex"), 99);
  core::PlacementContext ctx;
  ctx.load = &model;
  const core::EligibleSet all = core::EligibleSet::range(0, kNodes);
  // Two sibling sites already taken, as in a distinct-site parallel group.
  const std::uint32_t taken[] = {100, 700};
  const core::Candidates candidates(all, taken);
  std::uint64_t picked = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t q = 0; q < queries; ++q) {
    const core::NodeId node = placement->place_among(ctx, candidates);
    picked += node;
    board[node].add_backlog(rng.exponential(1.0));
    for (int w = 1; w < kWritesPerQuery; ++w) {
      core::LoadAccount& acct = board[rng.below(kNodes)];
      if (rng.uniform01() < 0.5) {
        acct.add_backlog(rng.exponential(1.0));
      } else {
        acct.remove_backlog(rng.exponential(1.0));
      }
    }
  }
  const double s = seconds_since(t0);
  if (picked == 0) std::abort();  // keep the decisions observable
  return {"backlog_index_k1024", "queries", static_cast<double>(queries), s};
}

engine::BenchEntry node_cycle(std::uint64_t jobs) {
  sim::Simulator simulator;
  sched::Node node(0, simulator, sched::make_edf(), sched::make_no_abort());
  std::uint64_t done = 0;
  node.set_completion_handler(
      [&done](const sched::Job&, sim::Time, sched::JobOutcome) { ++done; });
  sim::Rng rng(7);
  const auto t0 = Clock::now();
  while (done < jobs) {
    // Keep a handful of jobs queued so dispatch exercises the ready heap.
    sched::Job j;
    j.id = done;
    j.exec = 0.5 + rng.uniform01();
    j.pex = j.exec;
    j.deadline = simulator.now() + 4.0;
    node.submit(j);
    simulator.run(simulator.now() + 1.0);
  }
  const double s = seconds_since(t0);
  return {"node_cycle", "jobs", static_cast<double>(done), s};
}

engine::BenchEntry task_churn(std::uint64_t tasks) {
  // The arena-backed global-task lifecycle in isolation (no nodes, no
  // event kernel): refill one flat TaskSpec in place, recycle one pooled
  // TaskInstance, decompose deadlines, and walk every leaf to completion.
  // After the first iteration this loop performs zero heap allocations.
  sim::Rng rng(11);
  const auto exec_dist = sim::exponential(1.0);
  const auto pex_error = workload::make_perfect_prediction();
  const auto ssp = core::make_eqs();
  const auto psp = core::make_parallel_ud();
  core::TaskSpec spec;
  core::TaskSpecBuilder builder;
  core::TaskInstance inst;
  std::vector<core::LeafSubmission> ready;
  ready.reserve(8);
  std::uint64_t leaves = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t t = 0; t < tasks; ++t) {
    builder.reset(spec);
    workload::fill_serial_task(builder, /*subtasks=*/4, /*nodes=*/6,
                               *exec_dist, *pex_error, rng,
                               /*defer_placement=*/false);
    builder.finish();
    inst.reset(t + 1, spec, 0.0, spec.critical_path_exec() + 2.0, ssp, psp);
    ready.clear();
    inst.start(0.0, ready);
    double now = 0;
    while (!ready.empty()) {
      const core::LeafSubmission sub = ready.back();
      ready.pop_back();
      ++leaves;
      now += 0.25;
      inst.on_leaf_complete(sub.leaf, now, ready);
    }
  }
  const double s = seconds_since(t0);
  if (leaves != tasks * 4) std::abort();  // every leaf completes exactly once
  return {"task_churn", "tasks", static_cast<double>(tasks), s};
}

engine::BenchEntry task_churn_k1024(std::uint64_t tasks) {
  // The big-config flavor of task_churn: eligible-set leaves over k=1024
  // nodes, bound at stage-ready time by pod:2 over an exact load board.
  // Covers the deferred-placement path (interval eligible sets, placement rng,
  // O(d) sampling) at the scale the abl_scale bench runs end to end.
  sim::Rng rng(11);
  const auto exec_dist = sim::exponential(1.0);
  const auto pex_error = workload::make_perfect_prediction();
  const auto ssp = core::make_eqs();
  const auto psp = core::make_parallel_ud();
  constexpr std::size_t kNodes = 1024;
  core::LoadBoard board(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) board[i].configure(20.0, 0.0);
  core::ExactLoadModel model(board);
  core::PlacementSpec pspec = core::PlacementSpec::parse("pod:2");
  const auto placement = core::make_placement(pspec, /*seed=*/99);
  core::TaskSpec spec;
  core::TaskSpecBuilder builder;
  core::TaskInstance inst;
  std::vector<core::LeafSubmission> ready;
  ready.reserve(8);
  std::uint64_t leaves = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t t = 0; t < tasks; ++t) {
    builder.reset(spec);
    workload::fill_serial_task(builder, /*subtasks=*/4, kNodes, *exec_dist,
                               *pex_error, rng, /*defer_placement=*/true);
    builder.finish();
    inst.reset(t + 1, spec, 0.0, spec.critical_path_exec() + 2.0, ssp, psp,
               &model, placement.get());
    ready.clear();
    inst.start(0.0, ready);
    double now = 0;
    while (!ready.empty()) {
      const core::LeafSubmission sub = ready.back();
      ready.pop_back();
      ++leaves;
      now += 0.25;
      inst.on_leaf_complete(sub.leaf, now, ready);
    }
  }
  const double s = seconds_since(t0);
  if (leaves != tasks * 4) std::abort();
  return {"task_churn_k1024", "tasks", static_cast<double>(tasks), s};
}

engine::BenchEntry end_to_end(bool preemptive, sim::Time horizon, int reps) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = horizon;
  if (preemptive) cfg.preemption = sched::PreemptionMode::Preemptive;
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r)
    events += system::simulate(cfg, static_cast<std::uint64_t>(r)).events;
  const double s = seconds_since(t0);
  return {preemptive ? "end_to_end_fig2_preempt" : "end_to_end_fig2",
          "events", static_cast<double>(events), s};
}

engine::BenchEntry observer_overhead(sim::Time horizon, int reps) {
  // The fig2 workload with everything watching: counter harvest enabled,
  // a KeepTail ring recorder, and the miss-attribution postmortem fanned
  // out from one observer slot. The delta vs end_to_end_fig2 is the
  // all-in cost of full observability.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = horizon;
  cfg.probes = true;
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    trace::Recorder recorder(4096, trace::Overflow::KeepTail);
    obs::MissAttribution attribution(cfg.nodes);
    obs::ObserverTee tee;
    tee.attach(&recorder);
    tee.attach(&attribution);
    system::SimulationRun run(cfg, static_cast<std::uint64_t>(r));
    run.set_observer(&tee);
    events += run.run().events;
  }
  const double s = seconds_since(t0);
  return {"observer_overhead", "events", static_cast<double>(events), s};
}

engine::BenchEntry replication_throughput(sim::Time horizon,
                                          std::size_t reps) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = horizon;
  const engine::Runner runner;  // jobs=0: one worker per hardware thread
  const auto t0 = Clock::now();
  (void)runner.run_replications(cfg, reps);
  const double s = seconds_since(t0);
  return {"replication_throughput", "reps", static_cast<double>(reps), s};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool quick = flags.has("quick");
  const std::string out_dir = flags.get("out", std::string("."));
  const std::uint64_t scale = quick ? 1 : 8;

  std::vector<engine::BenchEntry> entries;
  entries.push_back(hold(32, 500000 * scale));
  entries.push_back(hold(64, 500000 * scale));
  // 1024 and 8192 pending are ladder depths: each forced-heap entry is the
  // A/B partner of the adaptive one on the identical sequence (same pops
  // either way).
  entries.push_back(hold(1024, 500000 * scale));
  entries.push_back(hold(1024, 500000 * scale, sim::QueueMode::Heap));
  entries.push_back(hold(8192, 500000 * scale));
  entries.push_back(hold(8192, 500000 * scale, sim::QueueMode::Heap));
  entries.push_back(backlog_index_k1024(250000 * scale));
  entries.push_back(node_cycle(125000 * scale));
  entries.push_back(task_churn(125000 * scale));
  entries.push_back(task_churn_k1024(25000 * scale));
  entries.push_back(end_to_end(false, 37500.0 * static_cast<double>(scale),
                               /*reps=*/3));
  entries.push_back(end_to_end(true, 37500.0 * static_cast<double>(scale),
                               /*reps=*/3));
  entries.push_back(observer_overhead(37500.0 * static_cast<double>(scale),
                                      /*reps=*/3));
  entries.push_back(
      replication_throughput(25000.0 * static_cast<double>(scale), 8));

  std::printf("%-28s %12s %10s %14s\n", "benchmark", "items", "wall_s",
              "rate/s");
  for (const auto& e : entries)
    std::printf("%-28s %12.0f %10.3f %14.0f (%s)\n", e.name.c_str(), e.items,
                e.wall_seconds, e.rate(), e.unit.c_str());

  const std::string path =
      engine::write_microbench_artifact("kernel", entries, out_dir);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
