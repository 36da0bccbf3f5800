#include "iso.hpp"

#include <memory>
#include <vector>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

/// Runs `op` in batches sized to ~10 ms and returns the median ns per op of
/// five batches.
template <typename Op>
double per_op_ns(Op&& op) {
  constexpr std::int64_t kBatchNs = 10'000'000;
  std::uint64_t n = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) op();
    if (now_ns() - t0 >= kBatchNs) break;
    n *= 2;
  }
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) op();
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median(ns);
}

/// Re-emits `spec`'s vertex `v` through the in-place builder, keeping each
/// placeable leaf's eligible set as an id range when it is one.
void refill(dsrt::core::TaskSpecBuilder& b, const dsrt::core::TaskSpec& spec,
            std::size_t v) {
  const dsrt::core::SpecVertex& vx = spec.vertex(v);
  if (vx.kind == dsrt::core::SpecKind::Simple) {
    const auto elig = spec.eligible_of(vx);
    bool range = !elig.empty();
    for (std::size_t i = 1; range && i < elig.size(); ++i)
      range = elig[i] == elig[0] + i;
    if (elig.empty())
      b.leaf(vx.node, vx.exec, vx.pex);
    else if (range)
      b.leaf_among(vx.node, elig[0], static_cast<std::uint32_t>(elig.size()),
                   vx.exec, vx.pex);
    else
      b.leaf_among(vx.node, elig, vx.exec, vx.pex);
    return;
  }
  if (vx.kind == dsrt::core::SpecKind::Serial)
    b.begin_serial();
  else
    b.begin_parallel();
  for (std::uint32_t child : spec.children_of(vx)) refill(b, spec, child);
  b.end();
}

}  // namespace

dsrt::workload::GlobalTaskParams global_params(const dsrt::system::Config& cfg) {
  dsrt::workload::GlobalTaskParams params;
  params.shape = cfg.shape;
  params.nodes = cfg.nodes;
  params.subtasks = cfg.subtasks;
  params.subtask_count = cfg.subtask_count;
  params.sp_shape = cfg.sp_shape;
  params.exec = cfg.subtask_exec;
  params.slack = cfg.global_slack();
  params.pex_error = cfg.pex_error;
  params.link_nodes = cfg.link_nodes;
  params.comm_exec = cfg.comm_exec;
  params.periodic = cfg.periodic_globals;
  params.defer_placement =
      cfg.placement.kind != dsrt::core::PlacementKind::Static;
  return params;
}

double queue_hold_ns(std::size_t depth, std::uint64_t seed) {
  dsrt::sim::EventQueue queue;
  queue.reserve(depth + 1);
  dsrt::sim::Rng rng(seed, 7);
  const double mean = static_cast<double>(depth);
  for (std::size_t i = 0; i < depth; ++i)
    queue.push(rng.exponential(mean), [] {});
  return per_op_ns([&] {
    const dsrt::sim::Time t = queue.next_time();
    auto action = queue.pop();
    action();
    queue.push(t + rng.exponential(mean), [] {});
  });
}

double node_cycle_ns(const dsrt::system::Config& cfg, std::uint64_t seed) {
  constexpr int kBatch = 4;
  dsrt::sim::Simulator sim;
  dsrt::sched::Node node(0, sim, cfg.policy, cfg.abort_policy, cfg.preemption);
  node.set_completion_delegate(
      [](void*, const dsrt::sched::Job&, dsrt::sim::Time,
         dsrt::sched::JobOutcome) {},
      nullptr);
  dsrt::sim::Rng rng(seed, 8);
  dsrt::sched::JobId next_id = 1;
  return per_op_ns([&] {
           for (int i = 0; i < kBatch; ++i) {
             dsrt::sched::Job job;
             job.id = next_id++;
             job.exec = rng.exponential(1.0);
             job.pex = job.exec;
             job.deadline = sim.now() + job.exec + rng.uniform(0.25, 2.5);
             job.ultimate_deadline = job.deadline;
             node.submit(job);
           }
           sim.run();
         }) /
         kBatch;
}

double instance_ns(const dsrt::system::Config& cfg, std::uint64_t seed) {
  constexpr std::size_t kSpecs = 256;
  dsrt::sim::Simulator sim;
  dsrt::workload::GlobalTaskSource source(
      sim, global_params(cfg), 1.0, dsrt::sim::Rng(seed, 1), cfg.horizon,
      [](const dsrt::core::TaskSpec&, dsrt::sim::Time) {});
  std::vector<dsrt::core::TaskSpec> specs;
  for (std::size_t i = 0; i < kSpecs; ++i) specs.push_back(source.make_task());

  const std::size_t k = cfg.nodes + cfg.link_nodes;
  dsrt::core::LoadBoard board(k);
  for (std::size_t i = 0; i < k; ++i)
    board[i].configure(cfg.load_model.ewma_tau, 0);
  const dsrt::core::ExactLoadModel exact(board);
  const dsrt::core::LoadModel* load =
      cfg.load_model.kind == dsrt::core::LoadModelKind::None ? nullptr : &exact;
  dsrt::core::PlacementPolicyPtr placement;
  if (cfg.placement.kind != dsrt::core::PlacementKind::Static)
    placement = dsrt::core::make_placement(cfg.placement, seed);

  dsrt::core::TaskSpecBuilder builder;
  dsrt::core::TaskSpec spec;
  dsrt::core::TaskInstance inst;
  std::vector<dsrt::core::LeafSubmission> out;
  std::size_t next = 0;
  dsrt::core::TaskId id = 1;
  return per_op_ns([&] {
    const dsrt::core::TaskSpec& from = specs[next++ % kSpecs];
    builder.reset(spec);
    refill(builder, from, 0);
    builder.finish();
    inst.reset(id++, spec, 0, spec.critical_path_exec() + 2.0, cfg.ssp,
               cfg.psp, load, placement.get());
    out.clear();
    inst.start(0, out);
    while (!out.empty()) {
      const std::size_t leaf = out.back().leaf;
      out.pop_back();
      inst.on_leaf_complete(leaf, 0, out);
    }
  });
}

double generate_ns(const dsrt::system::Config& cfg, std::uint64_t seed) {
  dsrt::sim::Simulator sim;
  dsrt::workload::GlobalTaskSource source(
      sim, global_params(cfg), 1.0, dsrt::sim::Rng(seed, 1), cfg.horizon,
      [](const dsrt::core::TaskSpec&, dsrt::sim::Time) {});
  return per_op_ns([&] { source.next_task(); });
}

}  // namespace perfbench
