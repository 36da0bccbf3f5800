#include "dsrt/system/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsrt/obs/probes.hpp"

namespace dsrt::system {

namespace {

/// Mixes the replication index into the base seed so replications are
/// independent while any single replication stays reproducible.
std::uint64_t replication_seed(std::uint64_t base, std::uint64_t replication) {
  return base ^ (0xd1b54a32d192ed03ULL * (replication + 1));
}

// Stream ids per stochastic source (common-random-numbers discipline; the
// placement sampler uses core::kPlacementRngStream = 2).
constexpr std::uint64_t kGlobalStream = 1;
constexpr std::uint64_t kLocalStreamBase = 100;

// A source event's prefetch window (sim::kTargetBack before the source to
// sim::kTargetSpan after it) holds the heap blocks built on either side of
// the source: its arrival process before it, its node after it. Each
// block adds up to kHeapHeader bytes of allocator header and padding.
constexpr std::size_t kHeapHeader = 16;
static_assert(sizeof(workload::PoissonProcess) + kHeapHeader <=
                  sim::kTargetBack,
              "a Poisson arrival process outgrows the dispatch prefetch");
static_assert(sizeof(workload::LocalTaskSource) + sizeof(sched::Node) +
                      2 * kHeapHeader <=
                  sim::kTargetSpan,
              "a local source and its node outgrow the dispatch prefetch");

}  // namespace

SimulationRun::SimulationRun(const Config& config, std::uint64_t replication)
    : cfg_(config) {
  cfg_.validate();
  const std::uint64_t seed = replication_seed(cfg_.seed, replication);

  // Strategies with per-run mutable state (the online DIV-x autotuner) get
  // a fresh instance, so concurrent engine runs sharing one Config adapt
  // independently and --jobs=1 equals --jobs=N bit for bit.
  if (auto cloned = cfg_.ssp->clone_for_run()) cfg_.ssp = std::move(cloned);
  if (auto cloned = cfg_.psp->clone_for_run()) cfg_.psp = std::move(cloned);

  // Compute nodes 0..k-1 followed by any link nodes (Section 3.2 treats
  // the network as extra processing nodes with the same scheduler kind).
  const std::size_t total_nodes = cfg_.nodes + cfg_.link_nodes;

  // Proportional reserve: a k-node run keeps ~2k+2 events pending (one
  // completion + one arrival timer per source), so pre-sizing here moves
  // every growth reallocation of the pending set out of the run entirely
  // — part of the zero-steady-state-allocation contract at k >= 1024.
  sim_.reserve_queue(2 * total_nodes + 64);

  // Workload sinks, shared by the generators, the trace replayer, and the
  // optional capture hook (the writer branch is dead unless a writer is
  // attached, so capture can never perturb an uncaptured run). They run
  // only once the simulation does, after pm_ exists.
  auto local_sink = [this](core::NodeId node, double exec, double pex,
                           sim::Time deadline) {
    if (trace_writer_)
      trace_writer_->local(sim_.now(), node, exec, pex, deadline);
    pm_->submit_local(node, exec, pex, deadline);
  };
  auto global_sink = [this](const core::TaskSpec& spec, sim::Time deadline) {
    if (trace_writer_) trace_writer_->global(sim_.now(), spec, deadline);
    pm_->submit_global(spec, deadline);
  };

  // Local-task streams (none under trace replay): homogeneous by default,
  // or weighted per node (Section 4.3's "some nodes had higher local task
  // loads than others"). With batched (bursty) arrivals the event rate
  // drops by the batch mean so the offered load stays at the configured
  // level.
  const bool generated = cfg_.trace.empty();
  const double total_rate =
      cfg_.lambda_local_total() / cfg_.arrivals.batch_mean();
  double weight_sum = 0;
  for (double w : cfg_.local_weights) weight_sum += w;

  // Compute node i's state is built in one pass, in the order an event
  // walks it: the arrival process, then the local source that owns it,
  // then the node and its ready entries. Consecutive heap blocks, so a
  // source event's prefetch window (see sim::kTargetSpan) also covers the
  // arrival process and the node, and a node event's covers its first
  // ready entries. Link nodes have no source. Constructing a source draws
  // nothing; each keeps its own stream and starts in node order from
  // run().
  nodes_.reserve(total_nodes);
  if (generated) local_sources_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < total_nodes; ++i) {
    if (generated && i < cfg_.nodes) {
      const double share =
          cfg_.local_weights.empty()
              ? 1.0 / static_cast<double>(cfg_.nodes)
              : cfg_.local_weights[i] / weight_sum;
      auto process =
          workload::make_arrival_process(cfg_.arrivals, total_rate * share);
      local_sources_.push_back(std::make_unique<workload::LocalTaskSource>(
          sim_, static_cast<core::NodeId>(i), std::move(process),
          cfg_.local_exec, cfg_.local_slack, cfg_.pex_error,
          sim::Rng(seed, kLocalStreamBase + i), cfg_.horizon, local_sink));
    }
    nodes_.push_back(std::make_unique<sched::Node>(
        static_cast<core::NodeId>(i), sim_, cfg_.policy, cfg_.abort_policy,
        cfg_.preemption));
    nodes_.back()->reserve_ready(kReadyReserve);
  }

  // Load accounting + model (extension; Config::load_model). The board is
  // sized once, then the nodes keep raw pointers into it. With kind None
  // nothing is wired and the hot path is untouched.
  if (cfg_.load_model.kind != core::LoadModelKind::None) {
    load_board_.resize(total_nodes);
    for (std::size_t i = 0; i < total_nodes; ++i) {
      load_board_[i].configure(cfg_.load_model.ewma_tau, sim_.now());
      nodes_[i]->attach_load_account(&load_board_[i]);
    }
    switch (cfg_.load_model.kind) {
      case core::LoadModelKind::Exact:
        load_model_ = std::make_shared<core::ExactLoadModel>(load_board_);
        break;
      case core::LoadModelKind::Sampled:
      case core::LoadModelKind::Stale: {
        auto snapshot = std::make_shared<core::SnapshotLoadModel>(
            load_board_, cfg_.load_model.period,
            cfg_.load_model.kind == core::LoadModelKind::Sampled
                ? core::SnapshotLoadModel::Serve::Latest
                : core::SnapshotLoadModel::Serve::Previous);
        snapshot_model_ = snapshot.get();
        load_model_ = std::move(snapshot);
        break;
      }
      case core::LoadModelKind::None:
        break;  // unreachable
    }
  }

  // Placement (extension; Config::placement). Static keeps the policy
  // null: the generator binds nodes exactly as before and the placement
  // engine never runs, so every pre-placement golden is reproduced bit for
  // bit. The other kinds get a *fresh* policy per run — the jsq tie-break
  // rotation and the pod sampling rng (seeded from this replication's
  // seed, stream kPlacementRngStream) are per-run state, so concurrent
  // engine runs stay independent and --jobs=1 equals --jobs=N.
  if (cfg_.placement.kind != core::PlacementKind::Static)
    placement_ = core::make_placement(cfg_.placement, seed);

  // Fault injection (extension; Config::faults). Built only when the spec
  // enables something, so a fault-free run constructs nothing, schedules
  // nothing, and draws nothing — bit-for-bit the pre-fault build. All
  // fault randomness lives on stream fault::kFaultRngStream of this
  // replication's seed.
  if (cfg_.faults.any())
    faults_ = std::make_unique<fault::FaultInjector>(
        sim_, cfg_.faults, nodes_, cfg_.nodes, seed, cfg_.horizon);

  pm_ = std::make_unique<ProcessManager>(sim_, nodes_, cfg_.ssp, cfg_.psp,
                                         metrics_, load_model_.get(),
                                         placement_.get(), faults_.get());
  // Proportional pool reserve: live-instance count scales with the global
  // arrival rate (itself proportional to k), so the slot map's growth
  // reallocations move into construction at the big configs.
  pm_->reserve_for_scale(total_nodes);

  // Trace replay (cfg.trace): the generators are not wired at all; every
  // arrival comes verbatim from the file through the same sinks.
  if (!generated) {
    trace_ = std::make_unique<workload::Trace>(
        workload::Trace::load(cfg_.trace));
    trace_source_ = std::make_unique<workload::TraceSource>(
        sim_, *trace_, cfg_.horizon, local_sink, global_sink);
    return;
  }

  // Global-task stream. Batch compounding is a local-stream model
  // (for_globals degenerates it to Poisson); the modulated kinds apply
  // here too, and periodic_globals swaps in the deterministic gap law.
  workload::GlobalTaskParams params;
  params.shape = cfg_.shape;
  params.nodes = cfg_.nodes;
  params.subtasks = cfg_.subtasks;
  params.subtask_count = cfg_.subtask_count;
  params.sp_shape = cfg_.sp_shape;
  params.exec = cfg_.subtask_exec;
  params.slack = cfg_.global_slack();
  params.pex_error = cfg_.pex_error;
  params.link_nodes = cfg_.link_nodes;
  params.comm_exec = cfg_.comm_exec;
  params.periodic = cfg_.periodic_globals;
  params.defer_placement = placement_ != nullptr;
  global_source_ = std::make_unique<workload::GlobalTaskSource>(
      sim_, std::move(params),
      workload::make_arrival_process(cfg_.arrivals.for_globals(),
                                     cfg_.lambda_global(),
                                     cfg_.periodic_globals),
      sim::Rng(seed, kGlobalStream), cfg_.horizon, global_sink);
}

void SimulationRun::schedule_snapshot_refresh() {
  const sim::Time at = sim_.now() + snapshot_model_->period();
  if (at > cfg_.horizon) return;
  sim_.at(at, [this] {
    snapshot_model_->refresh(sim_.now());
    schedule_snapshot_refresh();
  });
}

RunMetrics SimulationRun::run() {
  if (ran_) throw std::logic_error("SimulationRun::run called twice");
  ran_ = true;

  // Snapshot chain for the sampled/stale load models: refreshes every
  // `period` of *simulated* time — freshness never depends on wall clock.
  if (snapshot_model_) schedule_snapshot_refresh();

  // Outage chains: first failures drawn up front in node-id order, before
  // any workload event fires.
  if (faults_) faults_->start();

  for (auto& source : local_sources_) source->start();
  if (global_source_) global_source_->start();
  if (trace_source_) trace_source_->start();

  if (cfg_.warmup > 0) {
    sim_.at(cfg_.warmup, [this] {
      metrics_.reset();
      for (auto& node : nodes_) node->reset_observation(sim_.now());
    });
  }

  sim_.run(cfg_.horizon);

  stats::Tally util, link_util;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const double u = nodes_[i]->utilization(cfg_.horizon);
    (i < cfg_.nodes ? util : link_util).add(u);
  }
  metrics_.mean_utilization = util.mean();
  metrics_.mean_link_utilization = link_util.mean();
  metrics_.events = sim_.executed();
  metrics_.observed_span = cfg_.horizon - cfg_.warmup;

  // End-of-run probe harvest (Config::probes). Pull-only: nothing here can
  // change the trajectory above, so a probed run's headline metrics are
  // bit-for-bit those of an unprobed one.
  if (cfg_.probes) {
    obs::Registry registry;
    obs::probe_run(*this, registry);
    metrics_.counters = registry.snapshot();
  }
  return metrics_;
}

RunMetrics simulate(const Config& config, std::uint64_t replication) {
  SimulationRun run(config, replication);
  return run.run();
}

}  // namespace dsrt::system
