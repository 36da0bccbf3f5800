// Traced program: per-layer numbers for one workload, measured from outside
// the library.
//
//   perfbench_traced --workload NAME --seed N --seconds S
//
// The run is rebuilt from the public classes (Simulator, Node, LoadBoard and
// ExactLoadModel, make_placement, ProcessManager, the two task sources) in
// the order SimulationRun wires them, with pass-through decorators on the
// public virtual seams: the SSP/PSP strategies, the placement policy, the
// load model, the distributions and arrival processes, and the observer. The
// workload sinks time ProcessManager::submit_*. Every call into a seam is
// counted; seams whose calls take well under a microsecond are timed on a
// fixed 1-in-16 subsample to keep the tracing overhead down. Each span knows
// its parent, so a seam's self time is its time minus that of the seams it
// called. Layers with no virtual seam are timed on their own (iso.hpp).
//
// Replication 0 is a discarded warm-up; replications 1, 2, ... run until S
// seconds of traced run time have passed. Each prints its model fingerprint,
// which must equal the untraced run's bit for bit (run.py compares
// them). Counts are those of replication 1; times cover every replication.
// The last line is one JSON object.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/stats/tally.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/workload/arrival.hpp"
#include "dsrt/workload/generator.hpp"
#include "harness.hpp"
#include "iso.hpp"
#include "workloads.hpp"

namespace {

using namespace dsrt;
using perfbench::now_ns;

enum Seam : std::size_t {
  kSubmitLocal,
  kSubmitGlobal,
  kAssign,
  kPlace,
  kLoad,
  kSample,
  kObserve,
  kSeams
};
/// Parent id of a span opened outside every other span.
constexpr std::size_t kTop = kSeams;
/// Timing period per seam: 1 = every call.
constexpr std::array<std::uint64_t, kSeams> kTimeEvery = {16, 1, 16, 1, 16, 16, 16};

/// Instrumentation cost of one empty span of each seam: `inner_ns` is what
/// a timed span records around nothing; `outer_ns` is what one call costs as
/// seen from outside, averaged over the seam's timing period.
struct Calibration {
  std::array<double, kSeams> inner_ns{};
  std::array<double, kSeams> outer_ns{};
};

/// Per-seam call counts and sampled times, plus which seam each call was
/// made from.
struct Trace {
  std::array<std::uint64_t, kSeams> calls{};
  std::array<std::uint64_t, kSeams> timed{};
  std::array<double, kSeams> timed_ns{};
  std::array<std::array<std::uint64_t, kSeams>, kSeams + 1> nested{};
  std::uint64_t candidates = 0;  ///< placement candidates offered

  void add(const Trace& o) {
    for (std::size_t s = 0; s < kSeams; ++s) {
      calls[s] += o.calls[s];
      timed[s] += o.timed[s];
      timed_ns[s] += o.timed_ns[s];
    }
    for (std::size_t p = 0; p <= kSeams; ++p)
      for (std::size_t s = 0; s < kSeams; ++s) nested[p][s] += o.nested[p][s];
    candidates += o.candidates;
  }
};

/// Self times estimated from a trace: a seam's sampled mean, less the
/// clock's own cost, scaled to all its calls, less the estimated time (and
/// instrumentation) of the seams it called. A cheap seam called in a tight
/// loop (load reads inside jsq) overlaps its calls in the pipeline, so its
/// sampled per-call latency can overstate its share of the caller; the
/// caller's self time is then clamped to 0.
class SelfTimes {
 public:
  SelfTimes(const Trace& t, const Calibration& c) : t_(t), c_(c) {}

  /// Mean time per call inside seam `s`, children included.
  double mean_ns(std::size_t s) const {
    if (t_.timed[s] == 0) return 0.0;
    const double mean = t_.timed_ns[s] / static_cast<double>(t_.timed[s]);
    return std::max(0.0, mean - c_.inner_ns[s]);
  }
  double self_per_call_ns(std::size_t s) const {
    if (t_.calls[s] == 0) return 0.0;
    double children = 0;
    for (std::size_t c = 0; c < kSeams; ++c)
      children += static_cast<double>(t_.nested[s][c]) * (mean_ns(c) + c_.outer_ns[c]);
    const double calls = static_cast<double>(t_.calls[s]);
    return std::max(0.0, mean_ns(s) - children / calls);
  }
  /// Share of the run, net of instrumentation, spent outside every span:
  /// what the spans opened from outside any other span do not cover. Every
  /// other span sits inside one of those, so its instrumentation is taken
  /// out of the covered time as well as out of the run.
  double residual_share(double run_ns) const {
    double covered = 0, nested = 0, instrumentation = 0;
    for (std::size_t s = 0; s < kSeams; ++s) {
      const double top = static_cast<double>(t_.nested[kTop][s]);
      covered += top * mean_ns(s);
      nested += (static_cast<double>(t_.calls[s]) - top) * c_.outer_ns[s];
      instrumentation += static_cast<double>(t_.calls[s]) * c_.outer_ns[s];
    }
    return 1.0 - (covered - nested) / (run_ns - instrumentation);
  }

 private:
  const Trace& t_;
  const Calibration& c_;
};

class Tracer {
 public:
  /// RAII span around one call into a seam.
  class Span {
   public:
    Span(Tracer& t, Seam s) : t_(t), s_(s) {
      if (t.depth_ == t.stack_.size()) throw std::logic_error("spans too deep");
      Trace& tr = t.trace_;
      const std::uint64_t n = tr.calls[s]++;
      ++tr.nested[t.depth_ ? t.stack_[t.depth_ - 1] : kTop][s];
      t.stack_[t.depth_++] = s;
      if (n % kTimeEvery[s] == 0) t0_ = now_ns();
    }
    ~Span() {
      if (t0_ >= 0) {
        t_.trace_.timed_ns[s_] += static_cast<double>(now_ns() - t0_);
        ++t_.trace_.timed[s_];
      }
      --t_.depth_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    Seam s_;
    std::int64_t t0_ = -1;
  };

  Trace& trace() { return trace_; }
  /// Hands out this replication's trace and starts a fresh one.
  Trace take() {
    Trace out = trace_;
    trace_ = Trace{};
    return out;
  }

 private:
  Trace trace_;
  std::array<std::size_t, 16> stack_{};
  std::size_t depth_ = 0;
};

using Span = Tracer::Span;

/// Times empty spans of every seam; median of five rounds.
Calibration calibrate() {
  constexpr int kCalls = 1 << 16;
  Calibration c;
  for (std::size_t s = 0; s < kSeams; ++s) {
    std::vector<double> inner, outer;
    for (int round = 0; round < 5; ++round) {
      Tracer t;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) Span span(t, static_cast<Seam>(s));
      outer.push_back(static_cast<double>(now_ns() - t0) / kCalls);
      const Trace& trace = t.trace();
      inner.push_back(trace.timed_ns[s] / static_cast<double>(trace.timed[s]));
    }
    c.inner_ns[s] = perfbench::median(inner);
    c.outer_ns[s] = perfbench::median(outer);
  }
  return c;
}

// --- decorators --------------------------------------------------------------

class TracedSerial final : public core::SerialStrategy {
 public:
  TracedSerial(core::SerialStrategyPtr inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  sim::Time assign(const core::SerialContext& ctx) const override {
    Span span(t_, kAssign);
    return inner_->assign(ctx);
  }
  std::string_view name() const override { return inner_->name(); }
  bool wants_downstream_load() const override {
    return inner_->wants_downstream_load();
  }

 private:
  core::SerialStrategyPtr inner_;
  Tracer& t_;
};

class TracedParallel final : public core::ParallelStrategy {
 public:
  TracedParallel(core::ParallelStrategyPtr inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  core::ParallelAssignment assign(const core::ParallelContext& ctx) const override {
    Span span(t_, kAssign);
    return inner_->assign(ctx);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  core::ParallelStrategyPtr inner_;
  Tracer& t_;
};

class TracedPlacement final : public core::PlacementPolicy {
 public:
  TracedPlacement(core::PlacementPolicyPtr inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  core::NodeId place(const core::PlacementContext& ctx,
                     std::span<const core::NodeId> candidates) const override {
    Span span(t_, kPlace);
    t_.trace().candidates += candidates.size();
    return inner_->place(ctx, candidates);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  core::PlacementPolicyPtr inner_;
  Tracer& t_;
};

class TracedLoadModel final : public core::LoadModel {
 public:
  TracedLoadModel(const core::LoadModel& inner, Tracer& t) : inner_(inner), t_(t) {}
  core::NodeLoad load(core::NodeId node, sim::Time now) const override {
    Span span(t_, kLoad);
    return inner_.load(node, now);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  const core::LoadModel& inner_;
  Tracer& t_;
};

class TracedDistribution final : public sim::Distribution {
 public:
  TracedDistribution(sim::DistributionPtr inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}
  double sample(sim::Rng& rng) const override {
    Span span(t_, kSample);
    return inner_->sample(rng);
  }
  double mean() const override { return inner_->mean(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  sim::DistributionPtr inner_;
  Tracer& t_;
};

class TracedArrival final : public workload::ArrivalProcess {
 public:
  TracedArrival(workload::ArrivalProcessPtr inner, Tracer& t)
      : ArrivalProcess(inner->rate()), inner_(std::move(inner)), t_(t) {}
  sim::Time next_gap(sim::Time now, sim::Rng& rng) override {
    Span span(t_, kSample);
    return inner_->next_gap(now, rng);
  }
  std::size_t batch_size(sim::Rng& rng) override {
    return inner_->batch_size(rng);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  workload::ArrivalProcessPtr inner_;
  Tracer& t_;
};

class TracedObserver final : public system::Observer {
 public:
  TracedObserver(system::Observer& inner, Tracer& t) : inner_(inner), t_(t) {}
  void on_local_submitted(core::NodeId node, const sched::Job& job,
                          sim::Time now) override {
    Span span(t_, kObserve);
    inner_.on_local_submitted(node, job, now);
  }
  void on_global_arrival(core::TaskId task, const core::TaskSpec& spec,
                         sim::Time now, sim::Time deadline) override {
    Span span(t_, kObserve);
    inner_.on_global_arrival(task, spec, now, deadline);
  }
  void on_subtask_submitted(core::TaskId task, const core::LeafSubmission& sub,
                            sim::Time now) override {
    Span span(t_, kObserve);
    inner_.on_subtask_submitted(task, sub, now);
  }
  void on_job_disposed(const sched::Job& job, sim::Time now,
                       sched::JobOutcome outcome) override {
    Span span(t_, kObserve);
    inner_.on_job_disposed(job, now, outcome);
  }
  void on_global_finished(core::TaskId task, sim::Time now, bool missed) override {
    Span span(t_, kObserve);
    inner_.on_global_finished(task, now, missed);
  }
  void on_global_aborted(core::TaskId task, sim::Time now) override {
    Span span(t_, kObserve);
    inner_.on_global_aborted(task, now);
  }
  void on_global_failed(core::TaskId task, sim::Time now) override {
    Span span(t_, kObserve);
    inner_.on_global_failed(task, now);
  }
  void on_global_shed(core::TaskId task, sim::Time now) override {
    Span span(t_, kObserve);
    inner_.on_global_shed(task, now);
  }

 private:
  system::Observer& inner_;
  Tracer& t_;
};

// --- the rebuilt run -----------------------------------------------------------

/// SimulationRun's per-replication seed mix.
std::uint64_t replication_seed(std::uint64_t base, std::uint64_t replication) {
  return base ^ (0xd1b54a32d192ed03ULL * (replication + 1));
}
constexpr std::uint64_t kGlobalStream = 1;
constexpr std::uint64_t kLocalStreamBase = 100;

struct Replication {
  perfbench::RepRecord rec;
  // Layer state at the end of the run.
  std::uint64_t pending_max = 0;
  std::uint64_t jobs = 0;
  std::uint64_t ready_max = 0;
  std::uint64_t pool_peak = 0;
};

Replication run_traced(const perfbench::Workload& w, std::uint64_t index,
                       Tracer& tracer) {
  const system::Config& cfg = w.config;
  if (cfg.faults.any() || cfg.warmup > 0 || !cfg.trace.empty() ||
      (cfg.load_model.kind != core::LoadModelKind::None &&
       cfg.load_model.kind != core::LoadModelKind::Exact))
    throw std::invalid_argument("the traced rebuild does not wire this config");
  const std::uint64_t seed = replication_seed(cfg.seed, index);
  const std::size_t total = cfg.nodes + cfg.link_nodes;

  sim::Simulator sim;
  sim.configure_queue(cfg.event_queue, 2 * total + 64);
  std::vector<std::unique_ptr<sched::Node>> nodes;
  nodes.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    nodes.push_back(std::make_unique<sched::Node>(
        static_cast<core::NodeId>(i), sim, cfg.policy, cfg.abort_policy,
        cfg.preemption));
    nodes.back()->reserve_ready(total >= 1024 ? 128 : 64);
  }

  core::LoadBoard board;
  std::unique_ptr<core::ExactLoadModel> exact;
  std::unique_ptr<TracedLoadModel> load;
  if (cfg.load_model.kind == core::LoadModelKind::Exact) {
    board.resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      board[i].configure(cfg.load_model.ewma_tau, sim.now());
      nodes[i]->attach_load_account(&board[i]);
    }
    exact = std::make_unique<core::ExactLoadModel>(board);
    load = std::make_unique<TracedLoadModel>(*exact, tracer);
  }
  std::unique_ptr<TracedPlacement> placement;
  if (cfg.placement.kind != core::PlacementKind::Static)
    placement = std::make_unique<TracedPlacement>(
        core::make_placement(cfg.placement, seed), tracer);

  core::SerialStrategyPtr ssp = cfg.ssp->clone_for_run();
  core::ParallelStrategyPtr psp = cfg.psp->clone_for_run();
  system::RunMetrics metrics;
  system::ProcessManager pm(
      sim, nodes, std::make_shared<TracedSerial>(ssp ? ssp : cfg.ssp, tracer),
      std::make_shared<TracedParallel>(psp ? psp : cfg.psp, tracer), metrics,
      load.get(), placement.get(), nullptr);
  pm.reserve_for_scale(total);

  std::unique_ptr<perfbench::Observers> observers;
  std::unique_ptr<TracedObserver> observer;
  if (w.observed) {
    observers = std::make_unique<perfbench::Observers>(cfg.nodes);
    observer = std::make_unique<TracedObserver>(observers->tee, tracer);
    pm.set_observer(observer.get());
  }

  auto local_sink = [&](core::NodeId node, double exec, double pex,
                        sim::Time deadline) {
    Span span(tracer, kSubmitLocal);
    pm.submit_local(node, exec, pex, deadline);
  };
  auto global_sink = [&](const core::TaskSpec& spec, sim::Time deadline) {
    Span span(tracer, kSubmitGlobal);
    pm.submit_global(spec, deadline);
  };
  const auto traced = [&](const sim::DistributionPtr& d) -> sim::DistributionPtr {
    return std::make_shared<TracedDistribution>(d, tracer);
  };

  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  const double total_rate = cfg.lambda_local_total() / cfg.arrivals.batch_mean();
  double weight_sum = 0;
  for (double x : cfg.local_weights) weight_sum += x;
  const sim::DistributionPtr local_exec = traced(cfg.local_exec);
  const sim::DistributionPtr local_slack = traced(cfg.local_slack);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const double share = cfg.local_weights.empty()
                             ? 1.0 / static_cast<double>(cfg.nodes)
                             : cfg.local_weights[i] / weight_sum;
    locals.push_back(std::make_unique<workload::LocalTaskSource>(
        sim, static_cast<core::NodeId>(i),
        std::make_unique<TracedArrival>(
            workload::make_arrival_process(cfg.arrivals, total_rate * share),
            tracer),
        local_exec, local_slack, cfg.pex_error,
        sim::Rng(seed, kLocalStreamBase + i), cfg.horizon, local_sink));
  }
  workload::GlobalTaskParams params = perfbench::global_params(cfg);
  params.exec = traced(params.exec);
  params.slack = traced(params.slack);
  workload::GlobalTaskSource global(
      sim, std::move(params),
      std::make_unique<TracedArrival>(
          workload::make_arrival_process(cfg.arrivals.for_globals(),
                                         cfg.lambda_global(),
                                         cfg.periodic_globals),
          tracer),
      sim::Rng(seed, kGlobalStream), cfg.horizon, global_sink);

  for (auto& source : locals) source->start();
  global.start();

  Replication rep;
  rep.rec.index = index;
  const std::int64_t t0 = now_ns();
  sim.run(cfg.horizon);
  rep.rec.run_s = static_cast<double>(now_ns() - t0) * 1e-9;

  stats::Tally util;
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    util.add(nodes[i]->utilization(cfg.horizon));
  metrics.mean_utilization = util.mean();
  metrics.events = sim.executed();
  rep.rec.events = sim.executed();
  rep.rec.fingerprint = perfbench::fingerprint(metrics, rep.rec.events);

  perfbench::RunState state;
  state.load = cfg.load;
  state.util_tolerance = w.util_tolerance;
  state.live_globals = pm.live_instances();
  for (const auto& node : nodes) {
    state.jobs_at_nodes += node->queue_length() + (node->busy() ? 1 : 0);
    rep.jobs += node->jobs_submitted();
    rep.ready_max = std::max<std::uint64_t>(rep.ready_max, node->max_queue_length());
  }
  std::string& failure = rep.rec.failure;
  failure = perfbench::check_run(metrics, state);
  if (failure.empty() && observers) failure = observers->check(metrics);
  rep.pending_max = sim.queue().max_pending();
  rep.pool_peak = pm.pool_peak_live();
  return rep;
}

int run(const perfbench::Args& args) {
  if (args.seconds <= 0 || args.reps)
    throw std::invalid_argument("the traced run takes --seconds, not --reps");
  const perfbench::Workload w = perfbench::make_workload(args.workload, args.seed);
  Tracer tracer;

  const Replication warm = run_traced(w, 0, tracer);
  tracer.take();
  perfbench::print_fingerprint(w.name, warm.rec);

  std::vector<Replication> reps;
  std::vector<perfbench::RepRecord> records;
  Trace first, all;
  double run_s = 0;
  for (std::uint64_t index = 1; run_s < args.seconds; ++index) {
    reps.push_back(run_traced(w, index, tracer));
    const Trace trace = tracer.take();
    if (index == 1) first = trace;
    all.add(trace);
    records.push_back(reps.back().rec);
    perfbench::print_fingerprint(w.name, records.back());
    run_s += records.back().run_s;
  }
  const Replication& r1 = reps.front();
  const Calibration calibration = calibrate();
  const SelfTimes self(all, calibration);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  perfbench::MetricsJson m;
  m.add("sim.events", count(r1.rec.events), "count");
  m.add("sim.pending_max", count(r1.pending_max), "count");
  m.add("sim.queue.ns", perfbench::queue_hold_ns(r1.pending_max, args.seed), "ns");
  m.add("sched.jobs", count(r1.jobs), "count");
  m.add("sched.ready_max", count(r1.ready_max), "count");
  m.add("sched.node.ns", perfbench::node_cycle_ns(w.config, args.seed), "ns");
  m.add("core.assign.calls", count(first.calls[kAssign]), "count");
  m.add("core.assign.ns", self.self_per_call_ns(kAssign), "ns");
  m.add("core.place.calls", count(first.calls[kPlace]), "count");
  m.add("core.place.ns", self.self_per_call_ns(kPlace), "ns");
  m.add("core.place.candidates",
        first.calls[kPlace] ? count(first.candidates) / count(first.calls[kPlace]) : 0.0,
        "count");
  m.add("core.load.reads", count(first.calls[kLoad]), "count");
  m.add("core.load.ns", self.self_per_call_ns(kLoad), "ns");
  m.add("core.load.reads_per_place",
        first.calls[kPlace]
            ? count(first.nested[kPlace][kLoad]) / count(first.calls[kPlace])
            : 0.0,
        "count");
  m.add("core.instance.ns", perfbench::instance_ns(w.config, args.seed), "ns");
  m.add("workload.sample.draws", count(first.calls[kSample]), "count");
  m.add("workload.sample.ns", self.self_per_call_ns(kSample), "ns");
  m.add("workload.generate.ns", perfbench::generate_ns(w.config, args.seed), "ns");
  m.add("system.submit_local.calls", count(first.calls[kSubmitLocal]), "count");
  m.add("system.submit_local.ns", self.self_per_call_ns(kSubmitLocal), "ns");
  m.add("system.submit_global.calls", count(first.calls[kSubmitGlobal]), "count");
  m.add("system.submit_global.ns", self.self_per_call_ns(kSubmitGlobal), "ns");
  m.add("system.pool_peak", count(r1.pool_peak), "count");
  m.add("obs.observe.calls", count(first.calls[kObserve]), "count");
  m.add("obs.observe.ns", self.self_per_call_ns(kObserve), "ns");
  m.add("trace.residual_share", self.residual_share(run_s * 1e9), "ratio");

  perfbench::print_report(w.name, warm.rec, records, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_traced: %s\n", error.what());
    return 1;
  }
}
