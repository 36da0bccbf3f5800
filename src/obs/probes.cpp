#include "dsrt/obs/probes.hpp"

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/fault/injector.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/system/simulation.hpp"

namespace dsrt::obs {

void probe_run(const system::SimulationRun& run, Registry& reg) {
  const system::Config& cfg = run.config();
  const sim::Simulator& sim = run.simulator();
  const sim::EventQueue& queue = sim.queue();

  // --- sim: event kernel ---------------------------------------------------
  reg.set(reg.counter("sim.events"), static_cast<double>(sim.executed()));
  reg.set(reg.counter("sim.past_schedules"),
          static_cast<double>(sim.past_schedules()));
  reg.set(reg.counter("sim.queue.pushed"),
          static_cast<double>(queue.pushed()));
  reg.set(reg.peak("sim.queue.max_pending"),
          static_cast<double>(queue.max_pending()));
  reg.set(reg.counter("sim.queue.mode_flips"),
          static_cast<double>(queue.mode_flips()));
  reg.set(reg.counter("sim.queue.ladder_spills"),
          static_cast<double>(queue.ladder_spills()));
  reg.set(reg.counter("sim.queue.ladder_spilled"),
          static_cast<double>(queue.ladder_spilled()));
  reg.set(reg.counter("sim.queue.spill_fallbacks"),
          static_cast<double>(queue.spill_fallbacks()));
  reg.set(reg.counter("sim.queue.ladder_epochs"),
          static_cast<double>(queue.ladder_epochs()));
  reg.set(reg.gauge("sim.queue.pending_at_end"),
          static_cast<double>(queue.size()));

  // --- sched: nodes (compute separate from link) ---------------------------
  const MetricId submitted = reg.counter("node.submitted");
  const MetricId completed = reg.counter("node.completed");
  const MetricId aborted = reg.counter("node.aborted");
  const MetricId preemptions = reg.counter("node.preemptions");
  const MetricId max_ready = reg.peak("node.max_ready_depth");
  // Each node's time-average depth over the observation window; most sit
  // below 1, hence the fine bins.
  const MetricId depth_hist = reg.histogram("node.ready_depth", 0.05, 1280);
  const MetricId util_hist = reg.histogram("node.util", 0.02, 50);
  const auto& nodes = run.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const sched::Node& node = *nodes[i];
    if (i < cfg.nodes) {
      reg.add(submitted, static_cast<double>(node.jobs_submitted()));
      reg.add(completed, static_cast<double>(node.jobs_completed()));
      reg.add(aborted, static_cast<double>(node.jobs_aborted()));
      reg.add(preemptions, static_cast<double>(node.preemptions()));
      reg.raise(max_ready, static_cast<double>(node.max_queue_length()));
      reg.observe(depth_hist, node.mean_queue_length(sim.now()));
      reg.observe(util_hist, node.utilization(sim.now()));
    } else {
      reg.add(reg.counter("link.submitted"),
              static_cast<double>(node.jobs_submitted()));
      reg.add(reg.counter("link.completed"),
              static_cast<double>(node.jobs_completed()));
      reg.add(reg.counter("link.aborted"),
              static_cast<double>(node.jobs_aborted()));
    }
  }

  // --- workload: arrival processes (generated or replayed) -----------------
  {
    const MetricId events = reg.counter("arrivals.local_events");
    const MetricId tasks = reg.counter("arrivals.local_tasks");
    const MetricId max_batch = reg.peak("arrivals.max_batch");
    const MetricId phase_changes = reg.counter("arrivals.phase_changes");
    const MetricId rejects = reg.counter("arrivals.thinning_rejects");
    auto harvest = [&](const workload::ArrivalCounters& c) {
      reg.add(events, static_cast<double>(c.events));
      reg.add(tasks, static_cast<double>(c.tasks));
      reg.raise(max_batch, static_cast<double>(c.max_batch));
      reg.add(phase_changes, static_cast<double>(c.phase_changes));
      reg.add(rejects, static_cast<double>(c.thinning_rejects));
    };
    for (const auto& src : run.local_sources())
      harvest(src->process().counters());
    if (const workload::GlobalTaskSource* global = run.global_source()) {
      const workload::ArrivalCounters& c = global->process().counters();
      reg.set(reg.counter("arrivals.global_events"),
              static_cast<double>(c.events));
      reg.set(reg.counter("arrivals.global_tasks"),
              static_cast<double>(c.tasks));
    }
    if (const workload::TraceSource* trace = run.trace_source()) {
      harvest(trace->local_counters());
      const workload::ArrivalCounters& g = trace->global_counters();
      reg.set(reg.counter("arrivals.global_events"),
              static_cast<double>(g.events));
      reg.set(reg.counter("arrivals.global_tasks"),
              static_cast<double>(g.tasks));
    }
  }

  // --- system: instance pool ----------------------------------------------
  const system::ProcessManager& pm = run.process_manager();
  reg.set(reg.peak("pool.slots"), static_cast<double>(pm.pool_slots()));
  reg.set(reg.peak("pool.peak_live"),
          static_cast<double>(pm.pool_peak_live()));
  reg.set(reg.gauge("pool.live_at_end"),
          static_cast<double>(pm.live_instances()));
  reg.set(reg.counter("pool.recycled"),
          static_cast<double>(pm.pool_recycled()));

  // --- core: load-model freshness ------------------------------------------
  if (const auto* exact =
          dynamic_cast<const core::ExactLoadModel*>(run.load_model())) {
    reg.set(reg.counter("load_model.reads"),
            static_cast<double>(exact->reads()));
  } else if (const auto* snap = dynamic_cast<const core::SnapshotLoadModel*>(
                 run.load_model())) {
    reg.set(reg.counter("load_model.reads"),
            static_cast<double>(snap->reads()));
    reg.set(reg.counter("load_model.refreshes"),
            static_cast<double>(snap->refreshes()));
    reg.set(reg.gauge("load_model.mean_read_age"), snap->mean_read_age());
  }

  // --- core: placement decisions -------------------------------------------
  if (const core::PlacementPolicy* placement = run.placement()) {
    const core::PlacementCounters& c = placement->counters();
    reg.set(reg.counter("placement.decisions"),
            static_cast<double>(c.decisions));
    reg.set(reg.counter("placement.exact_ties"),
            static_cast<double>(c.exact_ties));
    reg.set(reg.counter("placement.hint_fallbacks"),
            static_cast<double>(c.hint_fallbacks));
    reg.set(reg.counter("placement.restricted"),
            static_cast<double>(c.restricted));
    if (const auto* jsq = dynamic_cast<const core::JsqPlacement*>(placement)) {
      const core::JsqPlacement::IndexCounters& ic = jsq->index_counters();
      reg.set(reg.counter("placement.index_zero_answers"),
              static_cast<double>(ic.zero_answers));
      reg.set(reg.counter("placement.index_tree_answers"),
              static_cast<double>(ic.tree_answers));
      reg.set(reg.counter("placement.index_flushed_leaves"),
              static_cast<double>(ic.flushed_leaves));
    }
  }

  // --- fault: injected failures and the reactions they triggered -----------
  if (const fault::FaultInjector* faults = run.fault_injector()) {
    reg.set(reg.counter("fault.crashes"),
            static_cast<double>(faults->crashes()));
    reg.set(reg.counter("fault.link_outages"),
            static_cast<double>(faults->link_outages()));
    reg.set(reg.counter("fault.recoveries"),
            static_cast<double>(faults->recoveries()));
    reg.set(reg.gauge("fault.downtime"), faults->downtime());
    reg.set(reg.counter("fault.straggled"),
            static_cast<double>(faults->straggled()));
    const MetricId orphans = reg.counter("fault.orphans");
    for (const auto& node : nodes)
      reg.add(orphans, static_cast<double>(node->jobs_failed()));
    reg.set(reg.counter("fault.retries"), static_cast<double>(pm.retries()));
    reg.set(reg.counter("fault.sheds"), static_cast<double>(pm.sheds()));
  }
}

}  // namespace dsrt::obs
