#pragma once

#include "dsrt/obs/registry.hpp"

namespace dsrt::system {
class SimulationRun;
}

namespace dsrt::obs {

/// Harvests the engine-wide passive counters of a finished (or paused)
/// simulation run into `registry` — the built-in probe set of the obs
/// subsystem. Pull-style: the hot layers only maintain plain increment
/// counters; this walks them once, so a run that never calls it pays
/// nothing beyond the increments.
///
/// Metrics registered (all prefixed by layer):
///   sim.events, sim.past_schedules, sim.queue.pushed,
///   sim.queue.max_pending (peak), sim.queue.mode_flips,
///   sim.queue.pending_at_end (gauge)
///   node.submitted/completed/aborted/preemptions (compute nodes),
///   node.max_ready_depth (peak), node.ready_depth (histogram of each
///   compute node's time-average ready depth over the observation window),
///   node.util (histogram of each compute node's utilization)
///   link.submitted/completed/aborted (when link nodes exist)
///   pool.slots (peak), pool.peak_live (peak), pool.live_at_end (gauge),
///   pool.recycled
///   load_model.reads, and for snapshot models load_model.refreshes +
///   load_model.mean_read_age (gauge)
///   placement.decisions/exact_ties/hint_fallbacks/restricted (when a
///   placement policy is wired), and for jsq policies
///   placement.index_zero_answers/index_tree_answers/index_flushed_leaves
///   (how the exact jsq-pex index answered)
///
/// `SimulationRun::run` calls this automatically into
/// `RunMetrics::counters` when `Config::probes` is set; tests and tools
/// may also call it directly on a hand-held run.
void probe_run(const system::SimulationRun& run, Registry& registry);

}  // namespace dsrt::obs
