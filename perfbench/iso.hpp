// Isolated layer measurements of the traced program: layers without a public
// virtual seam (event queue, node, task instance, task generation) are
// timed on their own, sized from the workload, and reported in ns per
// operation (median of five calibrated batches).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsrt/system/config.hpp"
#include "dsrt/workload/generator.hpp"

namespace perfbench {

/// The global-task stream parameters SimulationRun derives from `cfg`.
dsrt::workload::GlobalTaskParams global_params(const dsrt::system::Config& cfg);

/// Hold model (Jones, CACM 1986) at a fixed pending depth: pop the earliest
/// event and push one at its time plus an Exp(depth) offset. Random offsets
/// land anywhere in the pending set, so every queue tier is measured at its
/// typical, not its worst-case, insertion point. ns per pop+push.
double queue_hold_ns(std::size_t depth, std::uint64_t seed);

/// One node under the workload's policy: submit four jobs, then run the
/// simulator until all four were dispatched and completed. ns per job.
double node_cycle_ns(const dsrt::system::Config& cfg, std::uint64_t seed);

/// One global task's lifecycle at the workload's k and placement: refill a
/// task spec in place, reset and start a TaskInstance, and complete its
/// leaves until the task finishes. ns per task.
double instance_ns(const dsrt::system::Config& cfg, std::uint64_t seed);

/// GlobalTaskSource::next_task at the workload's shape and k. ns per task.
double generate_ns(const dsrt::system::Config& cfg, std::uint64_t seed);

}  // namespace perfbench
