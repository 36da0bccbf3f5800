#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dsrt/engine/runner.hpp"
#include "dsrt/stats/report.hpp"

namespace dsrt::engine {

/// Human-readable tables of executed sweeps. The machine-readable form of a
/// run is the xp artifact line (xp::artifact_line), exact and per
/// replication; these tables round for reading.

/// Human-readable table: axis columns + MD_local/MD_global/MD_overall (%,
/// with confidence half-widths), mean responses and utilization.
stats::Table sweep_table(const SweepResult& sweep);

/// Pivot of a cartesian sweep into the layout the paper figures use: one
/// row per combination of the `rows` axes (first listed slowest, each in
/// grid order), one column per value of the `column` axis, cell text
/// produced by `cell` from that point's result. Throws
/// std::invalid_argument unless rows + column name every sweep axis
/// exactly once and the sweep covers the full cartesian grid.
stats::Table pivot_table(
    const SweepResult& sweep, const std::vector<std::string>& rows,
    const std::string& column,
    const std::function<std::string(const PointResult&)>& cell);

/// Probes that `out_dir` accepts new files (creates and removes a scratch
/// file). Call before a long sweep whose artifacts land there, so a typo'd
/// --out fails in milliseconds instead of after the simulation. Throws
/// std::runtime_error when the directory is not writable.
void ensure_writable_dir(const std::string& out_dir);

}  // namespace dsrt::engine
