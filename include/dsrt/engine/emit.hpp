#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dsrt/engine/runner.hpp"
#include "dsrt/stats/report.hpp"

namespace dsrt::engine {

/// Human-readable tables of executed grids. The machine-readable form of a
/// run is the xp artifact line (xp::artifact_line), exact and per
/// replication; these tables round for reading.

/// Human-readable table: one column per name in `axis_names` (the grid's
/// axis_names()), then MD_local/MD_global/MD_overall (%, with confidence
/// half-widths), mean responses and utilization; one row per point.
stats::Table sweep_table(const std::vector<std::string>& axis_names,
                         const std::vector<PointResult>& points);

/// Pivot of an executed cartesian grid (`axis_names` are its axis_names())
/// into the layout the paper figures use: one row per combination of the
/// `rows` axes (first listed slowest, each in grid order), one column per
/// value of the `column` axis, cell text produced by `cell` from that
/// point's result. Throws std::invalid_argument unless rows + column name
/// every axis exactly once and the points cover the full cartesian grid.
stats::Table pivot_table(
    const std::vector<std::string>& axis_names,
    const std::vector<PointResult>& points,
    const std::vector<std::string>& rows, const std::string& column,
    const std::function<std::string(const PointResult&)>& cell);

/// Probes that `out_dir` accepts new files (creates and removes a scratch
/// file). Call before a long sweep whose artifacts land there, so a typo'd
/// --out fails in milliseconds instead of after the simulation. Throws
/// std::runtime_error when the directory is not writable.
void ensure_writable_dir(const std::string& out_dir);

}  // namespace dsrt::engine
