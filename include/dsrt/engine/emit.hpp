#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "dsrt/engine/runner.hpp"
#include "dsrt/stats/report.hpp"

namespace dsrt::engine {

/// Structured emitters for executed sweeps: one row/record per grid point,
/// axes first, then the headline estimates. Three forms of the same data —
/// aligned table for eyeballs, CSV for plotting, JSON for machines (the
/// trajectory the ROADMAP asks future PRs to compare against).

/// Human-readable table: axis columns + MD_local/MD_global/MD_overall (%,
/// with confidence half-widths), mean responses and utilization.
stats::Table sweep_table(const SweepResult& sweep);

/// CSV with numeric columns (means and half-widths separated) for plotting.
void write_sweep_csv(const SweepResult& sweep, std::ostream& os);

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

/// Full-fidelity JSON document: run control, axes, and per-point
/// estimates + per-replication raw headline metrics.
std::string sweep_json(const SweepResult& sweep);

/// Probes that `out_dir` accepts new files (creates and removes a scratch
/// file). Call before a long sweep whose artifacts land there, so a typo'd
/// --out fails in milliseconds instead of after the simulation. Throws
/// std::runtime_error when the directory is not writable.
void ensure_writable_dir(const std::string& out_dir);

/// Writes the long-format `<name>.csv` / `<name>.json` files under
/// `out_dir` as requested and returns the paths written (possibly empty).
/// Throws std::runtime_error when a file cannot be opened (sim_cli's
/// --emit).
std::vector<std::string> write_sweep_files(const std::string& name,
                                           const SweepResult& sweep,
                                           bool csv, bool json,
                                           const std::string& out_dir = ".");

}  // namespace dsrt::engine
