#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/engine/runner.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/manifest.hpp"

namespace dsrt::xp {

/// Which slice of a manifest's points this process runs: point `i` belongs
/// to shard `index` iff `i % count == index`, so shards stay balanced for
/// any grid shape and the union over 0..count-1 is exactly the grid.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Strict "I/N" parse: both decimal integers that fit a size_t, N >= 1,
  /// I < N. Throws std::invalid_argument on anything else ("0/0", "2/2",
  /// "a/b", "1/", a number past 2^64 - 1).
  static ShardSpec parse(std::string_view text);

  bool owns(std::size_t point_index) const {
    return point_index % count == index;
  }
};

/// Run options for one shard of one manifest.
struct RunManifestOptions {
  ShardSpec shard;
  std::string out_dir = ".";
  /// Worker threads for the replications of each point (0 = hardware
  /// concurrency). Results are identical for every value.
  std::size_t jobs = 1;
  /// Resume from an existing shard artifact: completed indices are
  /// verified (config hash, shard membership) and skipped; a corrupt or
  /// stale artifact is a clean error, never a half-merged run. Without
  /// resume an existing artifact is overwritten.
  bool resume = false;
  /// Optional per-point progress callback (CLI prints a line per point).
  std::function<void(const PointRecord&, bool resumed)> on_point;
};

/// Outcome of run_manifest.
struct RunSummary {
  std::string path;            ///< shard artifact written/extended
  std::size_t grid_points = 0; ///< points in the whole grid
  std::size_t shard_points = 0;///< points this shard owns
  std::size_t ran = 0;         ///< points simulated in this invocation
  std::size_t resumed = 0;     ///< completed points skipped via --resume
};

/// Executes one point of the manifest through engine::run (all
/// replications, any job count — bit-identical results) and evaluates the
/// manifest's metric selectors. The record is timed: wall_seconds is the
/// call's wall time, and Relative metrics see the replications' summed run
/// time. It is exactly what the shard artifact stores and what `reproduce`
/// must match bitwise on the Exact metrics.
PointRecord run_point(const Manifest& manifest,
                      const engine::SweepPoint& point, std::size_t jobs);

/// Runs the shard's points in index order, appending one JSONL record per
/// completed point (flushed per line, so an interruption costs at most the
/// point in flight). Throws std::runtime_error on artifact corruption or
/// config drift; std::invalid_argument on bad shard specs.
RunSummary run_manifest(const Manifest& manifest,
                        const RunManifestOptions& options);

/// Replays one grid point from the manifest definition (the recorded seed
/// lives in the expanded config, so this is the full provenance chain:
/// manifest + index -> config + seed -> bitwise metrics). Throws
/// std::invalid_argument when `index` is out of range.
PointRecord reproduce_point(const Manifest& manifest, std::size_t index,
                            std::size_t jobs = 1);

/// The records of a pooled grid run, one per point in grid order: what
/// sim_cli --out writes for the engine::run results of its grid. A pooled
/// run does not time single points, so wall_seconds is 0 and Relative
/// metrics see run_seconds = 0: the lines are the same bytes for every job
/// count. At the manifest's base() and replication count every Exact
/// metric is bitwise what run_point records.
std::vector<PointRecord> grid_records(
    const Manifest& manifest, std::vector<engine::PointResult> results);

/// Every view of the manifest over `results` (engine::run of its grid, in
/// grid order): its title line, then the pivot table (engine::pivot_table)
/// of the view's Exact metrics, each followed by a blank line. The cells
/// are the values the records hold.
std::string render_views(const Manifest& manifest,
                         const std::vector<engine::PointResult>& results);

}  // namespace dsrt::xp
