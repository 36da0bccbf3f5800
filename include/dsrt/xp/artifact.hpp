#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsrt/engine/sweep.hpp"
#include "dsrt/xp/manifest.hpp"

namespace dsrt::xp {

/// One replication's headline values, exact: miss ratios, mean responses
/// and utilization as the run measured them, finished counts and events
/// as whole numbers. A point's means and half-widths derive from these.
struct RunRecord {
  double md_local = 0;
  double md_global = 0;
  double resp_local = 0;
  double resp_global = 0;
  double util = 0;
  double finished_local = 0;
  double finished_global = 0;
  double events = 0;
};

/// (JSON key, field) of every RunRecord value, in record order.
inline constexpr std::pair<const char*, double RunRecord::*> kRunFields[] = {
    {"md_local", &RunRecord::md_local},
    {"md_global", &RunRecord::md_global},
    {"resp_local", &RunRecord::resp_local},
    {"resp_global", &RunRecord::resp_global},
    {"util", &RunRecord::util},
    {"finished_local", &RunRecord::finished_local},
    {"finished_global", &RunRecord::finished_global},
    {"events", &RunRecord::events}};

/// One completed sweep point as stored in the result database: its stable
/// grid index, coordinates, a hash of the fully-expanded config (so stale
/// artifacts from an older grid definition are rejected, never silently
/// merged), the manifest's metrics, every replication's values and the
/// pooled engine counters. Every value round-trips bitwise through the
/// JSONL form (hexfloat strings). This line is the only machine-readable
/// run output of sim_cli and sweep_cli.
struct PointRecord {
  std::size_t index = 0;   ///< SweepPoint::ordinal — the harness-wide key
  std::size_t total = 0;   ///< points in the manifest's grid
  std::vector<std::string> labels;
  std::string config_hash; ///< point_config_hash of the expanded point
  std::uint64_t seed = 0;  ///< config seed the point ran with
  std::size_t replications = 0;
  double wall_seconds = 0;
  /// (name, value) in manifest metric order.
  std::vector<std::pair<std::string, double>> metrics;
  /// One entry per replication, in replication order.
  std::vector<RunRecord> runs;
  /// (name, pooled value) of the engine counters in name order; empty
  /// unless the run had probes.
  std::vector<std::pair<std::string, double>> counters;

  /// Value by metric name; nullptr when absent.
  const double* metric(std::string_view name) const;
};

/// Shortest exact hexfloat form of `v` ("%a"); parse_hexfloat inverts it
/// bit-for-bit. Throws std::runtime_error on non-numeric/trailing input.
std::string hexfloat(double v);
double parse_hexfloat(const std::string& text);

/// FNV-1a 64-bit over `data`, continuing from `basis` so field hashes
/// chain.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t basis = 0xcbf29ce484222325ull);

/// Stable identity of one expanded grid point: manifest name, replication
/// count, ordinal, axis labels, seed, and the config's self-description.
/// Any change to the grid definition changes this, which is exactly the
/// signal resume/merge/check use to refuse stale artifacts.
std::string point_config_hash(const Manifest& manifest,
                              const engine::SweepPoint& point);

/// Artifact file names under the run's --out directory.
std::string shard_file_name(const std::string& manifest,
                            std::size_t shard_index, std::size_t shard_count);
std::string merged_file_name(const std::string& manifest);

/// One JSONL line (no trailing newline) / its inverse. parse throws
/// std::runtime_error on malformed or incomplete records, on a schema
/// other than the current one, on a seed that is not a decimal uint64
/// and on an index, total or reps count that is not an integer below 2^53.
std::string artifact_line(const std::string& manifest,
                          const PointRecord& record);
PointRecord parse_artifact_line(const std::string& manifest,
                                const std::string& line);

/// Reads a shard JSONL file. Any truncated or corrupt line — including a
/// torn final line from an interrupted writer — is a clean
/// std::runtime_error naming the file and 1-based line number; no partial
/// result is returned.
std::vector<PointRecord> load_artifact_file(const std::string& manifest,
                                            const std::string& path);

/// Appends records to `path` (creates it when absent), one line per
/// record, flushed per line so an interrupted run loses at most the point
/// in flight. Throws std::runtime_error when the file cannot be written.
void append_artifact_records(const std::string& manifest,
                             const std::string& path,
                             const std::vector<PointRecord>& records);

/// Merges every `<manifest>.shard-*.jsonl` under `out_dir` into an
/// index-sorted, complete record set for the manifest's *current* grid:
/// throws std::runtime_error when a shard is corrupt, a config hash does
/// not match the current definition, an index is missing or out of range,
/// or two shards disagree about the same index: an Exact metric, a
/// replication's value or a counter (identical duplicates — an
/// overlapping re-run — are fine).
std::vector<PointRecord> merge_artifacts(const Manifest& manifest,
                                         const std::string& out_dir);

/// Writes `records` to `path`, replacing it, one line per record: the
/// merged set (`<out>/<manifest>.merged.jsonl`, the CI upload artifact)
/// or sim_cli's `--out` file. Throws std::runtime_error when the file
/// cannot be written.
void write_artifact_file(const std::string& manifest, const std::string& path,
                         const std::vector<PointRecord>& records);

}  // namespace dsrt::xp
