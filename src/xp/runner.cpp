#include "dsrt/xp/runner.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::xp {

namespace {

RunRecord run_record(const system::RunMetrics& run) {
  RunRecord record;
  record.md_local = run.local.missed.value();
  record.md_global = run.global.missed.value();
  record.resp_local = run.local.response.mean();
  record.resp_global = run.global.response.mean();
  record.util = run.mean_utilization;
  record.finished_local = static_cast<double>(run.local.missed.trials());
  record.finished_global = static_cast<double>(run.global.missed.trials());
  record.events = static_cast<double>(run.events);
  return record;
}

PointRecord make_record(const Manifest& manifest,
                        const engine::PointResult& executed,
                        double wall_seconds) {
  const engine::SweepPoint& point = executed.point;
  PointRecord record;
  record.index = point.ordinal;
  record.labels = point.labels;
  record.config_hash = point_config_hash(manifest, point);
  record.seed = point.config.seed;
  record.replications = executed.result.runs.size();
  record.wall_seconds = wall_seconds;
  for (const MetricSpec& metric : manifest.metrics)
    record.metrics.emplace_back(metric.name, metric.select(executed));
  for (const system::RunMetrics& replication : executed.result.runs)
    record.runs.push_back(run_record(replication));
  for (const obs::MetricValue& counter : executed.result.counters.metrics())
    record.counters.emplace_back(counter.name, counter.value);
  return record;
}

}  // namespace

ShardSpec ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  const auto index = util::parse_uint(text.substr(0, slash));
  const auto count = slash == std::string_view::npos
                         ? std::nullopt
                         : util::parse_uint(text.substr(slash + 1));
  if (!index || !count)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "' (expected I/N with decimal integers)");
  ShardSpec spec;
  spec.index = *index;
  spec.count = *count;
  if (spec.count == 0)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "': N must be >= 1");
  if (spec.index >= spec.count)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "': I must satisfy 0 <= I < N");
  return spec;
}

PointRecord run_point(const Manifest& manifest,
                      const engine::SweepPoint& point, std::size_t jobs) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<engine::PointResult> results =
      engine::run({point}, manifest.replications, jobs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return make_record(manifest, results.front(), wall);
}

RunSummary run_manifest(const Manifest& manifest,
                        const RunManifestOptions& options) {
  if (options.shard.count == 0 || options.shard.index >= options.shard.count)
    throw std::invalid_argument("run_manifest: bad shard " +
                                std::to_string(options.shard.index) + "/" +
                                std::to_string(options.shard.count));

  const std::vector<engine::SweepPoint> points = manifest.expand();
  const std::string path =
      options.out_dir + "/" +
      shard_file_name(manifest.name, options.shard.index,
                      options.shard.count);

  RunSummary summary;
  summary.path = path;
  summary.grid_points = points.size();

  // Which indices the artifact already holds. Resume verifies the whole
  // file up front — a truncated line or a record from an older grid
  // definition fails here, before anything is simulated or appended.
  std::vector<bool> completed(points.size(), false);
  if (options.resume && std::filesystem::exists(path)) {
    for (const PointRecord& record :
         load_artifact_file(manifest.name, path)) {
      if (record.index >= points.size() || record.total != points.size())
        throw std::runtime_error(
            path + ": record index " + std::to_string(record.index) + "/" +
            std::to_string(record.total) +
            " does not fit the current grid (" +
            std::to_string(points.size()) + " points) — stale artifact");
      if (!options.shard.owns(record.index))
        throw std::runtime_error(
            path + ": record index " + std::to_string(record.index) +
            " does not belong to shard " +
            std::to_string(options.shard.index) + "/" +
            std::to_string(options.shard.count));
      const std::string expected_hash =
          point_config_hash(manifest, points[record.index]);
      if (record.config_hash != expected_hash)
        throw std::runtime_error(
            path + ": config hash mismatch at index " +
            std::to_string(record.index) +
            " — the manifest definition changed; delete the artifact and "
            "re-run");
      if (completed[record.index])
        throw std::runtime_error(path + ": duplicate record for index " +
                                 std::to_string(record.index));
      completed[record.index] = true;
      ++summary.resumed;
      if (options.on_point) options.on_point(record, /*resumed=*/true);
    }
  } else {
    // Fresh run: start the artifact empty rather than appending to a
    // previous attempt's records.
    std::ofstream truncate(path, std::ios::trunc);
    if (!truncate)
      throw std::runtime_error("cannot open shard artifact " + path +
                               " for writing");
  }

  for (const engine::SweepPoint& point : points) {
    if (!options.shard.owns(point.ordinal)) continue;
    ++summary.shard_points;
    if (completed[point.ordinal]) continue;
    PointRecord record = run_point(manifest, point, options.jobs);
    record.total = points.size();
    append_artifact_records(manifest.name, path, {record});
    ++summary.ran;
    if (options.on_point) options.on_point(record, /*resumed=*/false);
  }
  return summary;
}

PointRecord reproduce_point(const Manifest& manifest, std::size_t index,
                            std::size_t jobs) {
  const std::vector<engine::SweepPoint> points = manifest.expand();
  if (index >= points.size())
    throw std::invalid_argument(
        "reproduce: index " + std::to_string(index) +
        " out of range (manifest '" + manifest.name + "' has " +
        std::to_string(points.size()) + " points)");
  PointRecord record = run_point(manifest, points[index], jobs);
  record.total = points.size();
  return record;
}

std::vector<PointRecord> grid_records(
    const Manifest& manifest, std::vector<engine::PointResult> results) {
  std::vector<PointRecord> records;
  records.reserve(results.size());
  for (engine::PointResult& executed : results) {
    executed.run_seconds = 0;
    records.push_back(make_record(manifest, executed, 0));
    records.back().total = results.size();
  }
  return records;
}

std::string render_views(const Manifest& manifest,
                         const std::vector<engine::PointResult>& results) {
  const std::vector<std::string> axes = manifest.grid().axis_names();
  std::ostringstream os;
  for (const TableView& view : manifest.views) {
    const MetricSpec* metric = manifest.metric(view.metric);
    if (!metric)
      throw std::invalid_argument("render_views: unknown metric '" +
                                  view.metric + "'");
    const auto cell = [&](const engine::PointResult& executed) {
      const double value = metric->select(executed);
      return view.percent ? stats::Table::percent(value, 1)
                          : stats::Table::cell(value, 1);
    };
    os << view.title << '\n';
    engine::pivot_table(axes, results, view.rows, view.column, cell)
        .print(os);
    os << '\n';
  }
  return os.str();
}

}  // namespace dsrt::xp
