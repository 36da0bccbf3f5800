// sweep_cli — the front door of the sweep-harness result database
// (dsrt::xp): run a manifest's grid (sharded, resumable), check the merged
// artifacts against committed tolerance-banded expectations, bless new
// expectations, replay any single point bitwise from its seed, and print
// a manifest's figure/ablation tables.
//
//   sweep_cli list
//   sweep_cli run <manifest> [--shards=I/N] [--out=DIR] [--resume]
//                 [--jobs=N]
//   sweep_cli check <manifest>... [--out=DIR] [--expectations=DIR]
//   sweep_cli bless <manifest>... [--out=DIR] [--expectations=DIR]
//   sweep_cli reproduce <manifest> <index> [--out=DIR] [--jobs=N]
//                 [--metric=NAME]
//   sweep_cli table <manifest>... [--horizon=T] [--reps=R] [--jobs=N]
//
// run writes <out>/<manifest>.shard-I-of-N.jsonl (one JSONL record per
// completed point, flushed per point; --resume skips completed indices
// after verifying the artifact). check merges every shard, writes
// <out>/<manifest>.merged.jsonl, and diffs against
// <expectations>/<manifest>.json — exact metrics bitwise, banded metrics
// within tolerance — exiting nonzero with a report naming each offending
// (manifest, index, metric). reproduce re-runs one grid point from the
// manifest definition and, when shard artifacts are present under --out,
// asserts the exact metrics and every replication's values match the
// recorded ones bitwise. table runs
// the whole grid in one engine sweep and prints the manifest's views; with
// no overrides its cells are the values check verifies, and --horizon=1e6
// gives the paper-scale tables.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/util/flags.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

using namespace dsrt;

namespace {

const char* kUsage =
    "usage:\n"
    "  sweep_cli list\n"
    "  sweep_cli run <manifest> [--shards=I/N] [--out=DIR] [--resume] "
    "[--jobs=N]\n"
    "  sweep_cli check <manifest>... [--out=DIR] [--expectations=DIR]\n"
    "  sweep_cli bless <manifest>... [--out=DIR] [--expectations=DIR]\n"
    "  sweep_cli reproduce <manifest> <index> [--out=DIR] [--jobs=N] "
    "[--metric=NAME]\n"
    "  sweep_cli table <manifest>... [--horizon=T] [--reps=R] [--jobs=N]\n";

/// --jobs (default 1; 0 = one per hardware thread).
std::size_t jobs_flag(const util::Flags& flags) {
  const long jobs = flags.get("jobs", 1L);
  if (jobs < 0)
    throw std::invalid_argument("--jobs must be >= 0");
  return static_cast<std::size_t>(jobs);
}

std::string labels_of(const xp::PointRecord& record) {
  std::string out;
  for (std::size_t i = 0; i < record.labels.size(); ++i)
    out += (i ? "," : "") + record.labels[i];
  return out;
}

int cmd_list() {
  const xp::Registry& registry = xp::builtin_registry();
  for (const xp::Manifest& manifest : registry.all())
    std::printf("%-24s %4zu points x %zu reps  %s\n", manifest.name.c_str(),
                manifest.points(), manifest.replications,
                manifest.description.c_str());
  return 0;
}

int cmd_run(const util::Flags& flags,
            const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "run expects exactly one manifest\n%s", kUsage);
    return 2;
  }
  const xp::Manifest& manifest = xp::find_manifest(args[0]);
  xp::RunManifestOptions options;
  options.shard = xp::ShardSpec::parse(flags.get("shards", std::string("0/1")));
  options.out_dir = flags.get("out", std::string("."));
  options.jobs = jobs_flag(flags);
  options.resume = flags.get("resume", false);
  engine::ensure_writable_dir(options.out_dir);

  std::printf("manifest %s: %zu points x %zu reps, shard %zu/%zu%s\n",
              manifest.name.c_str(), manifest.points(),
              manifest.replications, options.shard.index,
              options.shard.count, options.resume ? " (resume)" : "");
  options.on_point = [&](const xp::PointRecord& record, bool resumed) {
    if (resumed)
      std::printf("  point %zu (%s): resumed from artifact\n", record.index,
                  labels_of(record).c_str());
    else
      std::printf("  point %zu (%s): %.2fs\n", record.index,
                  labels_of(record).c_str(), record.wall_seconds);
    std::fflush(stdout);
  };
  const xp::RunSummary summary = xp::run_manifest(manifest, options);
  std::printf("%s: ran %zu point(s), resumed %zu, shard owns %zu of %zu -> "
              "%s\n",
              manifest.name.c_str(), summary.ran, summary.resumed,
              summary.shard_points, summary.grid_points,
              summary.path.c_str());
  return 0;
}

int cmd_check(const util::Flags& flags,
              const std::vector<std::string>& args, bool bless) {
  if (args.empty()) {
    std::fprintf(stderr, "%s expects at least one manifest\n%s",
                 bless ? "bless" : "check", kUsage);
    return 2;
  }
  const std::string out_dir = flags.get("out", std::string("."));
  const std::string expectations_dir =
      flags.get("expectations", std::string("expectations"));
  bool all_ok = true;
  for (const std::string& name : args) {
    const xp::Manifest& manifest = xp::find_manifest(name);
    const std::vector<xp::PointRecord> merged =
        xp::merge_artifacts(manifest, out_dir);
    const std::string merged_path =
        out_dir + "/" + xp::merged_file_name(manifest.name);
    xp::write_artifact_file(manifest.name, merged_path, merged);
    if (bless) {
      const std::string path = xp::write_expectations(
          xp::make_expectations(manifest, merged), expectations_dir);
      std::printf("%s: blessed %zu points -> %s\n", manifest.name.c_str(),
                  merged.size(), path.c_str());
      continue;
    }
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(manifest.name, expectations_dir));
    const xp::CheckReport report =
        xp::check_records(manifest, merged, expectations);
    std::printf("%s", xp::format_report(report).c_str());
    std::printf("merged artifact: %s\n", merged_path.c_str());
    all_ok = all_ok && report.ok();
  }
  return all_ok ? 0 : 1;
}

int cmd_reproduce(const util::Flags& flags,
                  const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::fprintf(stderr, "reproduce expects <manifest> <index>\n%s", kUsage);
    return 2;
  }
  const xp::Manifest& manifest = xp::find_manifest(args[0]);
  std::size_t index = 0;
  try {
    std::size_t consumed = 0;
    index = std::stoul(args[1], &consumed);
    if (consumed != args[1].size()) throw std::invalid_argument(args[1]);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad point index '" + args[1] + "'");
  }
  const xp::PointRecord record =
      xp::reproduce_point(manifest, index, jobs_flag(flags));

  const std::string one_metric = flags.get("metric", std::string());
  if (!one_metric.empty()) {
    const double* value = record.metric(one_metric);
    if (!value) {
      std::string known;
      for (const auto& [name, v] : record.metrics)
        known += " " + name;
      throw std::invalid_argument("unknown metric: " + one_metric +
                                  " (known:" + known + ")");
    }
    std::printf("%.17g\n", *value);
    return 0;
  }

  std::printf("%s point %zu (%s), seed %llu, %zu reps:\n",
              manifest.name.c_str(), record.index,
              labels_of(record).c_str(),
              static_cast<unsigned long long>(record.seed),
              record.replications);
  for (const auto& [name, value] : record.metrics)
    std::printf("  %-16s %-24s (%.17g)\n", name.c_str(),
                xp::hexfloat(value).c_str(), value);

  // When the run's artifacts are on disk, assert the replay is bitwise
  // identical to what the full-grid run recorded.
  const std::string out_dir = flags.get("out", std::string("."));
  std::vector<xp::PointRecord> merged;
  try {
    merged = xp::merge_artifacts(manifest, out_dir);
  } catch (const std::exception&) {
    std::printf("(no complete artifacts under %s — nothing to compare)\n",
                out_dir.c_str());
    return 0;
  }
  const xp::PointRecord& recorded = merged[index];
  bool ok = true;
  for (const auto& [name, value] : record.metrics) {
    const xp::MetricSpec* spec = manifest.metric(name);
    if (spec && spec->kind != xp::MetricSpec::Kind::Exact) continue;
    const double* want = recorded.metric(name);
    if (!want || xp::hexfloat(*want) != xp::hexfloat(value)) {
      std::printf("MISMATCH %s: recorded %s, reproduced %s\n", name.c_str(),
                  want ? xp::hexfloat(*want).c_str() : "(missing)",
                  xp::hexfloat(value).c_str());
      ok = false;
    }
  }
  if (recorded.runs.size() != record.runs.size()) {
    std::printf("MISMATCH runs: recorded %zu, reproduced %zu\n",
                recorded.runs.size(), record.runs.size());
    ok = false;
  }
  for (std::size_t r = 0; r < recorded.runs.size() && r < record.runs.size();
       ++r) {
    for (const auto& [key, field] : xp::kRunFields) {
      const std::string want = xp::hexfloat(recorded.runs[r].*field);
      const std::string got = xp::hexfloat(record.runs[r].*field);
      if (want == got) continue;
      std::printf("MISMATCH run %zu %s: recorded %s, reproduced %s\n", r,
                  key, want.c_str(), got.c_str());
      ok = false;
    }
  }
  std::printf(ok ? "reproduce OK: exact metrics and every replication "
                   "bitwise-equal to the recorded run\n"
                 : "reproduce FAILED\n");
  return ok ? 0 : 1;
}

int cmd_table(const util::Flags& flags,
              const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "table expects at least one manifest\n%s", kUsage);
    return 2;
  }
  const std::size_t jobs = jobs_flag(flags);
  for (const std::string& name : args) {
    const xp::Manifest& manifest = xp::find_manifest(name);
    system::Config base = manifest.base();
    base.horizon = flags.get("horizon", base.horizon);
    const long reps =
        flags.get("reps", static_cast<long>(manifest.replications));
    if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
    const xp::GridRun run = xp::run_grid(
        manifest, base, static_cast<std::size_t>(reps), jobs);
    std::printf("== %s ==\n%s\n%zu points x %ld reps, horizon %g, "
                "%zu job(s): %.2fs\n\n%s",
                manifest.name.c_str(), manifest.description.c_str(),
                run.sweep.points.size(), reps, base.horizon, run.sweep.jobs,
                run.sweep.wall_seconds,
                xp::render_views(manifest, run).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::string> args = flags.positional();
  if (flags.has("help") || args.empty()) {
    std::printf("%s\nmanifests:\n", kUsage);
    cmd_list();
    return args.empty() && !flags.has("help") ? 2 : 0;
  }
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(flags, args);
    if (command == "check") return cmd_check(flags, args, /*bless=*/false);
    if (command == "bless") return cmd_check(flags, args, /*bless=*/true);
    if (command == "reproduce") return cmd_reproduce(flags, args);
    if (command == "table") return cmd_table(flags, args);
    std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                 kUsage);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_cli %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
