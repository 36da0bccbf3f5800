// xp layer: the sweep harness. Shard-spec parsing, manifest registry
// errors (incl. table-view validation), hexfloat round-trips, shard JSONL
// corruption handling, shard-union / resume / reproduce / table bitwise
// equivalence, and the tolerance-band checker naming the exact (manifest,
// index, metric) of every out-of-band point.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "dsrt/engine/sweep.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

namespace {

using namespace dsrt;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fresh directory under the test temp dir, empty at the start of the
/// test that asks for it.
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("xp_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A CI-cheap manifest over the real baseline: 3 loads x 2 strategies at a
/// tiny horizon. Small enough that the shard/resume/checker properties run
/// the full grid several times per test.
xp::Manifest tiny_manifest(const std::string& name = "tiny") {
  xp::Manifest m;
  m.name = name;
  m.description = "test grid";
  m.replications = 2;
  m.base = [] {
    system::Config cfg = system::baseline_ssp();
    cfg.horizon = 1500;
    return cfg;
  };
  m.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4", "0.5"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
    return grid;
  };
  m.metrics = xp::default_metrics();
  return m;
}

/// Metric order may differ between a fresh record (manifest order) and one
/// parsed back from JSONL (object-key order); identity is by name.
void expect_exact_metrics_equal(const xp::Manifest& manifest,
                                const xp::PointRecord& a,
                                const xp::PointRecord& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, value] : a.metrics) {
    const xp::MetricSpec* spec = manifest.metric(name);
    ASSERT_NE(spec, nullptr) << name;
    const double* other = b.metric(name);
    ASSERT_NE(other, nullptr) << name;
    if (spec->kind != xp::MetricSpec::Kind::Exact) continue;
    EXPECT_TRUE(bits_equal(value, *other))
        << name << " at index " << a.index << ": " << xp::hexfloat(value)
        << " vs " << xp::hexfloat(*other);
  }
}

// --- ShardSpec ------------------------------------------------------------

TEST(ShardSpec, ParsesStrictIOverN) {
  const xp::ShardSpec s = xp::ShardSpec::parse("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(xp::ShardSpec::parse("0/1").count, 1u);
}

TEST(ShardSpec, RejectsDegenerateAndMalformedSpecs) {
  for (const char* bad : {"0/0", "2/2", "3/2", "a/b", "1/", "/2", "1-2",
                          "", "1/2/3", "-1/2", "0x1/2", " 1/2", "1/2 "})
    EXPECT_THROW(xp::ShardSpec::parse(bad), std::invalid_argument) << bad;
}

TEST(ShardSpec, ShardsPartitionTheIndexSpace) {
  const std::size_t count = 3;
  for (std::size_t i = 0; i < 20; ++i) {
    std::size_t owners = 0;
    for (std::size_t s = 0; s < count; ++s)
      owners += xp::ShardSpec{s, count}.owns(i) ? 1 : 0;
    EXPECT_EQ(owners, 1u) << "index " << i;
  }
}

// --- Registry -------------------------------------------------------------

TEST(Registry, UnknownManifestErrorListsEveryRegisteredName) {
  xp::Registry registry;
  registry.add(tiny_manifest("alpha"));
  registry.add(tiny_manifest("beta"));
  try {
    registry.at("gamma");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown manifest"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  xp::Registry registry;
  registry.add(tiny_manifest("alpha"));
  EXPECT_THROW(registry.add(tiny_manifest("alpha")), std::invalid_argument);
  EXPECT_THROW(registry.add(tiny_manifest("")), std::invalid_argument);
}

TEST(Registry, RejectsViewsNamingUnknownAxesOrMetrics) {
  const auto with_view = [](xp::TableView view) {
    xp::Manifest m = tiny_manifest("viewed");
    m.views = {std::move(view)};
    return m;
  };
  xp::Registry registry;
  for (const xp::TableView& bad : std::vector<xp::TableView>{
           {"unknown row axis", {"nope"}, "ssp", "md_global"},
           {"unknown column axis", {"load"}, "nope", "md_global"},
           {"unknown metric", {"load"}, "ssp", "md_nope"},
           {"axis left out", {}, "ssp", "md_global"},
           {"axis placed twice", {"ssp"}, "ssp", "md_global"},
           {"banded metric", {"load"}, "ssp", "events_per_sec"}}) {
    EXPECT_THROW(registry.add(with_view(bad)), std::invalid_argument)
        << bad.title;
  }
  EXPECT_TRUE(registry.all().empty());
  registry.add(with_view({"ok", {"load"}, "ssp", "md_global"}));
  EXPECT_EQ(registry.all().size(), 1u);
}

TEST(Registry, BuiltinRegistryHoldsTheExperimentSurface) {
  for (const char* name : {"fig2_ssp", "fig3_frac_local", "fig4_psp",
                           "abl_rel_flex", "abl_scale_quick"}) {
    const xp::Manifest& manifest = xp::find_manifest(name);
    EXPECT_EQ(manifest.name, name);
    EXPECT_GT(manifest.points(), 0u);
    EXPECT_FALSE(manifest.metrics.empty());
  }
  // Every study prints something under `sweep_cli table`.
  for (const xp::Manifest& manifest : xp::builtin_registry().all())
    EXPECT_FALSE(manifest.views.empty()) << manifest.name;
  try {
    xp::find_manifest("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fig2_ssp"),
              std::string::npos);
  }
}

// --- hexfloat -------------------------------------------------------------

TEST(Hexfloat, RoundTripsBitwise) {
  std::mt19937_64 rng(7);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                                5e-324, 1.7976931348623157e308};
  for (int i = 0; i < 256; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (v != v) continue;  // hexfloat stores finite metric values
    values.push_back(v);
  }
  for (double v : values)
    EXPECT_TRUE(bits_equal(v, xp::parse_hexfloat(xp::hexfloat(v))))
        << xp::hexfloat(v);
}

TEST(Hexfloat, ParseRejectsGarbageAndTrailingInput) {
  for (const char* bad : {"", "xyz", "0x1p1garbage", "1.5 ", "0x"})
    EXPECT_THROW(xp::parse_hexfloat(bad), std::runtime_error) << bad;
}

// --- manifest expansion vs the figure grids -------------------------------

/// The built-in manifests must expand to exactly the published figure
/// grids (this pins the shape so a manifest edit is a conscious,
/// test-visible act).
TEST(Manifest, Fig2ExpansionMatchesTheBenchGridPointForPoint) {
  const xp::Manifest& manifest = xp::find_manifest("fig2_ssp");
  engine::SweepGrid bench_grid;
  bench_grid
      .axis(engine::SweepAxis::by_field("load",
                                        {"0.1", "0.2", "0.3", "0.4", "0.5"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "ED", "EQS", "EQF"}));

  const std::vector<engine::SweepPoint> expanded = manifest.expand();
  const std::vector<engine::SweepPoint> expected =
      bench_grid.expand(manifest.base());
  ASSERT_EQ(expanded.size(), expected.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(expanded[i].ordinal, i);
    EXPECT_EQ(expanded[i].labels, expected[i].labels);
    EXPECT_EQ(expanded[i].config.describe(), expected[i].config.describe());
  }
}

TEST(Manifest, Fig3AndFig4ExpansionsMatchTheBenchGrids) {
  {
    const xp::Manifest& manifest = xp::find_manifest("fig3_frac_local");
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field(
            "frac_local", {"0.1", "0.25", "0.5", "0.75", "0.9", "0.95"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
    const auto expanded = manifest.expand();
    const auto expected = grid.expand(manifest.base());
    ASSERT_EQ(expanded.size(), expected.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(expanded[i].labels, expected[i].labels);
      EXPECT_EQ(expanded[i].config.describe(),
                expected[i].config.describe());
    }
  }
  {
    const xp::Manifest& manifest = xp::find_manifest("fig4_psp");
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field(
            "load", {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6"}))
        .axis(engine::SweepAxis::by_field("psp",
                                          {"UD", "DIV1", "DIV2", "GF"}));
    const auto expanded = manifest.expand();
    const auto expected = grid.expand(manifest.base());
    ASSERT_EQ(expanded.size(), expected.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(expanded[i].labels, expected[i].labels);
      EXPECT_EQ(expanded[i].config.describe(),
                expected[i].config.describe());
    }
  }
}

// --- artifact corruption --------------------------------------------------

TEST(Artifact, TruncatedLineIsACleanErrorNamingFileAndLine) {
  const std::string dir = scratch_dir("truncated");
  const xp::Manifest manifest = tiny_manifest();
  const auto points = manifest.expand();
  xp::PointRecord good = xp::run_point(manifest, points[0], /*jobs=*/1);
  good.total = points.size();

  const std::string path = dir + "/" + xp::shard_file_name("tiny", 0, 1);
  {
    std::ofstream file(path);
    const std::string line = xp::artifact_line("tiny", good);
    file << line << '\n';
    // A torn final line: the writer died mid-record.
    file << line.substr(0, line.size() / 2);
  }
  try {
    xp::load_artifact_file("tiny", path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path + ":2"), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt shard record"), std::string::npos) << what;
  }

  // Resume refuses the same artifact before simulating anything.
  xp::RunManifestOptions options;
  options.out_dir = dir;
  options.resume = true;
  EXPECT_THROW(xp::run_manifest(manifest, options), std::runtime_error);
  // And merge never half-merges it.
  EXPECT_THROW(xp::merge_artifacts(manifest, dir), std::runtime_error);
}

TEST(Artifact, MergeRejectsStaleHashesConflictsAndGaps) {
  const std::string dir = scratch_dir("merge");
  const xp::Manifest manifest = tiny_manifest();
  const auto points = manifest.expand();

  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);

  // Complete single-shard run merges cleanly.
  EXPECT_EQ(xp::merge_artifacts(manifest, dir).size(), points.size());

  // A manifest whose definition drifted (different horizon -> different
  // config hashes) refuses the old artifacts.
  xp::Manifest drifted = tiny_manifest();
  drifted.base = [] {
    system::Config cfg = system::baseline_ssp();
    cfg.horizon = 1600;
    return cfg;
  };
  try {
    xp::merge_artifacts(drifted, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("config hash mismatch"),
              std::string::npos)
        << error.what();
  }

  // An overlapping shard with identical exact metrics is fine; one that
  // disagrees is a conflict naming both files.
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const std::string overlap = dir + "/" + xp::shard_file_name("tiny", 0, 3);
  xp::append_artifact_records("tiny", overlap, {merged[0]});
  EXPECT_EQ(xp::merge_artifacts(manifest, dir).size(), points.size());

  xp::PointRecord tampered = merged[0];
  tampered.metrics[0].second += 0.25;
  std::filesystem::remove(overlap);
  xp::append_artifact_records("tiny", overlap, {tampered});
  try {
    xp::merge_artifacts(manifest, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("overlapping shards disagree"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove(overlap);

  // A missing point is an incompleteness error listing the gap.
  const std::string shard0 = dir + "/" + xp::shard_file_name("tiny", 0, 1);
  std::vector<xp::PointRecord> partial(merged.begin(), merged.end() - 1);
  std::filesystem::remove(shard0);
  xp::append_artifact_records("tiny", shard0, partial);
  try {
    xp::merge_artifacts(manifest, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(points.size() - 1)),
              std::string::npos)
        << what;
  }
}

// --- shard union / resume / reproduce equivalences ------------------------

TEST(Runner, ShardUnionIsBitwiseIdenticalToTheUnshardedRun) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string whole_dir = scratch_dir("whole");
  const std::string shard_dir = scratch_dir("shards");

  xp::RunManifestOptions whole;
  whole.out_dir = whole_dir;
  const xp::RunSummary whole_summary = xp::run_manifest(manifest, whole);
  EXPECT_EQ(whole_summary.ran, manifest.points());

  for (std::size_t shard = 0; shard < 2; ++shard) {
    xp::RunManifestOptions options;
    options.shard = {shard, 2};
    options.out_dir = shard_dir;
    options.jobs = shard == 0 ? 1 : 2;  // job count never changes results
    xp::run_manifest(manifest, options);
  }

  const std::vector<xp::PointRecord> unsharded =
      xp::merge_artifacts(manifest, whole_dir);
  const std::vector<xp::PointRecord> sharded =
      xp::merge_artifacts(manifest, shard_dir);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (std::size_t i = 0; i < unsharded.size(); ++i) {
    EXPECT_EQ(unsharded[i].index, i);
    EXPECT_EQ(unsharded[i].labels, sharded[i].labels);
    EXPECT_EQ(unsharded[i].config_hash, sharded[i].config_hash);
    EXPECT_EQ(unsharded[i].seed, sharded[i].seed);
    expect_exact_metrics_equal(manifest, unsharded[i], sharded[i]);
  }
}

TEST(Runner, ResumeAfterInterruptionMatchesAFreshRun) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string fresh_dir = scratch_dir("fresh");
  const std::string resume_dir = scratch_dir("resume");

  xp::RunManifestOptions fresh;
  fresh.out_dir = fresh_dir;
  xp::run_manifest(manifest, fresh);

  xp::RunManifestOptions interrupted;
  interrupted.out_dir = resume_dir;
  xp::run_manifest(manifest, interrupted);

  // Interrupt at a line boundary: keep the first 3 completed points. (The
  // writer flushes per line, so a kill between points leaves exactly this.)
  const std::string path =
      resume_dir + "/" + xp::shard_file_name("tiny", 0, 1);
  std::vector<std::string> lines;
  {
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), manifest.points());
  {
    std::ofstream file(path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) file << lines[i] << '\n';
  }

  xp::RunManifestOptions resume;
  resume.out_dir = resume_dir;
  resume.resume = true;
  const xp::RunSummary summary = xp::run_manifest(manifest, resume);
  EXPECT_EQ(summary.resumed, 3u);
  EXPECT_EQ(summary.ran, manifest.points() - 3);

  const std::vector<xp::PointRecord> fresh_records =
      xp::merge_artifacts(manifest, fresh_dir);
  const std::vector<xp::PointRecord> resumed_records =
      xp::merge_artifacts(manifest, resume_dir);
  for (std::size_t i = 0; i < fresh_records.size(); ++i)
    expect_exact_metrics_equal(manifest, fresh_records[i],
                               resumed_records[i]);

  // A second resume finds everything done and simulates nothing.
  const xp::RunSummary idle = xp::run_manifest(manifest, resume);
  EXPECT_EQ(idle.resumed, manifest.points());
  EXPECT_EQ(idle.ran, 0u);
}

TEST(Runner, ReproduceReplaysRecordedPointsBitwiseAcrossManifests) {
  // Three differently-shaped manifests; for each, a full run followed by a
  // sampled single-point replay must agree bitwise on the exact metrics.
  std::vector<xp::Manifest> manifests;
  manifests.push_back(tiny_manifest("tiny_a"));

  xp::Manifest loads = tiny_manifest("tiny_loads");
  loads.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("load", {"0.3", "0.6"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "ED", "EQS"}));
    return grid;
  };
  manifests.push_back(std::move(loads));

  xp::Manifest psp = tiny_manifest("tiny_psp");
  psp.base = [] {
    system::Config cfg = system::baseline_psp();
    cfg.horizon = 1500;
    return cfg;
  };
  psp.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("psp", {"UD", "DIV1", "GF"}));
    return grid;
  };
  manifests.push_back(std::move(psp));

  for (const xp::Manifest& manifest : manifests) {
    const std::string dir = scratch_dir("reproduce_" + manifest.name);
    xp::RunManifestOptions options;
    options.out_dir = dir;
    xp::run_manifest(manifest, options);
    const std::vector<xp::PointRecord> merged =
        xp::merge_artifacts(manifest, dir);
    for (std::size_t index : {std::size_t{0}, manifest.points() - 1}) {
      const xp::PointRecord replay =
          xp::reproduce_point(manifest, index, /*jobs=*/2);
      EXPECT_EQ(replay.index, index);
      EXPECT_EQ(replay.config_hash, merged[index].config_hash);
      expect_exact_metrics_equal(manifest, merged[index], replay);
    }
  }

  EXPECT_THROW(xp::reproduce_point(manifests[0], manifests[0].points(), 1),
               std::invalid_argument);
}

// --- table ----------------------------------------------------------------

TEST(Table, GridRunMatchesRunPointAndRendersEveryView) {
  // The `sweep_cli table` path runs the whole grid in one engine sweep;
  // its cells must be exactly what run_point records and check verifies.
  xp::Manifest manifest = tiny_manifest();
  manifest.views = {{"MD_global (%)", {"load"}, "ssp", "md_global"},
                    {"events", {"ssp"}, "load", "events", false}};
  const xp::GridRun run = xp::run_grid(manifest, manifest.base(),
                                       manifest.replications, /*jobs=*/2);
  const std::vector<engine::SweepPoint> points = manifest.expand();
  ASSERT_EQ(run.records.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const xp::PointRecord single = xp::run_point(manifest, points[i], 1);
    EXPECT_EQ(run.records[i].index, i);
    EXPECT_EQ(run.records[i].labels, single.labels);
    expect_exact_metrics_equal(manifest, run.records[i], single);
  }

  const std::string text = xp::render_views(manifest, run);
  EXPECT_NE(text.find("MD_global (%)\n"), std::string::npos) << text;
  EXPECT_NE(text.find("events\n"), std::string::npos) << text;
  // Point 1 is (load 0.2, EQF): its percent cell and raw event count.
  EXPECT_NE(text.find(stats::Table::percent(
                *run.records[1].metric("md_global"), 1)),
            std::string::npos);
  EXPECT_NE(text.find(stats::Table::cell(*run.records[1].metric("events"),
                                         1)),
            std::string::npos);
}

// --- checker --------------------------------------------------------------

TEST(Checker, BlessCheckRoundTripPassesAndSurvivesTheJsonForm) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("bless");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  const std::vector<xp::PointRecord> merged =
      xp::merge_artifacts(manifest, dir);

  const xp::Expectations blessed = xp::make_expectations(manifest, merged);
  const std::string path = xp::write_expectations(blessed, dir);
  EXPECT_EQ(path, xp::expectations_path("tiny", dir));
  const xp::Expectations loaded = xp::load_expectations(path);

  EXPECT_EQ(loaded.manifest, blessed.manifest);
  EXPECT_EQ(loaded.points, blessed.points);
  ASSERT_EQ(loaded.bands.size(), blessed.bands.size());
  for (std::size_t i = 0; i < loaded.bands.size(); ++i) {
    EXPECT_EQ(loaded.bands[i].name, blessed.bands[i].name);
    EXPECT_EQ(loaded.bands[i].kind, blessed.bands[i].kind);
    EXPECT_EQ(loaded.bands[i].rel_tol, blessed.bands[i].rel_tol);
  }
  ASSERT_EQ(loaded.values.size(), blessed.values.size());
  for (std::size_t i = 0; i < loaded.values.size(); ++i) {
    EXPECT_EQ(loaded.values[i].config_hash, blessed.values[i].config_hash);
    ASSERT_EQ(loaded.values[i].metrics.size(),
              blessed.values[i].metrics.size());
    for (const auto& [name, value] : blessed.values[i].metrics) {
      const double* reloaded = loaded.values[i].metric(name);
      ASSERT_NE(reloaded, nullptr) << name;
      EXPECT_TRUE(bits_equal(*reloaded, value)) << name;
    }
  }

  const xp::CheckReport report =
      xp::check_records(manifest, merged, loaded);
  EXPECT_TRUE(report.ok()) << xp::format_report(report);
  EXPECT_EQ(report.points_checked, manifest.points());
  EXPECT_NE(xp::format_report(report).find("OK"), std::string::npos);
}

TEST(Checker, PerturbedExactMetricFailsNamingTheExactPoint) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("perturb");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const xp::Expectations expectations =
      xp::make_expectations(manifest, merged);

  // One ulp-scale nudge on one exact metric of one point must produce
  // exactly one failure carrying the full (manifest, index, metric)
  // coordinates. Grid order is last-axis-fastest: index 2 = (0.4, UD).
  for (auto& [name, value] : merged[2].metrics)
    if (name == "md_local") value += 1e-12;
  const xp::CheckReport report =
      xp::check_records(manifest, merged, expectations);
  ASSERT_EQ(report.failures.size(), 1u) << xp::format_report(report);
  EXPECT_EQ(report.manifest, "tiny");
  EXPECT_EQ(report.failures[0].index, 2u);
  EXPECT_EQ(report.failures[0].metric, "md_local");
  EXPECT_EQ(report.failures[0].point, "load=0.4, ssp=UD");
  EXPECT_NE(report.failures[0].detail.find("[exact]"), std::string::npos);
  const std::string rendered = xp::format_report(report);
  EXPECT_NE(rendered.find("tiny point 2 (load=0.4, ssp=UD) metric "
                          "md_local"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
}

TEST(Checker, RelativeBandAbsorbsNoiseButCatchesCollapse) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("band");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const xp::Expectations expectations =
      xp::make_expectations(manifest, merged);

  // 3x slower throughput sits inside the default order-of-magnitude band.
  for (auto& [name, value] : merged[4].metrics)
    if (name == "events_per_sec") value /= 3;
  EXPECT_TRUE(xp::check_records(manifest, merged, expectations).ok());

  // A 100x collapse does not.
  for (auto& [name, value] : merged[4].metrics)
    if (name == "events_per_sec") value /= 100;
  const xp::CheckReport report =
      xp::check_records(manifest, merged, expectations);
  ASSERT_EQ(report.failures.size(), 1u) << xp::format_report(report);
  EXPECT_EQ(report.failures[0].index, 4u);
  EXPECT_EQ(report.failures[0].metric, "events_per_sec");
  EXPECT_NE(report.failures[0].detail.find("[relative]"),
            std::string::npos);
}

TEST(Runner, EventsPerSecDividesByTheReplicationsRunTime) {
  // events_per_sec divides by the replications' own run time, not the
  // point's wall time: on one job their sum is at most the wall time, so
  // the figure is at least events over wall.
  const xp::Manifest manifest = tiny_manifest();
  const std::vector<engine::SweepPoint> points = manifest.expand();
  const xp::PointRecord record = xp::run_point(manifest, points[0], 1);
  const double* events = record.metric("events");
  const double* rate = record.metric("events_per_sec");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(rate, nullptr);
  ASSERT_GT(record.wall_seconds, 0.0);
  EXPECT_GT(*rate, 0.0);
  EXPECT_GE(*rate * record.wall_seconds, *events);
}

TEST(Checker, ConfigDriftAndStructuralMismatchesAreDistinct) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("drift");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  const std::vector<xp::PointRecord> merged =
      xp::merge_artifacts(manifest, dir);

  // Expectation blessed from an older definition -> per-point (config)
  // failure, pointing at re-bless.
  xp::Expectations stale = xp::make_expectations(manifest, merged);
  stale.values[1].config_hash = "0000000000000000";
  const xp::CheckReport report =
      xp::check_records(manifest, merged, stale);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 1u);
  EXPECT_EQ(report.failures[0].metric, "(config)");
  EXPECT_NE(report.failures[0].detail.find("re-bless"), std::string::npos);

  // Expectations for another manifest, or with a different point count,
  // are structurally unusable: throw, never a soft failure list.
  xp::Expectations wrong = xp::make_expectations(manifest, merged);
  wrong.manifest = "other";
  EXPECT_THROW(xp::check_records(manifest, merged, wrong),
               std::runtime_error);
  xp::Expectations shrunk = xp::make_expectations(manifest, merged);
  shrunk.values.pop_back();
  shrunk.points = shrunk.values.size();
  EXPECT_THROW(xp::check_records(manifest, merged, shrunk),
               std::runtime_error);
}

}  // namespace
