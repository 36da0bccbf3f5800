// The committed expectation files (expectations/*.json) against the
// current built-in manifest definitions: every registered manifest has
// one, every file parses and covers its manifest's full current grid with
// matching config hashes (cheap — no simulation), sampled points
// reproduce bitwise from their seeds (the provenance chain the harness
// promises: manifest + index -> config + seed -> metrics), and the
// committed fault ladder degrades monotonically.
//
// DSRT_REPO_DIR points at the source tree (set by CMake) so the test runs
// from any build directory.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

namespace {

using namespace dsrt;

std::string expectations_dir() {
  return std::string(DSRT_REPO_DIR) + "/expectations";
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CommittedExpectations, EveryBuiltinManifestHasOne) {
  for (const std::string& name : xp::builtin_registry().names())
    EXPECT_TRUE(std::filesystem::exists(
        xp::expectations_path(name, expectations_dir())))
        << name << " has no committed expectations; run and bless it";
}

TEST(CommittedExpectations, CoverTheCurrentGridsWithMatchingHashes) {
  for (const std::string& name : xp::builtin_registry().names()) {
    if (!std::filesystem::exists(
            xp::expectations_path(name, expectations_dir())))
      continue;  // reported by EveryBuiltinManifestHasOne
    SCOPED_TRACE(name);
    const xp::Manifest& manifest = xp::find_manifest(name);
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(name, expectations_dir()));
    EXPECT_EQ(expectations.manifest, manifest.name);
    ASSERT_EQ(expectations.values.size(), manifest.points());

    // Bands mirror the manifest's metric declarations, in order.
    ASSERT_EQ(expectations.bands.size(), manifest.metrics.size());
    for (std::size_t i = 0; i < expectations.bands.size(); ++i) {
      EXPECT_EQ(expectations.bands[i].name, manifest.metrics[i].name);
      EXPECT_EQ(expectations.bands[i].kind, manifest.metrics[i].kind);
      EXPECT_EQ(expectations.bands[i].rel_tol, manifest.metrics[i].rel_tol);
      EXPECT_EQ(expectations.bands[i].abs_tol, manifest.metrics[i].abs_tol);
    }

    // Every committed point still describes the manifest's current grid:
    // same coordinates, same expanded-config identity. A mismatch here
    // means the definition changed without a re-bless.
    const std::vector<engine::SweepPoint> points = manifest.expand();
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(expectations.values[i].index, i);
      EXPECT_EQ(expectations.values[i].labels, points[i].labels);
      EXPECT_EQ(expectations.values[i].config_hash,
                xp::point_config_hash(manifest, points[i]))
          << "point " << i << " — manifest changed; re-bless";
      for (const xp::MetricSpec& metric : manifest.metrics)
        EXPECT_NE(expectations.values[i].metric(metric.name), nullptr)
            << metric.name;
    }
  }
}

TEST(CommittedExpectations, SampledPointsReproduceBitwiseFromTheirSeeds) {
  // One mid-grid point per figure manifest (kept small: this simulates).
  const std::pair<const char*, std::size_t> samples[] = {
      {"fig2_ssp", 7}, {"fig3_frac_local", 5}, {"fig4_psp", 13}};
  for (const auto& [name, index] : samples) {
    SCOPED_TRACE(std::string(name) + " index " + std::to_string(index));
    const xp::Manifest& manifest = xp::find_manifest(name);
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(name, expectations_dir()));
    ASSERT_LT(index, expectations.values.size());

    const xp::PointRecord replay =
        xp::reproduce_point(manifest, index, /*jobs=*/2);
    EXPECT_EQ(replay.config_hash, expectations.values[index].config_hash);
    for (const auto& [metric_name, value] : replay.metrics) {
      const xp::MetricSpec* spec = manifest.metric(metric_name);
      ASSERT_NE(spec, nullptr);
      if (spec->kind != xp::MetricSpec::Kind::Exact) continue;
      const double* expected =
          expectations.values[index].metric(metric_name);
      ASSERT_NE(expected, nullptr) << metric_name;
      EXPECT_TRUE(bits_equal(*expected, value))
          << metric_name << ": committed " << xp::hexfloat(*expected)
          << ", reproduced " << xp::hexfloat(value);
    }
  }
}

TEST(CommittedExpectations, FaultLadderDegradesMonotonically) {
  // Within every strategy/placement column of the committed abl_faults
  // grid, MD_overall must not fall as fault intensity rises. sweep-check
  // pins each fresh run bitwise to this file, so the property holds for
  // every pushed build.
  const xp::Manifest& manifest = xp::find_manifest("abl_faults");
  const xp::Expectations expectations = xp::load_expectations(
      xp::expectations_path("abl_faults", expectations_dir()));
  const engine::SweepGrid grid = manifest.grid();
  ASSERT_EQ(grid.axes().front().name, "faults");
  std::map<std::string, std::vector<double>> columns;
  for (const auto& point : expectations.values) {
    const double* md = point.metric("md_overall");
    ASSERT_NE(md, nullptr);
    columns[point.labels.back()].push_back(*md);  // grid order: faults slow
  }
  ASSERT_EQ(columns.size(), grid.axes().back().size());
  for (const auto& [column, md] : columns) {
    ASSERT_EQ(md.size(), grid.axes().front().size()) << column;
    for (std::size_t i = 1; i < md.size(); ++i)
      EXPECT_GE(md[i], md[i - 1])
          << column << ": MD_overall falls from fault level "
          << grid.axes().front().labels[i - 1] << " to "
          << grid.axes().front().labels[i];
  }
}

}  // namespace
