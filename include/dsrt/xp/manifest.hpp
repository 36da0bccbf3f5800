#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/engine/runner.hpp"
#include "dsrt/engine/sweep.hpp"
#include "dsrt/system/config.hpp"

namespace dsrt::xp {

/// One checked metric of a sweep point, selected from the executed point
/// (engine::PointResult).
///
/// `Exact` metrics are deterministic functions of (config, seed) — miss
/// ratios, finished counts, event counts — and are recorded/compared
/// bitwise (hexfloat round-trip). `Relative` metrics are measurements of
/// the machine, not the model (events/second), and are compared against a
/// symmetric ratio band: pass when actual is within a factor of
/// (1 + rel_tol) of expected in either direction (same sign), or when
/// |actual - expected| <= abs_tol.
struct MetricSpec {
  enum class Kind { Exact, Relative };

  std::string name;
  Kind kind = Kind::Exact;
  double rel_tol = 0;
  double abs_tol = 0;
  std::function<double(const engine::PointResult&)> select;
};

/// The standard metric set shared by the built-in manifests: bitwise
/// md_local / md_global / md_overall / finished_local / finished_global /
/// events, plus a banded events_per_sec: events over the replications'
/// summed run time, so `--jobs` leaves it alone. The generous default band
/// (a factor of 10 in either direction) absorbs dev-box-vs-CI hardware
/// spread while still catching a catastrophic slowdown; tighten it per
/// manifest if blessed and checked on the same class of machine.
std::vector<MetricSpec> default_metrics(double ev_per_sec_rel_tol = 9.0);

/// One printed table of a manifest (`sweep_cli table`): each recorded
/// Exact metric of `metrics` pivoted into one row per combination of the
/// `rows` axes and one column per value of the `column` axis. Every grid
/// axis appears exactly once across rows + column. Several metrics stack
/// their rows in list order under a leading "metric" column (one row per
/// task width or stage). Cells show the recorded value — for the md
/// metrics the replication mean — with one decimal, in percent when
/// `percent`.
struct TableView {
  std::string title;
  std::vector<std::string> rows;
  std::string column;
  std::vector<std::string> metrics;
  bool percent = true;
};

/// A named, re-runnable experiment grid: everything `sweep_cli` needs to
/// run, shard, check, reproduce, and print it — base config, axes,
/// replication count, which metrics its result database records, and the
/// tables it renders. Each paper figure and ablation is declared here
/// once, so the checked surface and the printed tables can never drift
/// apart.
struct Manifest {
  std::string name;
  std::string description;
  std::size_t replications = 2;
  std::function<system::Config()> base;
  std::function<engine::SweepGrid()> grid;
  std::vector<MetricSpec> metrics;
  std::vector<TableView> views;

  /// Grid expansion over the base config, with every point validated.
  /// The point `ordinal` is the stable index the whole harness keys on
  /// (artifacts, expectations, `reproduce <manifest> <index>`).
  std::vector<engine::SweepPoint> expand() const;

  /// Number of points expand() produces (expands the grid; cheap, no
  /// simulation).
  std::size_t points() const;

  const MetricSpec* metric(std::string_view metric_name) const;
};

/// Name-keyed manifest collection. The built-in registry is the single
/// source of truth for the experiment surface; tests build private ones.
class Registry {
 public:
  /// Throws std::invalid_argument on duplicate or empty names, and on a
  /// view naming no metric, an unknown axis or metric, a non-Exact metric,
  /// or not placing every axis exactly once.
  void add(Manifest manifest);

  const Manifest* find(std::string_view name) const;

  /// Like find, but throws std::invalid_argument listing every registered
  /// name — the same registry-generated error vocabulary the sim_cli
  /// strategy parsers use.
  const Manifest& at(std::string_view name) const;

  std::vector<std::string> names() const;
  const std::vector<Manifest>& all() const { return manifests_; }

 private:
  std::vector<Manifest> manifests_;
};

/// The process-wide registry holding the built-in manifests (the paper
/// figures and every ablation grid, see src/xp/manifests.cpp), constructed
/// on first use.
Registry& builtin_registry();

/// `builtin_registry().at(name)`.
const Manifest& find_manifest(std::string_view name);

}  // namespace dsrt::xp
