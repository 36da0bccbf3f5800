#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/stats/histogram.hpp"
#include "dsrt/stats/tally.hpp"

namespace dsrt::obs {

/// How a metric's per-run values combine when replications are pooled.
enum class MetricKind : std::uint8_t {
  Counter,  ///< event count: values add
  Gauge,    ///< level at harvest time: values average, weighted by runs
  Peak,     ///< high-water mark: values max
};

const char* to_string(MetricKind kind);

/// Handle into a Registry; stable for the registry's lifetime. Hot-path
/// updates go through the id (one array index), never through the name.
using MetricId = std::size_t;

/// One harvested metric of one (or several merged) runs.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0;
  /// Runs pooled into this value (the gauge average's weight).
  std::uint64_t weight = 1;
};

/// The per-run result of a Registry: a flat, name-sorted list of metric
/// values. Carried by `system::RunMetrics` and pooled across replications
/// with the same exact-merge discipline as the headline metrics — merge is
/// performed in replication order, so `--jobs=1` and `--jobs=N` agree bit
/// for bit.
class Snapshot {
 public:
  bool empty() const { return metrics_.empty(); }
  std::size_t size() const { return metrics_.size(); }
  const std::vector<MetricValue>& metrics() const { return metrics_; }
  void clear() { metrics_.clear(); }

  /// nullptr when `name` was never harvested.
  const MetricValue* find(std::string_view name) const;
  /// Value of `name`, or `fallback` when absent.
  double value_or(std::string_view name, double fallback = 0) const;

  /// Inserts one value, keeping the name order sorted. Intended for the
  /// Registry's harvest; user code normally only reads snapshots.
  void insert(MetricValue value);

  /// Pools another snapshot: counters add, gauges average weighted by run
  /// count, peaks max. Metrics present on only one side are kept as-is.
  void merge(const Snapshot& other);

  /// `{"name":value,...}` in name order (counters/peaks as numbers, gauges
  /// as their pooled mean). NaN/Inf render as null, which JSON can hold.
  std::string json() const;

 private:
  std::vector<MetricValue> metrics_;  ///< sorted by name
};

/// Engine-wide metrics registry: counters, gauges and histograms registered
/// by name once (registration allocates), then updated by id with plain
/// array writes — allocation-free in steady state, so a registry can sit on
/// a hot path without violating the kernel's zero-allocation contract.
///
/// The repo's built-in probes (obs/probes.hpp) use it pull-style: the hot
/// layers keep cheap passive counters and the registry harvests them once
/// per run, so an unprobed run pays nothing beyond the counters themselves.
class Registry {
 public:
  Registry();

  /// Registers (or finds) a metric; same name + same kind returns the same
  /// id. Throws std::invalid_argument when the name is already registered
  /// with a different kind.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId peak(std::string_view name);

  /// Registers (or finds) a histogram over [0, width*bins); same geometry
  /// required on re-registration.
  MetricId histogram(std::string_view name, double width, std::size_t bins);

  void add(MetricId id, double delta) { scalars_[id].value += delta; }
  void set(MetricId id, double value) { scalars_[id].value = value; }
  void raise(MetricId id, double value) {
    if (value > scalars_[id].value) scalars_[id].value = value;
  }
  void observe(MetricId id, double value);

  double value(MetricId id) const { return scalars_[id].value; }
  std::size_t metric_count() const { return scalars_.size() + hists_.size(); }

  /// Flattens the registry into a mergeable snapshot. Scalars copy through;
  /// each histogram contributes `<name>.count` (counter) plus
  /// `<name>.mean`, `<name>.p50`, `<name>.p99` (gauges) and `<name>.max`
  /// (peak, the largest observed value) — the quantiles are bin-
  /// interpolated and clamped to the observed [min, max], and pool as
  /// means of per-run quantiles, which is approximate across replications.
  Snapshot snapshot() const;

  /// Drops all values (not the registrations).
  void reset_values();

 private:
  struct Scalar {
    std::string name;
    MetricKind kind;
    double value = 0;
  };
  struct Hist {
    std::string name;
    stats::Histogram hist;
    stats::Tally tally;
  };

  MetricId scalar_id(std::string_view name, MetricKind kind);

  std::vector<Scalar> scalars_;
  std::vector<Hist> hists_;
};

}  // namespace dsrt::obs
