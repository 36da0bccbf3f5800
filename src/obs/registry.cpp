#include "dsrt/obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dsrt::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Peak: return "peak";
  }
  return "?";
}

const MetricValue* Snapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it == metrics_.end() || it->name != name) return nullptr;
  return &*it;
}

double Snapshot::value_or(std::string_view name, double fallback) const {
  const MetricValue* m = find(name);
  return m ? m->value : fallback;
}

void Snapshot::insert(MetricValue value) {
  const auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), value.name,
      [](const MetricValue& m, const std::string& n) { return m.name < n; });
  if (it != metrics_.end() && it->name == value.name)
    throw std::invalid_argument("Snapshot: duplicate metric '" + value.name +
                                "'");
  metrics_.insert(it, std::move(value));
}

void Snapshot::merge(const Snapshot& other) {
  for (const MetricValue& theirs : other.metrics_) {
    const auto it = std::lower_bound(
        metrics_.begin(), metrics_.end(), theirs.name,
        [](const MetricValue& m, const std::string& n) { return m.name < n; });
    if (it == metrics_.end() || it->name != theirs.name) {
      metrics_.insert(it, theirs);
      continue;
    }
    if (it->kind != theirs.kind)
      throw std::invalid_argument("Snapshot: metric '" + theirs.name +
                                  "' merged across kinds");
    switch (it->kind) {
      case MetricKind::Counter:
        it->value += theirs.value;
        break;
      case MetricKind::Gauge: {
        const double w = static_cast<double>(it->weight);
        const double v = static_cast<double>(theirs.weight);
        it->value = (it->value * w + theirs.value * v) / (w + v);
        break;
      }
      case MetricKind::Peak:
        it->value = std::max(it->value, theirs.value);
        break;
    }
    it->weight += theirs.weight;
  }
}

std::string Snapshot::json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    os << (i ? "," : "") << '"' << m.name << "\":";
    if (std::isnan(m.value) || std::isinf(m.value)) {
      os << "null";
    } else {
      os << m.value;
    }
  }
  os << '}';
  return os.str();
}

Registry::Registry() {
  scalars_.reserve(32);
  hists_.reserve(4);
}

MetricId Registry::scalar_id(std::string_view name, MetricKind kind) {
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    if (scalars_[i].name == name) {
      if (scalars_[i].kind != kind)
        throw std::invalid_argument("Registry: metric '" + std::string(name) +
                                    "' re-registered with different kind");
      return i;
    }
  }
  scalars_.push_back(Scalar{std::string(name), kind, 0});
  return scalars_.size() - 1;
}

MetricId Registry::counter(std::string_view name) {
  return scalar_id(name, MetricKind::Counter);
}

MetricId Registry::gauge(std::string_view name) {
  return scalar_id(name, MetricKind::Gauge);
}

MetricId Registry::peak(std::string_view name) {
  return scalar_id(name, MetricKind::Peak);
}

MetricId Registry::histogram(std::string_view name, double width,
                             std::size_t bins) {
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].name == name) {
      if (hists_[i].hist.bin_width() != width || hists_[i].hist.bins() != bins)
        throw std::invalid_argument("Registry: histogram '" +
                                    std::string(name) +
                                    "' re-registered with different geometry");
      return i;
    }
  }
  hists_.push_back(Hist{std::string(name), stats::Histogram(width, bins),
                        stats::Tally{}});
  return hists_.size() - 1;
}

void Registry::observe(MetricId id, double value) {
  hists_[id].hist.add(value);
  hists_[id].tally.add(value);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  for (const Scalar& s : scalars_)
    snap.insert(MetricValue{s.name, s.kind, s.value, 1});
  for (const Hist& h : hists_) {
    // Bin interpolation can land outside the observed range (one sample of
    // 0 reads as p50 = half a bin); a quantile never leaves [min, max].
    const auto quantile = [&h](double q) {
      const double v = h.hist.quantile(q);
      return h.tally.empty() ? v
                             : std::clamp(v, h.tally.min(), h.tally.max());
    };
    snap.insert(MetricValue{h.name + ".count", MetricKind::Counter,
                            static_cast<double>(h.hist.count()), 1});
    snap.insert(MetricValue{h.name + ".mean", MetricKind::Gauge,
                            h.tally.mean(), 1});
    snap.insert(MetricValue{h.name + ".p50", MetricKind::Gauge,
                            quantile(0.5), 1});
    snap.insert(MetricValue{h.name + ".p99", MetricKind::Gauge,
                            quantile(0.99), 1});
    snap.insert(MetricValue{h.name + ".max", MetricKind::Peak,
                            h.tally.empty() ? 0.0 : h.tally.max(), 1});
  }
  return snap;
}

void Registry::reset_values() {
  for (Scalar& s : scalars_) s.value = 0;
  for (Hist& h : hists_) {
    h.hist.reset();
    h.tally.reset();
  }
}

}  // namespace dsrt::obs
