#include "dsrt/xp/manifest.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsrt::xp {

std::vector<MetricSpec> default_metrics(double ev_per_sec_rel_tol) {
  std::vector<MetricSpec> metrics;
  metrics.push_back({"md_local", MetricSpec::Kind::Exact, 0, 0,
                     [](const PointRun& p) { return p.result.md_local.mean; }});
  metrics.push_back(
      {"md_global", MetricSpec::Kind::Exact, 0, 0,
       [](const PointRun& p) { return p.result.md_global.mean; }});
  metrics.push_back(
      {"md_overall", MetricSpec::Kind::Exact, 0, 0,
       [](const PointRun& p) { return p.result.md_overall.mean; }});
  metrics.push_back({"finished_local", MetricSpec::Kind::Exact, 0, 0,
                     [](const PointRun& p) {
                       double finished = 0;
                       for (const auto& run : p.result.runs)
                         finished +=
                             static_cast<double>(run.local.missed.trials());
                       return finished;
                     }});
  metrics.push_back({"finished_global", MetricSpec::Kind::Exact, 0, 0,
                     [](const PointRun& p) {
                       double finished = 0;
                       for (const auto& run : p.result.runs)
                         finished +=
                             static_cast<double>(run.global.missed.trials());
                       return finished;
                     }});
  metrics.push_back({"events", MetricSpec::Kind::Exact, 0, 0,
                     [](const PointRun& p) {
                       double events = 0;
                       for (const auto& run : p.result.runs)
                         events += static_cast<double>(run.events);
                       return events;
                     }});
  metrics.push_back({"events_per_sec", MetricSpec::Kind::Relative,
                     ev_per_sec_rel_tol, 0, [](const PointRun& p) {
                       double events = 0;
                       for (const auto& run : p.result.runs)
                         events += static_cast<double>(run.events);
                       return p.run_seconds > 0 ? events / p.run_seconds
                                                : 0.0;
                     }});
  return metrics;
}

std::vector<engine::SweepPoint> Manifest::expand() const {
  std::vector<engine::SweepPoint> points = grid().expand(base());
  for (const engine::SweepPoint& point : points) point.config.validate();
  return points;
}

std::size_t Manifest::points() const { return grid().points(); }

const MetricSpec* Manifest::metric(std::string_view metric_name) const {
  for (const MetricSpec& m : metrics)
    if (m.name == metric_name) return &m;
  return nullptr;
}

void Registry::add(Manifest manifest) {
  if (manifest.name.empty())
    throw std::invalid_argument("Registry::add: empty manifest name");
  if (find(manifest.name))
    throw std::invalid_argument("Registry::add: duplicate manifest '" +
                                manifest.name + "'");
  if (!manifest.base || !manifest.grid)
    throw std::invalid_argument("Registry::add: manifest '" + manifest.name +
                                "' needs base and grid builders");
  if (manifest.replications == 0)
    throw std::invalid_argument("Registry::add: manifest '" + manifest.name +
                                "' needs replications >= 1");
  std::vector<std::string> axes = manifest.grid().axis_names();
  std::sort(axes.begin(), axes.end());
  for (const TableView& view : manifest.views) {
    const std::string where = "Registry::add: manifest '" + manifest.name +
                              "' view '" + view.title + "'";
    std::vector<std::string> placed = view.rows;
    placed.push_back(view.column);
    for (const std::string& axis : placed)
      if (!std::binary_search(axes.begin(), axes.end(), axis))
        throw std::invalid_argument(where + ": unknown axis '" + axis + "'");
    std::sort(placed.begin(), placed.end());
    if (placed != axes)
      throw std::invalid_argument(where +
                                  ": must place every axis exactly once");
    const MetricSpec* metric = manifest.metric(view.metric);
    if (!metric)
      throw std::invalid_argument(where + ": unknown metric '" + view.metric +
                                  "'");
    if (metric->kind != MetricSpec::Kind::Exact)
      throw std::invalid_argument(where + ": metric '" + view.metric +
                                  "' is not an Exact metric");
  }
  manifests_.push_back(std::move(manifest));
}

const Manifest* Registry::find(std::string_view name) const {
  for (const Manifest& m : manifests_)
    if (m.name == name) return &m;
  return nullptr;
}

const Manifest& Registry::at(std::string_view name) const {
  if (const Manifest* m = find(name)) return *m;
  std::string message = "unknown manifest: " + std::string(name) + " (known:";
  for (const Manifest& m : manifests_) message += " " + m.name;
  throw std::invalid_argument(message + ")");
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> names;
  names.reserve(manifests_.size());
  for (const Manifest& m : manifests_) names.push_back(m.name);
  return names;
}

const Manifest& find_manifest(std::string_view name) {
  return builtin_registry().at(name);
}

}  // namespace dsrt::xp
