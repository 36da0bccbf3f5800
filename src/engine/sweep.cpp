#include "dsrt/engine/sweep.hpp"

#include <stdexcept>

#include "dsrt/system/cli.hpp"

namespace dsrt::engine {

SweepAxis SweepAxis::choices(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(system::Config&)>>>
        options) {
  SweepAxis axis;
  axis.name = std::move(name);
  for (auto& [label, fn] : options) {
    axis.labels.push_back(std::move(label));
    axis.apply.push_back(std::move(fn));
  }
  return axis;
}

SweepAxis SweepAxis::by_field(const std::string& field,
                              const std::vector<std::string>& values) {
  SweepAxis axis;
  axis.name = field;
  for (const std::string& value : values) {
    axis.labels.push_back(value);
    axis.apply.push_back(system::config_setter(field, value));
  }
  return axis;
}

SweepGrid grid_from_flags(const util::Flags& flags) {
  SweepGrid grid;
  for (const auto& [name, value] : flags.all()) {
    if (name.rfind("sweep_", 0) != 0) continue;
    // Values split on ','; a ';' anywhere switches the separator so
    // comma-parameterized specs sweep too:
    //   --sweep_arrivals='poisson;mmpp:4,0.25;onoff:20,80'
    const char sep = value.find(';') != std::string::npos ? ';' : ',';
    grid.axis(SweepAxis::by_field(name.substr(6), util::split(value, sep)));
  }
  if (flags.get("zip", false)) grid.mode(SweepGrid::Mode::Zipped);
  return grid;
}

SweepGrid& SweepGrid::axis(SweepAxis a) {
  axes_.push_back(std::move(a));
  return *this;
}

SweepGrid& SweepGrid::mode(Mode m) {
  mode_ = m;
  return *this;
}

std::vector<std::string> SweepGrid::axis_names() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const auto& axis : axes_) names.push_back(axis.name);
  return names;
}

std::size_t SweepGrid::points() const {
  if (axes_.empty()) return 1;
  if (mode_ == Mode::Zipped) return axes_.front().size();
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return n;
}

std::vector<SweepPoint> SweepGrid::expand(const system::Config& base) const {
  for (const auto& axis : axes_) {
    if (axis.size() == 0)
      throw std::invalid_argument("SweepGrid: axis '" + axis.name +
                                  "' has no values");
    if (axis.labels.size() != axis.apply.size())
      throw std::invalid_argument("SweepGrid: axis '" + axis.name +
                                  "' labels/mutators size mismatch");
    if (mode_ == Mode::Zipped && axis.size() != axes_.front().size())
      throw std::invalid_argument(
          "SweepGrid: zipped axes must have equal lengths ('" + axis.name +
          "' vs '" + axes_.front().name + "')");
  }

  std::vector<SweepPoint> out;
  out.reserve(points());
  if (axes_.empty()) {
    SweepPoint point;
    point.config = base;
    out.push_back(std::move(point));
    return out;
  }

  if (mode_ == Mode::Zipped) {
    for (std::size_t i = 0; i < axes_.front().size(); ++i) {
      SweepPoint point;
      point.ordinal = i;
      point.config = base;
      for (const auto& axis : axes_) {
        point.labels.push_back(axis.labels[i]);
        point.indices.push_back(i);
        axis.apply[i](point.config);
      }
      out.push_back(std::move(point));
    }
    return out;
  }

  // Cartesian: odometer over the axis indices, last axis fastest.
  std::vector<std::size_t> indices(axes_.size(), 0);
  const std::size_t total = points();
  for (std::size_t ordinal = 0; ordinal < total; ++ordinal) {
    SweepPoint point;
    point.ordinal = ordinal;
    point.indices = indices;
    point.config = base;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      point.labels.push_back(axes_[a].labels[indices[a]]);
      axes_[a].apply[indices[a]](point.config);
    }
    out.push_back(std::move(point));
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++indices[a] < axes_[a].size()) break;
      indices[a] = 0;
    }
  }
  return out;
}

}  // namespace dsrt::engine
