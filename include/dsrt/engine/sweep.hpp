#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dsrt/system/config.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::engine {

/// One sweep dimension: a column name plus a list of (label, config
/// mutator) values. Axes are declarative so every study manifest shares
/// one expansion/execution path instead of hand-rolled nested loops.
struct SweepAxis {
  std::string name;
  std::vector<std::string> labels;
  std::vector<std::function<void(system::Config&)>> apply;

  std::size_t size() const { return labels.size(); }

  /// Numeric axis: labels are the values formatted with `precision`
  /// digits, each mutator calls `set(cfg, value)`.
  static SweepAxis numeric(std::string name, const std::vector<double>& values,
                           std::function<void(system::Config&, double)> set,
                           int precision = 2);

  /// Discrete axis from explicit (label, mutator) choices, e.g. strategy
  /// names.
  static SweepAxis choices(
      std::string name,
      std::vector<std::pair<std::string,
                            std::function<void(system::Config&)>>> options);

  /// Axis over a config field, by name: each value is parsed by the
  /// field's entry in system::config_fields(), exactly as `--<field>=v`
  /// is, and labels the point verbatim. Throws std::invalid_argument for
  /// an unknown field or an unparsable value.
  static SweepAxis by_field(const std::string& field,
                            const std::vector<std::string>& values);
};

/// One expanded grid point: the fully mutated config plus its coordinates.
struct SweepPoint {
  std::size_t ordinal = 0;            ///< row-major position in the grid
  std::vector<std::string> labels;    ///< one per axis, aligned with axes
  std::vector<std::size_t> indices;   ///< per-axis value index
  system::Config config;
};

/// Declarative parameter grid. Cartesian mode expands the cross product
/// (last axis fastest, matching the row-major order the paper's tables
/// read in); zipped mode advances all axes in lockstep (requires equal
/// lengths) for sweeps along a diagonal, e.g. load together with horizon.
class SweepGrid {
 public:
  enum class Mode { Cartesian, Zipped };

  SweepGrid& axis(SweepAxis a);
  SweepGrid& mode(Mode m);

  const std::vector<SweepAxis>& axes() const { return axes_; }
  std::vector<std::string> axis_names() const;

  /// Number of points expand() will produce (1 for an empty grid: the base
  /// config itself is the single point).
  std::size_t points() const;

  /// Applies every coordinate's mutators to copies of `base`. Throws
  /// std::invalid_argument on zipped grids with unequal axis lengths or
  /// axes with no values.
  std::vector<SweepPoint> expand(const system::Config& base) const;

 private:
  std::vector<SweepAxis> axes_;
  Mode mode_ = Mode::Cartesian;
};

/// The grid of `--sweep_<field>=v1,v2,...` flags, one axis per flag in
/// name order (std::map), so the point order is the same on every run.
/// A ';' in a value list switches its separator from ','. `--zip`
/// advances the axes in lockstep.
SweepGrid grid_from_flags(const util::Flags& flags);

}  // namespace dsrt::engine
