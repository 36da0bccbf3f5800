#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dsrt::stats {

/// Fixed-column text table used by every tool to print the rows/series a
/// paper figure or table reports, plus a CSV form for plotting.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` digits after the point.
  static std::string cell(double v, int precision = 3);
  /// Formats a value as a percentage, e.g. 0.403 -> "40.3".
  static std::string percent(double v, int precision = 1);
  /// Formats "mean +- hw" for confidence-interval cells.
  static std::string with_ci(double mean, double half_width,
                             int precision = 3);

  /// Writes the aligned table.
  void print(std::ostream& os) const;

  /// Writes comma-separated values (headers + rows).
  void print_csv(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dsrt::stats
