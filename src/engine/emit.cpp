#include "dsrt/engine/emit.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dsrt::engine {

namespace {

std::string ci(const stats::Estimate& e) {
  return stats::Table::percent(e.mean, 1) + " +- " +
         stats::Table::percent(e.half_width, 1);
}

}  // namespace

stats::Table sweep_table(const std::vector<std::string>& axis_names,
                         const std::vector<PointResult>& points) {
  std::vector<std::string> headers = axis_names;
  for (const char* h : {"MD_local(%)", "MD_global(%)", "MD_overall(%)",
                        "resp_local", "resp_global", "util(%)"})
    headers.push_back(h);
  stats::Table table(std::move(headers));

  for (const PointResult& pr : points) {
    std::vector<std::string> row = pr.point.labels;
    row.push_back(ci(pr.result.md_local));
    row.push_back(ci(pr.result.md_global));
    row.push_back(ci(pr.result.md_overall));
    row.push_back(stats::Table::with_ci(pr.result.response_local.mean,
                                        pr.result.response_local.half_width,
                                        3));
    row.push_back(stats::Table::with_ci(pr.result.response_global.mean,
                                        pr.result.response_global.half_width,
                                        3));
    row.push_back(stats::Table::percent(pr.result.utilization.mean, 1));
    table.add_row(std::move(row));
  }
  return table;
}

stats::Table pivot_table(
    const std::vector<std::string>& axis_names,
    const std::vector<PointResult>& points,
    const std::vector<std::string>& rows, const std::string& column,
    const std::function<std::string(const PointResult&)>& cell) {
  // Map the named axes to grid positions; every axis placed exactly once,
  // or two points would land in one cell.
  const std::size_t axes = axis_names.size();
  std::vector<std::size_t> row_axes;
  std::vector<bool> placed(axes, false);
  auto position = [&](const std::string& name) {
    for (std::size_t a = 0; a < axes; ++a) {
      if (axis_names[a] != name) continue;
      if (placed[a])
        throw std::invalid_argument("pivot_table: axis '" + name +
                                    "' placed twice");
      placed[a] = true;
      return a;
    }
    throw std::invalid_argument("pivot_table: unknown axis '" + name + "'");
  };
  for (const std::string& name : rows) row_axes.push_back(position(name));
  const std::size_t col_axis = position(column);
  for (std::size_t a = 0; a < axes; ++a)
    if (!placed[a])
      throw std::invalid_argument("pivot_table: axis '" +
                                  axis_names[a] + "' not placed");

  // Recover the axis value lists from the points' coordinates.
  std::vector<std::vector<std::string>> labels(axes);
  for (const PointResult& pr : points) {
    for (std::size_t a = 0; a < axes; ++a) {
      const std::size_t i = pr.point.indices[a];
      if (i >= labels[a].size()) labels[a].resize(i + 1);
      labels[a][i] = pr.point.labels[a];
    }
  }

  // A zipped grid has diagonal coordinates only; pivoting it would render
  // a mostly-empty matrix that looks like missing data.
  std::size_t row_count = 1;
  for (std::size_t a : row_axes) row_count *= labels[a].size();
  const std::size_t col_count = labels[col_axis].size();
  if (points.size() != row_count * col_count)
    throw std::invalid_argument(
        "pivot_table: points do not cover the full cartesian grid "
        "(zipped grid?)");

  std::vector<std::string> headers = rows;
  headers.insert(headers.end(), labels[col_axis].begin(),
                 labels[col_axis].end());
  stats::Table table(std::move(headers));

  // Row number = mixed-radix value of the row-axis indices.
  std::vector<std::vector<std::string>> cells(
      row_count, std::vector<std::string>(col_count));
  for (const PointResult& pr : points) {
    std::size_t r = 0;
    for (std::size_t a : row_axes)
      r = r * labels[a].size() + pr.point.indices[a];
    cells[r][pr.point.indices[col_axis]] = cell(pr);
  }
  for (std::size_t r = 0; r < row_count; ++r) {
    std::vector<std::string> row(row_axes.size());
    for (std::size_t i = row_axes.size(), rest = r; i-- > 0;) {
      const std::size_t a = row_axes[i];
      row[i] = labels[a][rest % labels[a].size()];
      rest /= labels[a].size();
    }
    row.insert(row.end(), cells[r].begin(), cells[r].end());
    table.add_row(std::move(row));
  }
  return table;
}

void ensure_writable_dir(const std::string& out_dir) {
  const std::string probe = out_dir + "/.dsrt_write_probe";
  {
    std::ofstream file(probe);
    if (!file)
      throw std::runtime_error("output directory '" + out_dir +
                               "' is not writable");
  }
  std::remove(probe.c_str());
}

}  // namespace dsrt::engine
