#include "dsrt/engine/emit.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dsrt::engine {

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << v;  // shortest round-trippable-enough form; JSON has no NaN/Inf
  const std::string s = os.str();
  return (s == "nan" || s == "inf" || s == "-inf") ? "null" : s;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string estimate_json(const stats::Estimate& e) {
  return "{\"mean\":" + num(e.mean) + ",\"half_width\":" + num(e.half_width) +
         "}";
}

std::string ci(const stats::Estimate& e) {
  return stats::Table::percent(e.mean, 1) + " +- " +
         stats::Table::percent(e.half_width, 1);
}

}  // namespace

stats::Table sweep_table(const SweepResult& sweep) {
  std::vector<std::string> headers = sweep.axis_names;
  for (const char* h : {"MD_local(%)", "MD_global(%)", "MD_overall(%)",
                        "resp_local", "resp_global", "util(%)"})
    headers.push_back(h);
  stats::Table table(std::move(headers));

  for (const PointResult& pr : sweep.points) {
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

void write_sweep_csv(const SweepResult& sweep, std::ostream& os) {
  // Probed sweeps get one extra RFC-4180-quoted column holding the pooled
  // counters as a JSON object (metric sets can differ across points, e.g.
  // placement counters on jsq points only, so fixed columns don't fit).
  bool any_counters = false;
  for (const PointResult& pr : sweep.points)
    any_counters = any_counters || !pr.result.counters.empty();
  for (const std::string& name : sweep.axis_names) os << name << ',';
  os << "md_local,md_local_hw,md_global,md_global_hw,md_overall,"
        "md_overall_hw,resp_local,resp_local_hw,resp_global,resp_global_hw,"
        "utilization,utilization_hw";
  if (any_counters) os << ",counters";
  os << '\n';
  for (const PointResult& pr : sweep.points) {
    for (const std::string& label : pr.point.labels) os << label << ',';
    const auto& r = pr.result;
    os << r.md_local.mean << ',' << r.md_local.half_width << ','
       << r.md_global.mean << ',' << r.md_global.half_width << ','
       << r.md_overall.mean << ',' << r.md_overall.half_width << ','
       << r.response_local.mean << ',' << r.response_local.half_width << ','
       << r.response_global.mean << ',' << r.response_global.half_width << ','
       << r.utilization.mean << ',' << r.utilization.half_width;
    if (any_counters) {
      os << ',' << '"';
      for (char c : r.counters.json()) {
        os << c;
        if (c == '"') os << c;  // RFC 4180: double embedded quotes
      }
      os << '"';
    }
    os << '\n';
  }
}

stats::Table pivot_table(
    const SweepResult& sweep, const std::vector<std::string>& rows,
    const std::string& column,
    const std::function<std::string(const PointResult&)>& cell) {
  // Map the named axes to sweep positions; every axis placed exactly once,
  // or two points would land in one cell.
  const std::size_t axes = sweep.axis_names.size();
  std::vector<std::size_t> row_axes;
  std::vector<bool> placed(axes, false);
  auto position = [&](const std::string& name) {
    for (std::size_t a = 0; a < axes; ++a) {
      if (sweep.axis_names[a] != name) continue;
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
                                  sweep.axis_names[a] + "' not placed");

  // Recover the axis value lists from the points' coordinates.
  std::vector<std::vector<std::string>> labels(axes);
  for (const PointResult& pr : sweep.points) {
    for (std::size_t a = 0; a < axes; ++a) {
      const std::size_t i = pr.point.indices[a];
      if (i >= labels[a].size()) labels[a].resize(i + 1);
      labels[a][i] = pr.point.labels[a];
    }
  }

  // A zipped sweep has diagonal coordinates only; pivoting it would render
  // a mostly-empty matrix that looks like missing data.
  std::size_t row_count = 1;
  for (std::size_t a : row_axes) row_count *= labels[a].size();
  const std::size_t col_count = labels[col_axis].size();
  if (sweep.points.size() != row_count * col_count)
    throw std::invalid_argument(
        "pivot_table: sweep does not cover the full cartesian grid "
        "(zipped sweep?)");

  std::vector<std::string> headers = rows;
  headers.insert(headers.end(), labels[col_axis].begin(),
                 labels[col_axis].end());
  stats::Table table(std::move(headers));

  // Row number = mixed-radix value of the row-axis indices.
  std::vector<std::vector<std::string>> cells(
      row_count, std::vector<std::string>(col_count));
  for (const PointResult& pr : sweep.points) {
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

std::string sweep_json(const SweepResult& sweep) {
  std::ostringstream os;
  os << "{\"axes\":[";
  for (std::size_t i = 0; i < sweep.axis_names.size(); ++i)
    os << (i ? "," : "") << quoted(sweep.axis_names[i]);
  os << "],\"replications\":" << sweep.replications
     << ",\"jobs\":" << sweep.jobs
     << ",\"wall_seconds\":" << num(sweep.wall_seconds) << ",\"points\":[";
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const PointResult& pr = sweep.points[i];
    os << (i ? "," : "") << "{\"labels\":[";
    for (std::size_t j = 0; j < pr.point.labels.size(); ++j)
      os << (j ? "," : "") << quoted(pr.point.labels[j]);
    os << "],\"seed\":" << pr.point.config.seed
       << ",\"md_local\":" << estimate_json(pr.result.md_local)
       << ",\"md_global\":" << estimate_json(pr.result.md_global)
       << ",\"md_overall\":" << estimate_json(pr.result.md_overall)
       << ",\"response_local\":" << estimate_json(pr.result.response_local)
       << ",\"response_global\":" << estimate_json(pr.result.response_global)
       << ",\"utilization\":" << estimate_json(pr.result.utilization);
    if (!pr.result.counters.empty())
      os << ",\"counters\":" << pr.result.counters.json();
    os << ",\"runs\":[";
    for (std::size_t r = 0; r < pr.result.runs.size(); ++r) {
      const auto& m = pr.result.runs[r];
      os << (r ? "," : "") << "{\"md_local\":" << num(m.local.missed.value())
         << ",\"md_global\":" << num(m.global.missed.value())
         << ",\"finished_local\":" << m.local.missed.trials()
         << ",\"finished_global\":" << m.global.missed.trials()
         << ",\"events\":" << m.events << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
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

std::vector<std::string> write_sweep_files(const std::string& name,
                                           const SweepResult& sweep,
                                           bool csv, bool json,
                                           const std::string& out_dir) {
  std::vector<std::string> written;
  if (csv) {
    const std::string path = out_dir + "/" + name + ".csv";
    std::ofstream file(path);
    if (!file)
      throw std::runtime_error("write_sweep_files: cannot open " + path);
    write_sweep_csv(sweep, file);
    if (!file.good())
      throw std::runtime_error("write_sweep_files: write failed for " + path);
    written.push_back(path);
  }
  if (json) {
    const std::string path = out_dir + "/" + name + ".json";
    std::ofstream file(path);
    if (!file)
      throw std::runtime_error("write_sweep_files: cannot open " + path);
    file << sweep_json(sweep) << '\n';
    if (!file.good())
      throw std::runtime_error("write_sweep_files: write failed for " + path);
    written.push_back(path);
  }
  return written;
}

}  // namespace dsrt::engine
