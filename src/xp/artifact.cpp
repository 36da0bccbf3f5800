#include "dsrt/xp/artifact.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dsrt/util/flags.hpp"
#include "dsrt/xp/json.hpp"

namespace dsrt::xp {

namespace {

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

/// Bitwise double equality (the artifacts never hold NaN; -0 vs +0 is a
/// real difference worth flagging).
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A JSON number that is a count. From 2^53 on, doubles skip integers
/// (2^53 + 1 reads as 2^53), so those are rejected before the cast.
std::size_t as_index(const JsonValue& v, const char* what) {
  const double d = v.as_number();
  if (!(d >= 0 && d < 0x1p53) || d != std::floor(d))
    throw std::runtime_error(std::string("bad ") + what);
  return static_cast<std::size_t>(d);
}

/// `{"name":"<hexfloat>",...}` in the given order.
std::string hex_object(
    const std::vector<std::pair<std::string, double>>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += quoted(values[i].first);
    out += ':';
    out += quoted(hexfloat(values[i].second));
  }
  out += '}';
  return out;
}

std::vector<std::pair<std::string, double>> parse_hex_object(
    const JsonValue& object) {
  std::vector<std::pair<std::string, double>> values;
  for (const auto& [name, value] : object.as_object())
    values.emplace_back(name, parse_hexfloat(value.as_string()));
  return values;
}

/// Bitwise equality of two records' replication values and counters.
bool same_run_values(const PointRecord& a, const PointRecord& b) {
  if (a.runs.size() != b.runs.size() ||
      a.counters.size() != b.counters.size())
    return false;
  for (std::size_t r = 0; r < a.runs.size(); ++r)
    for (const auto& [key, field] : kRunFields)
      if (!bits_equal(a.runs[r].*field, b.runs[r].*field)) return false;
  for (std::size_t i = 0; i < a.counters.size(); ++i)
    if (a.counters[i].first != b.counters[i].first ||
        !bits_equal(a.counters[i].second, b.counters[i].second))
      return false;
  return true;
}

}  // namespace

const double* PointRecord::metric(std::string_view name) const {
  for (const auto& [metric_name, value] : metrics)
    if (metric_name == name) return &value;
  return nullptr;
}

std::string hexfloat(double v) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

double parse_hexfloat(const std::string& text) {
  if (text.empty()) throw std::runtime_error("empty numeric value");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size())
    throw std::runtime_error("bad numeric value '" + text + "'");
  return v;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string point_config_hash(const Manifest& manifest,
                              const engine::SweepPoint& point) {
  std::uint64_t hash = fnv1a64(manifest.name);
  hash = fnv1a64(std::to_string(manifest.replications), hash);
  hash = fnv1a64(std::to_string(point.ordinal), hash);
  for (const std::string& label : point.labels) hash = fnv1a64(label, hash);
  hash = fnv1a64(std::to_string(point.config.seed), hash);
  hash = fnv1a64(hexfloat(point.config.horizon), hash);
  hash = fnv1a64(hexfloat(point.config.warmup), hash);
  hash = fnv1a64(point.config.describe(), hash);
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

std::string shard_file_name(const std::string& manifest,
                            std::size_t shard_index,
                            std::size_t shard_count) {
  return manifest + ".shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_count) + ".jsonl";
}

std::string merged_file_name(const std::string& manifest) {
  return manifest + ".merged.jsonl";
}

std::string artifact_line(const std::string& manifest,
                          const PointRecord& record) {
  std::ostringstream os;
  os << "{\"manifest\":" << quoted(manifest) << ",\"schema\":2"
     << ",\"index\":" << record.index << ",\"total\":" << record.total
     << ",\"labels\":[";
  for (std::size_t i = 0; i < record.labels.size(); ++i)
    os << (i ? "," : "") << quoted(record.labels[i]);
  os << "],\"config_hash\":" << quoted(record.config_hash)
     << ",\"seed\":" << quoted(std::to_string(record.seed))
     << ",\"reps\":" << record.replications
     << ",\"wall_seconds\":" << quoted(hexfloat(record.wall_seconds))
     << ",\"metrics\":" << hex_object(record.metrics) << ",\"runs\":[";
  for (std::size_t r = 0; r < record.runs.size(); ++r) {
    os << (r ? ",{" : "{");
    for (std::size_t f = 0; f < std::size(kRunFields); ++f)
      os << (f ? "," : "") << quoted(kRunFields[f].first) << ":"
         << quoted(hexfloat(record.runs[r].*kRunFields[f].second));
    os << "}";
  }
  os << "]";
  if (!record.counters.empty())
    os << ",\"counters\":" << hex_object(record.counters);
  os << "}";
  return os.str();
}

PointRecord parse_artifact_line(const std::string& manifest,
                                const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (doc.at("manifest").as_string() != manifest)
    throw std::runtime_error("record belongs to manifest '" +
                             doc.at("manifest").as_string() + "', expected '" +
                             manifest + "'");
  if (doc.at("schema").as_number() != 2)
    throw std::runtime_error("unsupported record schema (expected 2)");
  PointRecord record;
  record.index = as_index(doc.at("index"), "index");
  record.total = as_index(doc.at("total"), "total");
  for (const JsonValue& label : doc.at("labels").as_array())
    record.labels.push_back(label.as_string());
  record.config_hash = doc.at("config_hash").as_string();
  const std::string& seed = doc.at("seed").as_string();
  const auto parsed_seed = util::parse_uint(seed);
  if (!parsed_seed) throw std::runtime_error("bad seed '" + seed + "'");
  record.seed = *parsed_seed;
  record.replications = as_index(doc.at("reps"), "reps");
  record.wall_seconds = parse_hexfloat(doc.at("wall_seconds").as_string());
  record.metrics = parse_hex_object(doc.at("metrics"));
  for (const JsonValue& entry : doc.at("runs").as_array()) {
    RunRecord& run = record.runs.emplace_back();
    for (const auto& [key, field] : kRunFields)
      run.*field = parse_hexfloat(entry.at(key).as_string());
  }
  if (record.runs.size() != record.replications)
    throw std::runtime_error(std::to_string(record.runs.size()) +
                             " runs for " +
                             std::to_string(record.replications) + " reps");
  if (const JsonValue* counters = doc.get("counters"))
    record.counters = parse_hex_object(*counters);
  if (record.index >= record.total)
    throw std::runtime_error("index " + std::to_string(record.index) +
                             " out of range (total " +
                             std::to_string(record.total) + ")");
  return record;
}

std::vector<PointRecord> load_artifact_file(const std::string& manifest,
                                            const std::string& path) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("cannot open shard artifact " + path);
  std::vector<PointRecord> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty()) continue;
    try {
      records.push_back(parse_artifact_line(manifest, line));
    } catch (const std::exception& error) {
      // A torn final line from an interrupted writer lands here too: the
      // caller gets the exact file and line to inspect or delete — the
      // harness never half-merges a corrupt shard.
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": corrupt shard record: " + error.what());
    }
  }
  if (file.bad())
    throw std::runtime_error(path + ": read failed");
  return records;
}

void append_artifact_records(const std::string& manifest,
                             const std::string& path,
                             const std::vector<PointRecord>& records) {
  std::ofstream file(path, std::ios::app);
  if (!file)
    throw std::runtime_error("cannot open shard artifact " + path +
                             " for append");
  for (const PointRecord& record : records) {
    file << artifact_line(manifest, record) << '\n';
    file.flush();
  }
  if (!file.good())
    throw std::runtime_error("write failed for shard artifact " + path);
}

std::vector<PointRecord> merge_artifacts(const Manifest& manifest,
                                         const std::string& out_dir) {
  const std::vector<engine::SweepPoint> points = manifest.expand();
  const std::string prefix = manifest.name + ".shard-";

  std::vector<std::string> shard_paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 &&
        name.size() > prefix.size() + 6 &&
        name.compare(name.size() - 6, 6, ".jsonl") == 0)
      shard_paths.push_back(entry.path().string());
  }
  if (ec)
    throw std::runtime_error("cannot scan artifact directory " + out_dir +
                             ": " + ec.message());
  std::sort(shard_paths.begin(), shard_paths.end());
  if (shard_paths.empty())
    throw std::runtime_error("no shard artifacts for manifest '" +
                             manifest.name + "' under " + out_dir +
                             " (expected " + prefix + "*.jsonl)");

  std::vector<PointRecord> merged(points.size());
  std::vector<std::string> source(points.size());
  for (const std::string& path : shard_paths) {
    for (PointRecord& record : load_artifact_file(manifest.name, path)) {
      if (record.index >= points.size() || record.total != points.size())
        throw std::runtime_error(
            path + ": record index " + std::to_string(record.index) + "/" +
            std::to_string(record.total) +
            " does not fit the current grid (" +
            std::to_string(points.size()) +
            " points) — stale artifact? delete and re-run");
      const std::string expected_hash =
          point_config_hash(manifest, points[record.index]);
      if (record.config_hash != expected_hash)
        throw std::runtime_error(
            path + ": config hash mismatch at index " +
            std::to_string(record.index) + " (artifact " +
            record.config_hash + ", current definition " + expected_hash +
            ") — the manifest changed since this artifact was written; "
            "delete and re-run");
      if (!source[record.index].empty()) {
        const PointRecord& prior = merged[record.index];
        bool identical = prior.metrics.size() == record.metrics.size();
        for (std::size_t i = 0; identical && i < prior.metrics.size(); ++i) {
          const MetricSpec* spec =
              manifest.metric(prior.metrics[i].first);
          const bool exact =
              !spec || spec->kind == MetricSpec::Kind::Exact;
          identical = prior.metrics[i].first == record.metrics[i].first &&
                      (!exact || bits_equal(prior.metrics[i].second,
                                            record.metrics[i].second));
        }
        if (!identical || !same_run_values(prior, record))
          throw std::runtime_error(
              path + ": index " + std::to_string(record.index) +
              " conflicts with the record in " + source[record.index] +
              " — overlapping shards disagree");
        continue;
      }
      source[record.index] = path;
      merged[record.index] = std::move(record);
    }
  }

  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (source[i].empty()) missing.push_back(i);
  if (!missing.empty()) {
    std::string detail;
    for (std::size_t i = 0; i < missing.size() && i < 8; ++i)
      detail += (i ? ", " : "") + std::to_string(missing[i]);
    if (missing.size() > 8) detail += ", ...";
    throw std::runtime_error(
        "manifest '" + manifest.name + "' is incomplete under " + out_dir +
        ": " + std::to_string(missing.size()) + " of " +
        std::to_string(points.size()) + " points missing (indices " + detail +
        ") — run the remaining shards or --resume");
  }
  return merged;
}

void write_artifact_file(const std::string& manifest, const std::string& path,
                         const std::vector<PointRecord>& records) {
  std::ofstream file(path);
  if (!file)
    throw std::runtime_error("cannot open " + path);
  for (const PointRecord& record : records)
    file << artifact_line(manifest, record) << '\n';
  if (!file.good())
    throw std::runtime_error("write failed for " + path);
}

}  // namespace dsrt::xp
