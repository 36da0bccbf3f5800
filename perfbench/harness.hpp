// Helpers shared by the benchmark programs: host clock, percentile
// selection, peak-RSS parsing, the per-replication output check and model
// fingerprint, the slice probe, and the report lines. Depends only on the
// simulator, the run's metrics and the obs observers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/trace/recorder.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// --- command line ------------------------------------------------------------

/// Both programs take --workload NAME --seed N, and --seconds S (run for S
/// seconds) or --reps N (run exactly N measured replications).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::uint64_t reps = 0;  ///< 0 = time-bounded
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--reps") {
      a.reps = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || (a.seconds <= 0 && a.reps == 0))
    throw std::invalid_argument(
        "usage: --workload NAME --seed N (--seconds S | --reps N)");
  return a;
}

// --- percentiles -----------------------------------------------------------

/// 0-based index of the nearest-rank `q` percentile of `n` sorted samples.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0 && q <= 1)) throw std::invalid_argument("percentile outside (0,1]");
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - 1 - rank_index(n, q);
}

/// Nearest-rank percentile. Throws unless at least `min_beyond` samples lie
/// beyond it, so a reported tail is never one or two outliers.
inline double percentile(std::vector<double> samples, double q,
                         std::size_t min_beyond = 0) {
  const std::size_t i = rank_index(samples.size(), q);
  if (samples_beyond(samples.size(), q) < min_beyond)
    throw std::invalid_argument("too few samples beyond the percentile");
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(i),
                   samples.end());
  return samples[i];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

// --- peak resident set -------------------------------------------------------

/// Parses the VmHWM line ("VmHWM:   12345 kB") of a /proc/<pid>/status text
/// into kB. Throws when the line is missing or malformed.
inline std::uint64_t parse_vmhwm_kb(std::string_view status) {
  std::istringstream in{std::string(status)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    std::string unit;
    if (!(fields >> kb >> unit) || unit != "kB")
      throw std::runtime_error("malformed VmHWM line: " + line);
    return kb;
  }
  throw std::runtime_error("no VmHWM line in status");
}

/// This process's peak resident set, in kB.
inline std::uint64_t read_vmhwm_kb() {
  std::ifstream file("/proc/self/status");
  if (!file) throw std::runtime_error("cannot read /proc/self/status");
  std::stringstream text;
  text << file.rdbuf();
  return parse_vmhwm_kb(text.str());
}

// --- output check and fingerprint ------------------------------------------

/// Tasks that received full service, both classes.
inline std::uint64_t finished_tasks(const dsrt::system::RunMetrics& m) {
  return m.local.response.count() + m.global.response.count();
}

/// Model outputs of one replication, printed as hexfloats so that two runs
/// can be compared bit for bit. `events` excludes any probe events.
inline std::string fingerprint(const dsrt::system::RunMetrics& m,
                               std::uint64_t events) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "md_local=%a md_global=%a util=%a finished=%llu events=%llu",
                m.local.missed.value(), m.global.missed.value(),
                m.mean_utilization,
                static_cast<unsigned long long>(finished_tasks(m)),
                static_cast<unsigned long long>(events));
  return buf;
}

/// What the output check needs besides the metrics.
struct RunState {
  double load = 0;            ///< offered load of the configuration
  double util_tolerance = 0;  ///< accepted |mean utilization - load|
  std::uint64_t live_globals = 0;   ///< global tasks still in flight
  std::uint64_t jobs_at_nodes = 0;  ///< queued plus in-service jobs
};

/// Checks one replication's outputs. Returns an empty string when they hold,
/// otherwise the first violated condition:
///  - task conservation per class: generated = finished + aborted + failed +
///    shed + live, where live globals come from the process manager and live
///    locals must be jobs still at the nodes;
///  - mean utilization within `util_tolerance` of the offered load.
inline std::string check_run(const dsrt::system::RunMetrics& m,
                             const RunState& s) {
  const auto disposed = [](const dsrt::system::ClassMetrics& c) {
    return c.response.count() + c.aborted + c.failed + c.shed;
  };
  if (m.global.generated != disposed(m.global) + s.live_globals)
    return "global tasks not conserved";
  if (m.local.generated < disposed(m.local)) return "local tasks not conserved";
  const std::uint64_t live_locals = m.local.generated - disposed(m.local);
  // Every live global task has at least one subtask at a node.
  if (live_locals + s.live_globals > s.jobs_at_nodes)
    return "live tasks exceed the jobs at the nodes";
  if (!(std::fabs(m.mean_utilization - s.load) <= s.util_tolerance))
    return "utilization off the offered load";
  return {};
}

/// The observers the fig2_observed workload attaches, fanned out through one
/// tee: a KeepTail trace recorder and the miss attribution.
struct Observers {
  explicit Observers(std::size_t nodes) : attribution(nodes) {
    tee.attach(&recorder);
    tee.attach(&attribution);
  }
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// The attribution's causes must partition the run's global misses.
  std::string check(const dsrt::system::RunMetrics& m) const {
    if (attribution.misses() != m.global.missed.hits() ||
        attribution.finished() + attribution.aborted() + attribution.failed() +
                attribution.shed() !=
            m.global.missed.trials())
      return "miss attribution does not partition the misses";
    return {};
  }

  dsrt::trace::Recorder recorder{4096, dsrt::trace::Overflow::KeepTail};
  dsrt::obs::MissAttribution attribution;
  dsrt::obs::ObserverTee tee;
};

// --- slice probe -------------------------------------------------------------

/// One self-rescheduling event at every multiple of `slice` up to the
/// horizon that stamps the host clock. It changes no model state, so it
/// leaves the trajectory unchanged; it adds one pending event and one
/// executed event per boundary, which `fired()` reports so callers can
/// subtract them.
class SliceProbe {
 public:
  SliceProbe(dsrt::sim::Simulator& sim, double slice, double horizon)
      : sim_(sim), slice_(slice), horizon_(horizon) {
    if (!(slice > 0)) throw std::invalid_argument("slice must be positive");
    stamps_.reserve(static_cast<std::size_t>(horizon / slice) + 2);
  }

  SliceProbe(const SliceProbe&) = delete;
  SliceProbe& operator=(const SliceProbe&) = delete;

  /// Schedules the first boundary and stamps the start of the first slice;
  /// call just before the run.
  void start() {
    schedule(1);
    stamps_.push_back(now_ns());
  }

  std::uint64_t fired() const { return fired_; }

  /// Host milliseconds of each completed slice.
  std::vector<double> slices_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < stamps_.size(); ++i)
      out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) * 1e-6);
    return out;
  }

 private:
  void schedule(std::uint64_t index) {
    const double at = static_cast<double>(index) * slice_;
    if (at > horizon_) return;
    sim_.at(at, [this, index] {
      ++fired_;
      stamps_.push_back(now_ns());
      schedule(index + 1);
    });
  }

  dsrt::sim::Simulator& sim_;
  double slice_;
  double horizon_;
  std::uint64_t fired_ = 0;
  std::vector<std::int64_t> stamps_;
};

// --- report lines -----------------------------------------------------------

/// Appends `"name": {"value": v, "unit": "u"}` entries to one JSON object.
class MetricsJson {
 public:
  void add(std::string_view name, double value, std::string_view unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + std::string(name) + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_.append("\"").append(name).append("\": {\"value\": ").append(buf);
    body_.append(", \"unit\": \"").append(unit).append("\"}");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// What both programs report per replication.
struct RepRecord {
  std::uint64_t index = 0;
  double run_s = 0;
  std::uint64_t events = 0;  ///< excluding probe events
  std::string fingerprint;
  std::string failure;  ///< empty when the output check passed
};

/// Prints a replication's fingerprint line ("warmup" for replication 0).
inline void print_fingerprint(const std::string& workload, const RepRecord& r) {
  std::printf("%s %s rep=%llu %s%s%s\n", r.index ? "fingerprint" : "warmup",
              workload.c_str(), static_cast<unsigned long long>(r.index),
              r.fingerprint.c_str(), r.failure.empty() ? "" : " FAILED: ",
              r.failure.c_str());
}

/// Prints the result line: one JSON object with the metrics and every
/// measured replication's record.
inline void print_report(const std::string& workload, const RepRecord& warmup,
                         const std::vector<RepRecord>& reps,
                         const MetricsJson& metrics) {
  std::uint64_t failed = 0;
  std::string records;
  for (const RepRecord& r : reps) {
    failed += r.failure.empty() ? 0 : 1;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"rep\": %llu, \"ok\": %s, \"run_s\": %.17g, \"events\": %llu, ",
                  static_cast<unsigned long long>(r.index),
                  r.failure.empty() ? "true" : "false", r.run_s,
                  static_cast<unsigned long long>(r.events));
    if (!records.empty()) records += ", ";
    records.append(buf).append("\"fingerprint\": \"").append(r.fingerprint).append("\"}");
  }
  std::printf("{\"workload\": \"%s\", \"attempted\": %zu, \"failed\": %llu, "
              "\"warmup_ok\": %s, \"metrics\": %s, \"replications\": [%s]}\n",
              workload.c_str(), reps.size(), static_cast<unsigned long long>(failed),
              warmup.failure.empty() ? "true" : "false", metrics.str().c_str(),
              records.c_str());
}

}  // namespace perfbench
