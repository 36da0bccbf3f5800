#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/core/task_spec.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/sim/time.hpp"
#include "dsrt/workload/generator.hpp"

namespace dsrt::workload {

/// Workload trace format v1 — a line-oriented CSV any run can be captured
/// to and replayed from, bit for bit:
///
///   # dsrt workload trace v1
///   # nodes=6 link_nodes=0
///   L,<arrival>,<node>,<exec>,<pex>,<deadline>
///   G,<arrival>,<deadline>,<shape>
///
/// Arrivals, exec and pex are finite and >= 0, and no value is NaN (a
/// deadline may be +inf); load() rejects anything else. All times are C
/// hexfloats (`%a`), so a round trip through the file is exact — the
/// replayed trajectory reproduces the captured run's metrics bitwise.
/// Records appear in simulated-time order (the capture order); within one
/// stream, consecutive records with an identical arrival stamp are one
/// burst (a single arrival event releasing several tasks).
///
/// `<shape>` is the serial-parallel tree grammar:
///   leaf       <exec>/<pex>@<node>            bound leaf
///              <exec>/<pex>@<node>{2..5}      placeable, eligible range
///              <exec>/<pex>@<node>{0|3|7}     placeable, eligible list
///   serial     S(<shape> <shape> ...)
///   parallel   P(<shape> <shape> ...)
struct TraceLocalRecord {
  sim::Time arrival = 0;
  core::NodeId node = 0;
  double exec = 0;
  double pex = 0;
  sim::Time deadline = 0;
};

struct TraceGlobalRecord {
  sim::Time arrival = 0;
  sim::Time deadline = 0;
  core::TaskSpec spec;
};

/// A loaded trace: records in file order plus the header metadata.
struct Trace {
  std::size_t nodes = 0;       ///< compute nodes of the captured system
  std::size_t link_nodes = 0;
  std::vector<TraceLocalRecord> locals;
  std::vector<TraceGlobalRecord> globals;

  /// Parses a v1 trace file. Throws std::runtime_error on I/O failure and
  /// std::invalid_argument on malformed content (with the line number).
  static Trace load(const std::string& path);
};

/// Formats a task structure in the shape grammar above (hexfloat exec/pex,
/// eligible sets preserved).
std::string format_spec(const core::TaskSpec& spec);

/// Parses the shape grammar into `out` via `builder` (reusable across
/// calls). Throws std::invalid_argument on malformed input, including a
/// leaf exec or pex that is not finite and >= 0.
void parse_spec_into(std::string_view text, core::TaskSpecBuilder& builder,
                     core::TaskSpec& out);

/// Streaming trace exporter. Attach to a run (SimulationRun::
/// set_trace_writer) and every task release is appended as one line; the
/// file is complete when the writer is destroyed (or close()d). Capture is
/// write-only — attaching a writer never perturbs the run's trajectory.
class TraceWriter {
 public:
  /// Opens `path` and writes the header. Throws std::runtime_error when the
  /// file cannot be opened.
  TraceWriter(const std::string& path, std::size_t nodes,
              std::size_t link_nodes);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void local(sim::Time arrival, core::NodeId node, double exec, double pex,
             sim::Time deadline);
  void global(sim::Time arrival, const core::TaskSpec& spec,
              sim::Time deadline);

  /// Records written so far.
  std::size_t records() const { return records_; }

  /// Flushes and closes the file; throws std::runtime_error on write
  /// failure (also checked by the destructor, which terminates instead of
  /// throwing — call close() to observe errors).
  void close();

 private:
  std::ofstream out_;
  std::string path_;
  std::string scratch_;  ///< reused shape-format buffer
  std::size_t records_ = 0;
};

/// Task source replaying a loaded trace. Stream structure mirrors the
/// generated run exactly: one replay stream per local node (ascending node
/// id) plus one global stream, each stream scheduling one simulator event
/// per arrival instant and firing every record sharing that bitwise arrival
/// stamp (a captured burst) from it. Start order and per-event push order
/// match the generators', so a replayed run's event sequence — and with it
/// every metric — is bit-for-bit the captured run's.
class TraceSource {
 public:
  using LocalSink = LocalTaskSource::Sink;
  using GlobalSink = GlobalTaskSource::Sink;

  /// `trace` must outlive the source. Records after `until` are dropped
  /// (the generators never emit past the horizon, so a same-horizon replay
  /// drops nothing).
  TraceSource(sim::Simulator& sim, const Trace& trace, sim::Time until,
              LocalSink local_sink, GlobalSink global_sink);

  /// Schedules the first arrival of every stream. Call once.
  void start();

  std::uint64_t local_generated() const { return local_generated_; }
  std::uint64_t global_generated() const { return global_generated_; }

  /// Aggregate arrival counters over all local streams / the global stream
  /// (obs probes).
  const ArrivalCounters& local_counters() const { return local_counters_; }
  const ArrivalCounters& global_counters() const { return global_counters_; }

 private:
  struct Stream {
    std::vector<std::size_t> records;  ///< indices into trace locals
    std::size_t cursor = 0;
  };

  void schedule_local(std::size_t s);
  void fire_local(std::size_t s);
  void schedule_global();
  void fire_global();

  sim::Simulator& sim_;
  const Trace& trace_;
  sim::Time until_;
  LocalSink local_sink_;
  GlobalSink global_sink_;
  std::vector<Stream> local_streams_;  ///< ascending node id
  std::size_t global_cursor_ = 0;
  std::uint64_t local_generated_ = 0;
  std::uint64_t global_generated_ = 0;
  ArrivalCounters local_counters_;
  ArrivalCounters global_counters_;
};

}  // namespace dsrt::workload
