#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "dsrt/system/observer.hpp"

namespace dsrt::trace {

/// What happened at one trace point.
enum class TraceKind : std::uint8_t {
  LocalSubmit,
  GlobalArrival,
  SubtaskSubmit,
  JobComplete,
  JobAbort,
  GlobalFinish,
  GlobalMiss,
  GlobalAbort,
  GlobalFail,  ///< lost to a crash: the orphan could not be retried
  GlobalShed,  ///< shed by the admission controller at dispatch
};

/// One recorded lifecycle event.
struct TraceEvent {
  TraceKind kind{};
  sim::Time at = 0;
  core::TaskId task = 0;       ///< owning task (0 for locals)
  core::NodeId node = 0;       ///< node involved (where applicable)
  sim::Time deadline = 0;      ///< deadline attached to the event
  std::size_t stage = 0;       ///< sibling index for subtask events
};

const char* to_string(TraceKind kind);

/// What the recorder keeps once `capacity` events have been seen.
enum class Overflow : std::uint8_t {
  KeepHead,  ///< first `capacity` events; later ones are counted, not kept
  KeepTail,  ///< ring buffer: most recent `capacity` events overwrite the
             ///< oldest — the mode for "what led up to the end of the run"
};

/// Bounded in-memory event recorder for debugging and examples: attach to a
/// run via SimulationRun::set_observer, then print a human-readable
/// timeline. Overflow beyond the capacity is counted in `dropped()` and
/// handled per the `Overflow` mode, so attaching to a long run is safe and
/// allocation stops once the buffer fills.
class Recorder final : public system::Observer {
 public:
  explicit Recorder(std::size_t capacity = 100000,
                    Overflow mode = Overflow::KeepHead);

  void on_local_submitted(core::NodeId node, const sched::Job& job,
                          sim::Time now) override;
  void on_global_arrival(core::TaskId task, const core::TaskSpec& spec,
                         sim::Time now, sim::Time deadline) override;
  void on_subtask_submitted(core::TaskId task,
                            const core::LeafSubmission& submission,
                            sim::Time now) override;
  void on_job_disposed(const sched::Job& job, sim::Time now,
                       sched::JobOutcome outcome) override;
  void on_global_finished(core::TaskId task, sim::Time now,
                          bool missed) override;
  void on_global_aborted(core::TaskId task, sim::Time now) override;
  void on_global_failed(core::TaskId task, sim::Time now) override;
  void on_global_shed(core::TaskId task, sim::Time now) override;

  /// Raw storage. In KeepTail mode after overflow this is rotated (oldest
  /// kept event is at `head()`, not index 0); use ordered() for
  /// chronological order.
  const std::vector<TraceEvent>& events() const { return events_; }
  /// Events kept, in chronological order (copy; cheap at these capacities).
  std::vector<TraceEvent> ordered() const;
  /// Events seen but not kept (KeepHead) or overwritten (KeepTail).
  std::uint64_t dropped() const { return dropped_; }
  Overflow overflow() const { return mode_; }
  void clear();

  /// Prints up to `limit` events in chronological order, one line each,
  /// noting how many were dropped/overwritten.
  void print(std::ostream& os, std::size_t limit = 100) const;

  /// Events belonging to one global task, in chronological order.
  std::vector<TraceEvent> task_timeline(core::TaskId task) const;

 private:
  /// The slot the next event is written into, or nullptr when it is only
  /// counted (KeepHead full, or capacity 0).
  TraceEvent* next_slot();
  std::size_t head() const {
    return mode_ == Overflow::KeepTail && events_.size() == capacity_ ? head_
                                                                     : 0;
  }

  std::size_t capacity_;
  Overflow mode_;
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;  ///< next overwrite position (KeepTail, full)
  std::uint64_t dropped_ = 0;
};

}  // namespace dsrt::trace
