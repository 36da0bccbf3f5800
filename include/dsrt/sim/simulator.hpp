#pragma once

#include <cstdint>

#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::sim {

/// Event-scheduling discrete-event simulator — the role DeNet [10] plays in
/// the paper. Single-threaded; model components hold a reference and call
/// `at()` / `in()` to schedule work.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `action` at absolute time `at`. Scheduling in the past is a
  /// model bug; it is clamped to `now()` so the event still fires, and
  /// `past_schedules()` records the slip for tests to assert on.
  ///
  /// `action` is any callable that fits an `InlineAction`; it is forwarded
  /// straight into the event queue's slot storage, so scheduling never
  /// allocates and never moves the callable more than once.
  template <typename F>
  void at(Time at, F&& action) {
    if (at < now_) {
      ++past_schedules_;
      at = now_;
    }
    queue_.push(at, std::forward<F>(action));
  }

  /// Schedules `action` after `delay` (>= 0) time units.
  template <typename F>
  void in(Time delay, F&& action) {
    at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(action));
  }

  /// Runs events until the queue empties, `stop()` is called, or the next
  /// event would fire strictly after `until`. The clock ends at the time of
  /// the last executed event (or `until` if given and reached).
  void run(Time until = kTimeInfinity);

  /// Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Number of attempts to schedule events in the past (model bugs).
  std::uint64_t past_schedules() const { return past_schedules_; }

  /// Pending events (mostly for tests).
  std::size_t pending() const { return queue_.size(); }

  /// Read-only view of the pending-event set, exposing its passive
  /// counters (high-water depth, layout flips) to the obs probes.
  const EventQueue& queue() const { return queue_; }

  /// Pre-sizes the pending-event storage for an expected depth, so big-k
  /// runs warm up without growth reallocations.
  void reserve_queue(std::size_t expected_pending) {
    queue_.reserve(expected_pending);
  }

  /// Only reserves; kept for perfbench/traced.cpp, which still calls it.
  void configure_queue(QueueMode, std::size_t expected_pending = 0) {
    reserve_queue(expected_pending);
  }

 private:
  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t past_schedules_ = 0;
};

}  // namespace dsrt::sim
