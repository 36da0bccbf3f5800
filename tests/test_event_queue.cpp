// Unit tests for the pending-event set: ordering, tie-breaking, counters,
// slot recycling, and order equivalence of the sorted, ladder and heap
// layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/rng.hpp"

namespace {

using dsrt::sim::EventQueue;

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pushed(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    q.push(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, [&] { order.push_back(20); });
  q.push(1.0, [&] { order.push_back(10); });
  q.push(2.0, [&] { order.push_back(21); });
  q.push(1.0, [&] { order.push_back(11); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.push(9.0, [] {});
  q.push(4.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.next_time(), 9.0);
}

TEST(EventQueue, CountsPushes) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.push(1.0 * i, [] {});
  EXPECT_EQ(q.pushed(), 7u);
  EXPECT_EQ(q.size(), 7u);
  q.pop();
  EXPECT_EQ(q.pushed(), 7u);  // pushes, not current size
  EXPECT_EQ(q.size(), 6u);
}

TEST(EventQueue, MoveOnlyActions) {
  EventQueue q;
  int result = 0;
  auto owned = std::make_unique<int>(41);
  q.push(1.0, [p = std::move(owned), &result] { result = *p + 1; });
  q.pop()();
  EXPECT_EQ(result, 42);
}

TEST(EventQueue, InterleavedChurnMatchesReferenceOrder) {
  // Random interleaving of pushes and pops must still fire in exact
  // (time, seq) order — this exercises slot recycling and both sift paths.
  EventQueue q;
  dsrt::sim::Rng rng(123);
  std::vector<std::pair<double, int>> pending;  // (time, id) reference model
  std::vector<int> fired;
  int next_id = 0;
  for (int round = 0; round < 5000; ++round) {
    if (q.empty() || rng.uniform01() < 0.55) {
      // Quantized times make same-time ties common, so the FIFO
      // tie-break is exercised continuously.
      const double at = std::floor(rng.uniform01() * 8.0);
      const int id = next_id++;
      q.push(at, [id, &fired] { fired.push_back(id); });
      pending.emplace_back(at, id);
    } else {
      q.pop()();
      // Reference: earliest time, FIFO (= smallest id) among ties.
      auto best = pending.begin();
      for (auto it = pending.begin(); it != pending.end(); ++it)
        if (it->first < best->first ||
            (it->first == best->first && it->second < best->second))
          best = it;
      ASSERT_EQ(fired.back(), best->second);
      pending.erase(best);
    }
  }
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(next_id));
}

TEST(EventQueue, HandlesManyEvents) {
  EventQueue q;
  // Reverse insertion order stresses the heap (and, past the ladder
  // threshold, the bucket redistribution).
  for (int i = 10000; i > 0; --i)
    q.push(static_cast<double>(i), [] {});
  double last = 0;
  while (!q.empty()) {
    EXPECT_GE(q.next_time(), last);
    last = q.next_time();
    q.pop();
  }
}

// --- queue modes (sorted / heap / ladder layouts) -------------------------

using dsrt::sim::QueueMode;

TEST(QueueMode, ParseMatchesRegistryVocabulary) {
  EXPECT_EQ(dsrt::sim::parse_queue_mode("adaptive"), QueueMode::Adaptive);
  EXPECT_EQ(dsrt::sim::parse_queue_mode("sorted"), QueueMode::Sorted);
  EXPECT_EQ(dsrt::sim::parse_queue_mode("heap"), QueueMode::Heap);
  EXPECT_EQ(dsrt::sim::parse_queue_mode("ladder"), QueueMode::Ladder);
  // Every advertised name parses, and every mode round-trips through its
  // name — the --help vocabulary can never drift from the parser.
  for (const auto name : dsrt::sim::queue_mode_names())
    EXPECT_EQ(dsrt::sim::queue_mode_name(dsrt::sim::parse_queue_mode(name)),
              name);
  EXPECT_THROW(dsrt::sim::parse_queue_mode(""), std::invalid_argument);
  EXPECT_THROW(dsrt::sim::parse_queue_mode("lader"), std::invalid_argument);
  // Modes are parameterless; a colon is a malformed spec, not a request
  // for a default.
  EXPECT_THROW(dsrt::sim::parse_queue_mode("ladder:128"),
               std::invalid_argument);
  EXPECT_THROW(dsrt::sim::parse_queue_mode("heap:"), std::invalid_argument);
}

TEST(QueueMode, SetModeRequiresEmptyQueue) {
  EventQueue q;
  q.set_mode(QueueMode::Ladder);  // fine while empty
  EXPECT_EQ(q.mode(), QueueMode::Ladder);
  q.push(1.0, [] {});
  EXPECT_THROW(q.set_mode(QueueMode::Heap), std::logic_error);
  q.pop();
  q.set_mode(QueueMode::Heap);  // fine again once drained
  EXPECT_EQ(q.mode(), QueueMode::Heap);
}

/// Replays one deterministic deep-churn schedule (pushes/pops, heavy ties,
/// occasional +inf timers) against a queue in `mode` and returns the fired
/// ids in pop order.
std::vector<int> churn_trace(QueueMode mode) {
  EventQueue q;
  q.set_mode(mode);
  dsrt::sim::Rng rng(777);
  std::vector<int> fired;
  int next_id = 0;
  // Deep fill first, so forced-ladder runs spend most of the churn past
  // the bucket threshold (re-seeds included: times are quantized into few
  // distinct values, clustering whole epochs into single buckets).
  for (int i = 0; i < 9000; ++i) {
    double at = std::floor(rng.uniform01() * 50.0);
    if (next_id % 997 == 0) at = std::numeric_limits<double>::infinity();
    const int id = next_id++;
    q.push(at, [id, &fired] { fired.push_back(id); });
  }
  // The schedule is a pure function of the loop index (no data-dependent
  // control flow), so every mode sees bit-identical (time, seq) inputs.
  for (int round = 0; round < 30000; ++round) {
    if (round % 3 != 0) {
      const double at = 50.0 + std::floor(rng.uniform01() * 50.0);
      const int id = next_id++;
      q.push(at, [id, &fired] { fired.push_back(id); });
    } else if (!q.empty()) {
      q.pop()();
    }
  }
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(next_id));
  return fired;
}

TEST(QueueMode, EveryLayoutPopsTheIdenticalOrder) {
  // The layout is a pure representation choice: heap, ladder, and the
  // adaptive switcher must fire the exact same (time, seq) total order on
  // the same schedule. This is the contract that makes --event_queue
  // trajectory-invariant (goldens can never move).
  const std::vector<int> heap = churn_trace(QueueMode::Heap);
  const std::vector<int> ladder = churn_trace(QueueMode::Ladder);
  const std::vector<int> adaptive = churn_trace(QueueMode::Adaptive);
  ASSERT_EQ(heap.size(), ladder.size());
  EXPECT_EQ(heap, ladder);
  EXPECT_EQ(heap, adaptive);
}

/// Fired ids and layout counters of one hold-churn replay.
struct HoldTrace {
  std::vector<int> fired;
  std::uint64_t mode_flips = 0;
  std::uint64_t ladder_spills = 0;
};

/// Replays a simulation-like schedule against a queue in `mode`: cycles
/// that grow the pending set past the sorted/ladder boundary (each step
/// pops the earliest event, then pushes an arrival-like timer and a
/// completion-like event just after now) and drain it back below the
/// low-water mark. A few far-future timers widen the ladder's head bucket
/// to several time units, so the completions land in its front. Offsets
/// are quantized to sixteenths, so equal-time ties are common, including
/// ties at exactly `now` inside the front.
HoldTrace hold_churn_trace(QueueMode mode) {
  EventQueue q;
  q.set_mode(mode);
  dsrt::sim::Rng rng(4242);
  HoldTrace trace;
  int next_id = 0;
  double now = 0;
  const auto push = [&](double at) {
    const int id = next_id++;
    q.push(at, [id, &trace] { trace.fired.push_back(id); });
  };
  const auto pop = [&] {
    now = q.next_time();
    q.pop()();
  };
  for (int cycle = 0; cycle < 40; ++cycle) {
    const std::size_t peak = 70 + static_cast<std::size_t>(cycle % 5) * 40;
    while (q.size() < peak) {
      const double far = rng.uniform01() < 0.05 ? 1000.0 : 1.0;
      push(now + far + std::floor(rng.uniform01() * 64.0) / 8.0);
      if (!q.empty()) pop();
      push(now + std::floor(rng.uniform01() * 4.0) / 16.0);
    }
    while (q.size() > 8) {
      pop();
      if (rng.uniform01() < 0.3)
        push(now + std::floor(rng.uniform01() * 4.0) / 16.0);
    }
  }
  while (!q.empty()) pop();
  EXPECT_EQ(trace.fired.size(), static_cast<std::size_t>(next_id));
  trace.mode_flips = q.mode_flips();
  trace.ladder_spills = q.ladder_spills();
  return trace;
}

TEST(QueueMode, HoldChurnAcrossTheBoundaryPopsTheIdenticalOrder) {
  const HoldTrace heap = hold_churn_trace(QueueMode::Heap);
  const HoldTrace ladder = hold_churn_trace(QueueMode::Ladder);
  const HoldTrace adaptive = hold_churn_trace(QueueMode::Adaptive);
  EXPECT_EQ(heap.fired, ladder.fired);
  EXPECT_EQ(heap.fired, adaptive.fired);
  // Every cycle crosses the boundary both ways in adaptive mode; the
  // forced heap never changes layout.
  EXPECT_EQ(adaptive.mode_flips, 80u);
  EXPECT_EQ(heap.mode_flips, 0u);
  EXPECT_GT(adaptive.ladder_spills, 40u);
}

TEST(QueueMode, AdaptiveEntersLadderPastThresholdAndExitsOnDrain) {
  EventQueue q;
  for (int i = 0; i < 6000; ++i)
    q.push(static_cast<double>(i % 100), [] {});
  // sorted -> ladder at the array bound: one flip on the way up.
  EXPECT_EQ(q.mode_flips(), 1u);
  EXPECT_GE(q.ladder_epochs(), 1u);
  EXPECT_GE(q.ladder_spills(), 1u);
  double last = 0;
  while (!q.empty()) {
    EXPECT_GE(q.next_time(), last);
    last = q.next_time();
    q.pop();
  }
  // Draining through the low-water mark returns to the sorted tier.
  EXPECT_EQ(q.mode_flips(), 2u);
  EXPECT_EQ(q.mode(), QueueMode::Adaptive);  // policy never changes
}

TEST(QueueMode, LadderReseedsAFrontThatOutgrewItsEpoch) {
  // A burst of near-now pushes (say, one batch of arrivals) all fire
  // before the front's latest entry, so all join the front. Rather than
  // grow one long sorted front, paying a memmove per push, the ladder
  // must re-seed at the grown density, and keep the exact order.
  const auto trace = [](QueueMode mode, std::uint64_t* epochs) {
    EventQueue q;
    q.set_mode(mode);
    dsrt::sim::Rng rng(5);
    std::vector<int> fired;
    int id = 0;
    const auto push = [&](double at) {
      const int i = id++;
      q.push(at, [i, &fired] { fired.push_back(i); });
    };
    for (int i = 0; i < 64; ++i) push(1.0 + i);
    for (int i = 0; i < 4000; ++i)
      push(std::floor(rng.uniform01() * 64.0) / 64.0);
    *epochs = q.ladder_epochs();
    while (!q.empty()) q.pop()();
    return fired;
  };
  std::uint64_t epochs = 0;
  std::uint64_t heap_epochs = 0;
  EXPECT_EQ(trace(QueueMode::Ladder, &epochs),
            trace(QueueMode::Heap, &heap_epochs));
  // No pop ran, so every epoch after the first is a front re-seed.
  EXPECT_GT(epochs, 1u);
}

TEST(QueueMode, LadderKeepsFifoOnAllEqualTimes) {
  // Degenerate span (every event at one instant): the epoch width guard
  // must keep redistribution terminating and the seq tie-break exact.
  EventQueue q;
  q.set_mode(QueueMode::Ladder);
  std::vector<int> fired;
  for (int i = 0; i < 5000; ++i)
    q.push(7.0, [i, &fired] { fired.push_back(i); });
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(QueueMode, LadderOrdersInfiniteTimersLast) {
  // Horizon-guard timers at +inf must sort after every finite event and
  // keep FIFO among themselves (they ride the overflow/re-seed path).
  EventQueue q;
  q.set_mode(QueueMode::Ladder);
  std::vector<int> fired;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 300; ++i) {
    q.push(inf, [i, &fired] { fired.push_back(1000000 + i); });
    q.push(static_cast<double>(300 - i), [i, &fired] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), 600u);
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(fired[static_cast<size_t>(i)], 299 - i);  // finite, ascending
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(fired[static_cast<size_t>(300 + i)], 1000000 + i);  // FIFO
}

TEST(QueueMode, ReserveDoesNotDisturbOrderOrCounters) {
  EventQueue q;
  q.reserve(1 << 14);
  std::vector<int> order;
  q.push(2.0, [&] { order.push_back(2); });
  q.push(1.0, [&] { order.push_back(1); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pushed(), 2u);
}

}  // namespace
