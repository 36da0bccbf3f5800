// Unit tests for the pending-event set: ordering, tie-breaking, counters,
// slot recycling, and the pop order of both tiers (sorted and ladder)
// against a reference priority queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <tuple>
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
  // Reverse insertion order stresses the sorted tier's insertion step
  // and, past its bound, the ladder's bucket redistribution.
  for (int i = 10000; i > 0; --i)
    q.push(static_cast<double>(i), [] {});
  double last = 0;
  while (!q.empty()) {
    EXPECT_GE(q.next_time(), last);
    last = q.next_time();
    q.pop();
  }
}

// --- tiers (sorted array / ladder) against a reference ---------------------

/// Order oracle: a binary heap over (time, seq, id), seq counting pushes
/// the way EventQueue does, so ties fire in insertion order.
class ReferenceQueue {
 public:
  void push(double at, int id) { heap_.emplace(at, next_seq_++, id); }
  double next_time() const { return std::get<0>(heap_.top()); }
  int pop() {
    const int id = std::get<2>(heap_.top());
    heap_.pop();
    return id;
  }
  bool empty() const { return heap_.empty(); }

 private:
  using Item = std::tuple<double, std::uint64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap_;
  std::uint64_t next_seq_ = 0;
};

/// One ladder spill, read off the queue's counters: how many entries it
/// moved into the front, and whether the comparison-sort fallback
/// ordered them.
struct Spill {
  std::uint64_t entries;
  bool fell_back;
};

/// An EventQueue run in lockstep with a ReferenceQueue: every pop must
/// fire the id the reference pops, at the reference's time. Every spill
/// is logged (a push or pop spills at most once).
struct CheckedQueue {
  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> fired;
  std::vector<Spill> spills;
  std::uint64_t seen_spilled = 0;
  std::uint64_t seen_fallbacks = 0;
  int next_id = 0;

  void push(double at) {
    const int id = next_id++;
    q.push(at, [this, id] { fired.push_back(id); });
    ref.push(at, id);
    note_spill();
  }
  /// Pops the earliest event and returns its time.
  double pop() {
    const double at = q.next_time();
    EXPECT_EQ(at, ref.next_time());
    q.pop()();
    EXPECT_EQ(fired.back(), ref.pop());
    note_spill();
    return at;
  }
  void note_spill() {
    if (q.ladder_spills() == spills.size()) return;
    EXPECT_EQ(q.ladder_spills(), spills.size() + 1);
    spills.push_back({q.ladder_spilled() - seen_spilled,
                      q.spill_fallbacks() != seen_fallbacks});
    seen_spilled = q.ladder_spilled();
    seen_fallbacks = q.spill_fallbacks();
  }
  /// Whether some spill of at least `min_entries` (and at most
  /// `max_entries`) entries was ordered by the given path.
  bool spilled(bool fell_back, std::uint64_t min_entries,
               std::uint64_t max_entries = ~std::uint64_t{0}) const {
    return std::any_of(spills.begin(), spills.end(), [&](const Spill& x) {
      return x.fell_back == fell_back && x.entries >= min_entries &&
             x.entries <= max_entries;
    });
  }
  void drain() {
    while (!q.empty()) pop();
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(fired.size(), static_cast<std::size_t>(next_id));
  }
};

TEST(QueueTiers, DeepChurnPopsTheReferenceOrder) {
  // One deterministic deep-churn schedule (pushes/pops, heavy ties,
  // occasional +inf timers). The deep fill keeps all of the churn in the
  // ladder: times are quantized into few distinct values, so every
  // spilled bucket is one long run of equal times.
  CheckedQueue c;
  dsrt::sim::Rng rng(777);
  for (int i = 0; i < 9000; ++i) {
    double at = std::floor(rng.uniform01() * 50.0);
    if (c.next_id % 997 == 0) at = std::numeric_limits<double>::infinity();
    c.push(at);
  }
  for (int round = 0; round < 30000; ++round) {
    if (round % 3 != 0) {
      c.push(50.0 + std::floor(rng.uniform01() * 50.0));
    } else if (!c.q.empty()) {
      c.pop();
    }
  }
  EXPECT_EQ(c.q.mode_flips(), 1u);  // into the ladder, and still there
  EXPECT_GE(c.q.ladder_epochs(), 1u);
  c.drain();
  EXPECT_EQ(c.q.mode_flips(), 2u);  // drained back into the sorted tier
}

TEST(QueueTiers, HoldChurnAcrossTheBoundaryPopsTheReferenceOrder) {
  // A simulation-like schedule: cycles that grow the pending set past the
  // sorted/ladder boundary (each step pops the earliest event, then
  // pushes an arrival-like timer and a completion-like event just after
  // now) and drain it back below the low-water mark. A few far-future
  // timers widen the ladder's head bucket to several time units, so the
  // completions land in its front. Offsets are quantized to sixteenths,
  // so equal-time ties are common, including ties at exactly `now` inside
  // the front.
  CheckedQueue c;
  dsrt::sim::Rng rng(4242);
  double now = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    const std::size_t peak = 70 + static_cast<std::size_t>(cycle % 5) * 40;
    while (c.q.size() < peak) {
      const double far = rng.uniform01() < 0.05 ? 1000.0 : 1.0;
      c.push(now + far + std::floor(rng.uniform01() * 64.0) / 8.0);
      if (!c.q.empty()) now = c.pop();
      c.push(now + std::floor(rng.uniform01() * 4.0) / 16.0);
    }
    while (c.q.size() > 8) {
      now = c.pop();
      if (rng.uniform01() < 0.3)
        c.push(now + std::floor(rng.uniform01() * 4.0) / 16.0);
    }
  }
  c.drain();
  // Every cycle crosses the boundary both ways.
  EXPECT_EQ(c.q.mode_flips(), 80u);
  EXPECT_GT(c.q.ladder_spills(), 40u);
}

/// Pops a queue whose actions' first captures are not pointers, so the
/// prefetch hint pop() reads is an arbitrary word or null. Each action
/// logs a tag: its id, or -1 when it can carry none.
struct HintedQueue {
  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> tags;  ///< tag expected for each reference id
  std::vector<int> fired;
  static std::vector<int>* log;

  void push(double at) {
    const int id = static_cast<int>(tags.size());
    tags.push_back(id % 4 == 3 ? -1 : id);
    switch (id % 4) {
      case 0:  // a NaN double first
        q.push(at, [nan = std::numeric_limits<double>::quiet_NaN(), id] {
          if (std::isnan(nan)) log->push_back(id);
        });
        break;
      case 1:  // a small int, smaller than a pointer
        q.push(at, [id] { log->push_back(id); });
        break;
      case 2:  // a shared_ptr (non-trivial relocation)
        q.push(at, [token = std::make_shared<int>(id)] {
          log->push_back(*token);
        });
        break;
      default:  // no capture at all
        q.push(at, [] { log->push_back(-1); });
    }
    ref.push(at, id);
  }
  double pop() {
    const double at = q.next_time();
    EXPECT_EQ(at, ref.next_time());
    q.pop()();
    EXPECT_EQ(fired.back(), tags[static_cast<std::size_t>(ref.pop())]);
    return at;
  }
};
std::vector<int>* HintedQueue::log = nullptr;

TEST(QueueTiers, ActionsWithoutPointerHintsPopTheReferenceOrder) {
  // The hint is advisory: whatever the first capture word holds, both
  // tiers pop the reference order, in and out of the ladder.
  HintedQueue c;
  HintedQueue::log = &c.fired;
  dsrt::sim::Rng rng(90210);
  double now = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    while (c.q.size() < 400) {
      c.push(now + std::floor(rng.uniform01() * 64.0) / 8.0);
      if (rng.uniform01() < 0.3) now = c.pop();
    }
    while (c.q.size() > 4) {
      now = c.pop();
      if (rng.uniform01() < 0.2) c.push(now + rng.uniform01());
    }
  }
  while (!c.q.empty()) c.pop();
  EXPECT_TRUE(c.ref.empty());
  EXPECT_EQ(c.fired.size(), c.tags.size());
  EXPECT_EQ(c.q.mode_flips(), 12u);  // into the ladder and back, each cycle
  EXPECT_GT(c.q.ladder_spills(), 6u);
}

TEST(QueueTiers, EntersLadderPastThresholdAndExitsOnDrain) {
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
}

TEST(QueueTiers, LadderReseedsAFrontThatOutgrewItsEpoch) {
  // A burst of near-now pushes (say, one batch of arrivals) all fire
  // before the front's latest entry, so all join the front. Rather than
  // grow one long sorted front, paying a memmove per push, the ladder
  // must re-seed at the grown density, and keep the exact order.
  CheckedQueue c;
  dsrt::sim::Rng rng(5);
  for (int i = 0; i < 65; ++i) c.push(1.0 + i);  // the 65th enters the ladder
  const std::uint64_t entry_epochs = c.q.ladder_epochs();
  for (int i = 0; i < 4000; ++i)
    c.push(std::floor(rng.uniform01() * 64.0) / 64.0);
  // No pop ran, so every epoch after the ladder entry is a front re-seed.
  EXPECT_EQ(c.q.mode_flips(), 1u);
  EXPECT_GT(c.q.ladder_epochs(), entry_epochs);
  c.drain();
}

TEST(QueueTiers, LadderKeepsFifoOnAllEqualTimes) {
  // Degenerate span (every event at one instant, deep enough for the
  // ladder): the epoch width guard must keep redistribution terminating
  // and the seq tie-break exact.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5000; ++i)
    q.push(7.0, [i, &fired] { fired.push_back(i); });
  EXPECT_EQ(q.mode_flips(), 1u);
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(QueueTiers, LadderOrdersInfiniteTimersLast) {
  // Horizon-guard timers at +inf must sort after every finite event and
  // keep FIFO among themselves (they ride the overflow/re-seed path).
  EventQueue q;
  std::vector<int> fired;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 300; ++i) {
    q.push(inf, [i, &fired] { fired.push_back(1000000 + i); });
    q.push(static_cast<double>(300 - i), [i, &fired] { fired.push_back(i); });
  }
  EXPECT_EQ(q.mode_flips(), 1u);
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), 600u);
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(fired[static_cast<size_t>(i)], 299 - i);  // finite, ascending
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(fired[static_cast<size_t>(300 + i)], 1000000 + i);  // FIFO
}

// --- spills under adversarial time distributions ---------------------------
//
// A spill is ordered by a counting pass over its time span unless it is
// too small, too large, spans zero or unbounded time, or crowds one rank;
// then a comparison sort orders it. Either way it must pop the reference
// order. Most schedules below hold 100+ clusters one time unit apart, so
// head-density bucket sizing gives each cluster a bucket of its own.

/// `x` moved up by `ulps` representable doubles.
double ulps_above(double x, int ulps) {
  for (int i = 0; i < ulps; ++i)
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  return x;
}

TEST(QueueTiers, SpillOfATightClusterAndAFarOutlierFallsBack) {
  // Each bucket: 20 entries within a few ulps, and one outlier 1e-6
  // later. Ranked by span, the whole cluster shares one rank,
  // so the spill must fall back rather than insertion-sort the crowd.
  CheckedQueue c;
  dsrt::sim::Rng rng(11);
  for (int g = 1; g <= 150; ++g) {
    const double base = static_cast<double>(g);
    c.push(base + 1e-6);
    for (int i = 0; i < 20; ++i)
      c.push(ulps_above(base, static_cast<int>(rng.uniform01() * 6.0)));
  }
  c.drain();
  EXPECT_TRUE(c.spilled(true, 21, 21));
}

TEST(QueueTiers, SpillOfTimesAFewUlpsApartCounts) {
  // Each bucket: 24 entries at most 47 ulps apart. The span is tiny but
  // finite, the ranks spread, and the counting pass orders the spill.
  CheckedQueue c;
  dsrt::sim::Rng rng(12);
  for (int g = 1; g <= 150; ++g) {
    for (int i = 0; i < 24; ++i)
      c.push(ulps_above(static_cast<double>(g),
                        static_cast<int>(rng.uniform01() * 48.0)));
  }
  c.drain();
  EXPECT_TRUE(c.spilled(false, 16));
}

TEST(QueueTiers, EqualTimeRunsInsideACountedSpillStayFifo) {
  // Each bucket: runs of 1-6 equal times at spread offsets. Equal times
  // share a rank, and the insertion pass orders them by sequence. Pushes
  // interleave across clusters, so a run's sequence numbers are far apart
  // and interleave with other runs'.
  CheckedQueue c;
  dsrt::sim::Rng rng(13);
  std::vector<double> times;
  for (int g = 1; g <= 120; ++g) {
    for (int k = 0; k < 8; ++k) {
      const double at = g + k / 64.0 + rng.uniform01() / 128.0;
      const int run = 1 + static_cast<int>(rng.uniform01() * 6.0);
      for (int r = 0; r < run; ++r) times.push_back(at);
    }
  }
  for (std::size_t i = times.size(); i > 1; --i) {  // Fisher-Yates
    const auto j = static_cast<std::size_t>(rng.uniform01() *
                                            static_cast<double>(i));
    std::swap(times[i - 1], times[std::min(j, i - 1)]);
  }
  for (double at : times) c.push(at);
  c.drain();
  EXPECT_TRUE(c.spilled(false, 16));
}

TEST(QueueTiers, LongEqualTimeRunsInsideASpillStayFifo) {
  // Each bucket: one run of 30 equal times beside a few spread entries,
  // more than one rank may hold, so the spill falls back; a bucket of one
  // instant (zero span) falls back too.
  CheckedQueue c;
  dsrt::sim::Rng rng(14);
  for (int round = 0; round < 30; ++round) {
    for (int g = 1; g <= 100; ++g) {
      c.push(static_cast<double>(g) + 0.25);
      if (round % 3 == 0) c.push(g + rng.uniform01() / 4.0);
    }
  }
  c.drain();
  EXPECT_TRUE(c.spilled(true, 30));
}

TEST(QueueTiers, InfiniteTimersMixedIntoSpillsFallBack) {
  // +inf timers mixed among finite churn: a spill holding one has no
  // finite span, and the last ones spill together at one instant.
  CheckedQueue c;
  dsrt::sim::Rng rng(15);
  const double inf = std::numeric_limits<double>::infinity();
  double now = 0;
  for (int i = 0; i < 3000; ++i)
    c.push(i % 7 == 0 ? inf : now + 1.0 + rng.uniform01() * 100.0);
  for (int round = 0; round < 20000; ++round) {
    now = c.pop();
    c.push(round % 11 == 0 ? inf : now + 1.0 + rng.uniform01() * 100.0);
  }
  c.drain();
  EXPECT_TRUE(c.spilled(false, 16));  // the finite churn counts
  EXPECT_TRUE(c.spilled(true, 256));  // the +inf tail falls back
}

TEST(QueueTiers, SpillAboveTheCapFallsBack) {
  // A dense bucket of hundreds of spread entries beside a sparse far
  // tail: past the scratch cap, so the spill stages what fits, appends
  // the rest of its chain, and falls back.
  CheckedQueue c;
  dsrt::sim::Rng rng(16);
  for (int i = 0; i < 400; ++i) c.push(1000.0 + rng.uniform01() * 1000.0);
  for (int i = 0; i < 600; ++i) c.push(5.0 + rng.uniform01() * 1e-3);
  c.drain();
  EXPECT_TRUE(c.spilled(true, 257));
}

TEST(QueueTiers, ReserveDoesNotDisturbOrderOrCounters) {
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
