#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "dsrt/sim/inline_action.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::sim {

/// Cache-line size the dispatch prefetches step by.
inline constexpr std::size_t kCacheLine = 64;

/// The window around an event's target (`InlineAction::target_hint`)
/// that the ladder tier prefetches before the event fires: whole lines
/// from kTargetBack before the target's line to kTargetSpan past the
/// target. A simulation lays out each compute node's state in the order
/// an event walks it — arrival process, local source, node, ready
/// entries — so a source event's window holds its arrival process and
/// its node, and a node event's its first ready entries; the simulation
/// static_asserts that they fit. Two lines back, not one: a 72-byte
/// Poisson process starts 80 B before its source, which is two lines back
/// whenever the source starts a line.
inline constexpr std::size_t kTargetBack = 2 * kCacheLine;
inline constexpr std::size_t kTargetSpan = 9 * kCacheLine;

/// Sole pending-set discipline; kept only for perfbench/traced.cpp's
/// configure_queue call and deleted with it.
enum class QueueMode : std::uint8_t { Adaptive };

/// Pending-event set of the discrete-event kernel.
///
/// Events fire in (time, insertion-sequence) order: simultaneous events run
/// in the order they were scheduled, which makes runs fully deterministic —
/// a property the test suite asserts and the replication methodology of the
/// paper (fixed seeds per run) relies on.
///
/// Implementation: 24-byte (time, seq, slot) entries, with the actions
/// themselves parked in a slab indexed by `slot` so ordering operations
/// never move a callback, and zero heap allocations per event in steady
/// state (the backing vectors grow only when the pending set reaches a
/// new high-water mark; `reserve` pre-sizes them for a known depth).
///
/// Ladder-tier dispatch is software-pipelined: `pop` prefetches the
/// action slot of the event two places ahead, and a window around the
/// object the next event's action captured first
/// (`InlineAction::target_hint`): kTargetBack before it to kTargetSpan
/// after it. So at large k the cold slot, arrival process, source, node
/// and ready lines of one event load while the previous one runs. The
/// sorted tier issues no prefetch: its few slots and targets stay in
/// cache, so a prefetch there has no miss to hide and only costs issue
/// slots. Prefetches are hints only; they cannot change what fires.
///
/// The entry storage adapts across two tiers:
///
///  - Sorted (<= kArrayMax): one vector kept fully sorted, firing order
///    descending, so pop is a plain `pop_back` and push is one
///    insertion-sort step scanning from the back. Every paper-scale model
///    (~2k+2 pending events for k nodes) lives here.
///  - Ladder (above kArrayMax — large-k configs): a calendar-queue tier
///    (Brown, CACM 1988) whose dequeue end is the same descending sorted
///    array (the "front", as in Tang, Goh & Thng's ladder queue, ACM
///    TOMACS 2005). The remaining entries hash by firing time into
///    kBuckets fixed-width epoch buckets, the width sized from the
///    firing-time density at the head of the set (~kBucketTarget entries
///    per head bucket). A bucket is a chain threaded through a per-slot
///    `next` array, beside a per-slot (time, seq) key: 20 bytes per
///    bucketed slot, so the tier's storage is O(pending) whatever the
///    bucket occupancy, and a chain walk chases a compact array that
///    stays cache-resident while the key loads it issues overlap. The
///    earliest non-empty bucket is spilled into the front when the front
///    runs dry, one bucket at a time. Pop is a `pop_back`; far-future
///    pushes (at or beyond the front's latest entry — the common case for
///    arrival timers) are O(1) chain prepends; near-now pushes that must
///    interleave with the front (completion events) are one insertion
///    step into a front that holds roughly one bucket's worth of entries.
///    The top bucket is the beyond-epoch catch-all: instead of spilling,
///    it re-seeds a fresh epoch (as does the overflow chain once an epoch
///    is exhausted), so the front never inherits a whole epoch's tail. A
///    front that outgrows its epoch (a burst of near-now pushes) re-seeds
///    the whole ladder at the current density rather than grow into one
///    long sorted array, where every insertion would pay a long memmove.
///    At kSortLowWater the remaining entries gather back into the sorted
///    tier (wide hysteresis, no thrash).
///
/// A spill is ordered by distribution, not by comparison (the ladder
/// queue's idea of subdividing a bucket by time): the n spilled entries,
/// whose times span [lo, hi], are ranked r = min(n-1, floor((hi - at) *
/// (n / span))), placed by a counting pass over r, and finished by one
/// insertion pass in the exact (time, seq) order. Rounded subtraction and
/// multiplication by a positive constant are monotone, so r never rises
/// as `at` grows: entries of different ranks are already in order and
/// the insertion pass only reorders within a rank (equal times by seq).
/// A spill falls back to a comparison sort when it holds fewer than
/// kSpillMin or more than kSpillMax entries, when its span is zero or not
/// finite (all entries at one instant, +inf timers), or when any rank
/// holds more than kRankMax entries (a far outlier beside a tight
/// cluster), so its worst case stays O(n log n). The rank, count and
/// staging scratch is sized to kSpillMax once, on the first ladder entry.
///
/// Both tiers pop in the identical (time, seq) total order — the ladder
/// preserves it because (a) an entry joins the front only when it fires
/// strictly before the front's latest entry (everything bucketed fires
/// at-or-after that bound, since the time → bucket mapping is monotone
/// and spills always take the earliest remaining bucket), (b) a bucket is
/// ordered by (time, seq) when spilled, and (c) newly pushed entries
/// always hold the globally largest seq, so bucketing an equal-time push
/// is exactly FIFO. Tier switches are therefore invisible to the
/// simulation (trajectories are bit-for-bit the same; the goldens pin
/// this) and are surfaced only through the passive counters
/// (`mode_flips`, `ladder_spills`, `ladder_spilled`, `spill_fallbacks`,
/// `ladder_epochs`) the obs probes harvest.
class EventQueue {
 public:
  using Action = InlineAction;

  EventQueue() {
    entries_.reserve(kReserve);
    slots_.reserve(kReserve);
    free_.reserve(kReserve);
  }

  /// Schedules `action` to fire at absolute time `at`. Accepts any callable
  /// that fits an `InlineAction` and constructs it directly in its slot —
  /// no intermediate moves on the scheduling path.
  template <typename F>
  void push(Time at, F&& action) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(action));
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::forward<F>(action);
    }
    push_entry(at, slot);
  }

  /// True when no events remain.
  bool empty() const { return entries_.empty() && extra_ == 0; }

  /// Number of pending events.
  std::size_t size() const { return entries_.size() + extra_; }

  /// Firing time of the earliest event. Requires !empty(). (In the ladder
  /// the front is non-empty whenever the queue is — pop restores that
  /// invariant eagerly — so this stays a pure read.)
  Time next_time() const { return entries_.back().at; }

  /// Removes and returns the earliest event's action. Requires !empty().
  Action pop();

  /// Pre-sizes the entry/slot storage for an expected pending depth, so
  /// big-k configurations warm up without growth reallocations.
  void reserve(std::size_t expected_pending);

  /// Total number of events ever pushed.
  std::uint64_t pushed() const { return next_seq_; }

  /// Deepest the pending set has ever been (high-water mark).
  std::size_t max_pending() const { return max_pending_; }

  /// Layout transitions so far (sorted<->ladder, both directions).
  /// The paper-scale models should report 0 (pending set never outgrows
  /// kArrayMax); a non-zero count is the first sign a workload is pushing
  /// the kernel toward an adaptive boundary.
  std::uint64_t mode_flips() const { return mode_flips_; }

  /// Ladder bucket spills (bucket -> sorted front) so far.
  std::uint64_t ladder_spills() const { return ladder_spills_; }

  /// Entries those spills moved from buckets into the front.
  std::uint64_t ladder_spilled() const { return ladder_spilled_; }

  /// Spills ordered by the comparison-sort fallback rather than by the
  /// counting pass (see the class comment for when).
  std::uint64_t spill_fallbacks() const { return spill_fallbacks_; }

  /// Ladder epochs started so far (ladder entries, overflow re-seeds and
  /// re-seeds of an outgrown front).
  std::uint64_t ladder_epochs() const { return ladder_epochs_; }

 private:
  /// Initial capacity: deep enough for the paper-scale models (a k-node
  /// run keeps ~k completions + k+1 arrivals pending); the simulation
  /// reserves ~2k for larger runs.
  static constexpr std::size_t kReserve = 256;
  /// Largest pending set kept sorted; beyond this the ladder takes over.
  /// At 64 entries the insertion memmove averages ~0.8 KB — still cheaper
  /// than bucketing, and the ladder's front is this same array kept at
  /// about one bucket's worth of entries.
  static constexpr std::size_t kArrayMax = 64;
  /// The ladder gathers back into the sorted tier at this size.
  /// The wide hysteresis gap to kArrayMax keeps layout switches rare.
  static constexpr std::size_t kSortLowWater = 16;
  /// Epoch buckets. With head-density bucket sizing an epoch covers up to
  /// ~kBuckets * kBucketTarget entries before the tail re-seeds, so most
  /// entries are bucketed exactly once up to ~32k pending. A chain head is
  /// 4 bytes, so buckets are cheap: 1024 ran the k=1024 and k=8192-deep
  /// hold models 1.2-1.3x faster than 256 did (fewer tail re-seeds).
  static constexpr std::size_t kBuckets = 1024;
  /// Target entries per bucket near the epoch head. Bucket width is sized
  /// so the densest (head) buckets spill about this many entries: the
  /// spill sort stays cache-resident and front insertions stay short.
  static constexpr std::size_t kBucketTarget = 32;
  /// Front length past which a near-now push re-seeds the ladder instead
  /// of inserting (or twice the last spill, if that was longer).
  static constexpr std::size_t kFrontMax = 8 * kBucketTarget;
  /// Spill sizes ordered by the counting pass; outside [kSpillMin,
  /// kSpillMax] a spill is comparison-sorted. kSpillMax bounds the scratch.
  static constexpr std::size_t kSpillMin = 8;
  static constexpr std::size_t kSpillMax = kFrontMax;
  /// Most entries one rank may hold before a spill falls back to the
  /// comparison sort, bounding the insertion pass to O(n * kRankMax).
  static constexpr std::uint32_t kRankMax = 8;
  /// End of a bucket chain.
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  /// Current tier.
  enum class Layout : std::uint8_t { Sorted, Ladder };

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };

  /// A bucketed entry's order key, parked under its slot.
  struct Link {
    Time at;
    std::uint64_t seq;
  };

  /// Strict weak order "fires earlier": (time, insertion sequence).
  static bool before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void push_entry(Time at, std::uint32_t slot);
  void insert_sorted(const Entry& entry);  ///< sorted-tier insertion step

  // Ladder tier. The sorted front reuses entries_ (back = earliest); the
  // bucket and overflow chains hold the remaining `extra_` entries.
  std::size_t clamped_bucket(Time at) const;
  void park(const Entry& entry, std::uint32_t& head);  ///< chain prepend
  void unpark_chain(std::uint32_t& head);  ///< append a chain to entries_
  void sort_front();  ///< entries_ to descending order
  void spill(std::uint32_t& head);  ///< a bucket chain -> the empty front
  void ladder_push(const Entry& entry);
  void ladder_advance();          ///< spill/re-seed until the front fills
  void seed_epoch(std::uint32_t chain);  ///< size + distribute a chain
  void seed_from_entries();  ///< bucket entries_ into a fresh epoch
  void gather();              ///< append every bucketed entry to entries_
  void enter_ladder();        ///< sorted tier -> ladder
  void exit_ladder();         ///< ladder -> sorted tier

  /// Sorted descending (the sorted tier, or the ladder's front).
  std::vector<Entry> entries_;
  std::vector<Action> slots_;       ///< actions, stable while pending
  std::vector<std::uint32_t> free_; ///< recycled slot indices
  std::uint64_t next_seq_ = 0;
  Layout layout_ = Layout::Sorted;
  std::size_t max_pending_ = 0;     ///< pending-set high-water mark
  std::uint64_t mode_flips_ = 0;    ///< layout transitions (all directions)

  // Ladder state, set afresh by every epoch seed. Bucket b owns firing
  // times [start + b*w, start + (b+1)*w) of the current epoch; bucket
  // indices clamp into [next_bucket_, kBuckets-1], which is always
  // order-safe because a spill orders its bucket and the top bucket is
  // treated as unbounded. The overflow chain collects pushes that arrive
  // after the whole epoch has spilled; exhausting the buckets re-seeds a
  // new epoch from the overflow's span.
  std::vector<Link> links_;         ///< per slot; live while bucketed
  std::vector<std::uint32_t> next_; ///< per slot: next in chain, or kNil
  std::vector<std::uint32_t> bucket_head_;  ///< kBuckets, built lazily
  std::uint32_t overflow_head_ = kNil;
  std::size_t extra_ = 0;           ///< entries in bucket/overflow chains
  double bucket_start_ = 0;
  double bucket_inv_width_ = 1;  ///< 1/width: multiply on the push path
  std::size_t next_bucket_ = 0;     ///< first bucket not yet spilled
  /// Firing time of the latest entry placed in the front at the last
  /// spill (or singleton push). Pushes before this bound interleave into
  /// the front; everything else is bucketed — the bound never rises
  /// between spills, so bucketed entries always fire at-or-after the
  /// whole front.
  Time front_max_ = 0;
  std::size_t front_limit_ = kFrontMax;  ///< see kFrontMax
  std::uint64_t ladder_spills_ = 0;
  std::uint64_t ladder_spilled_ = 0;
  std::uint64_t spill_fallbacks_ = 0;
  std::uint64_t ladder_epochs_ = 0;
  // Spill scratch, kSpillMax each; empty until the ladder is first entered.
  std::vector<Entry> stage_;          ///< a spilled chain, unparked
  std::vector<std::uint32_t> rank_;   ///< per staged entry
  std::vector<std::uint32_t> count_;  ///< per rank, then its start offset
};

}  // namespace dsrt::sim
