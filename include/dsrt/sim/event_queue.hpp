#pragma once

#include <cstdint>
#include <cstddef>
#include <string_view>
#include <vector>

#include "dsrt/sim/inline_action.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::sim {

/// Layout discipline of the pending-event set. `Adaptive` (default) picks
/// the layout from the pending count — sorted array, then ladder — with
/// hysteresis at the boundary; the other values pin one layout for
/// differential tests and A/B benchmarks (`Heap`, a 4-ary heap, is never
/// chosen adaptively: it is the order oracle and the A/B partner). All four
/// pop the identical (time, seq) total order, so the choice can never
/// change a trajectory, only its speed.
enum class QueueMode : std::uint8_t { Adaptive, Sorted, Heap, Ladder };

/// Parses "adaptive" | "sorted" | "heap" | "ladder". Modes take no
/// parameter; any ":..." suffix or unknown name is rejected with the full
/// registry vocabulary in the message (like the placement/load-model specs).
QueueMode parse_queue_mode(std::string_view text);

/// Canonical name of a mode (inverse of parse_queue_mode).
std::string_view queue_mode_name(QueueMode mode);

/// Every name parse_queue_mode accepts, in registry order; the CLI builds
/// --help and error vocabulary from this.
std::vector<std::string_view> queue_mode_names();

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
/// state (every backing vector is reserved up front and only grows when
/// the pending set reaches a new high-water mark).
///
/// The entry storage is *adaptive* across two tiers:
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
///    `next` index, so the tier's storage is O(pending) whatever the
///    bucket occupancy. The earliest non-empty bucket is spilled into the
///    front and sorted, one bucket at a time, when the front runs dry.
///    Pop is a `pop_back`; far-future pushes (at or beyond the front's
///    latest entry — the common case for arrival timers) are O(1) chain
///    prepends; near-now pushes that must interleave with the front
///    (completion events) are one insertion step into a front that holds
///    roughly one bucket's worth of entries. The top bucket is the
///    beyond-epoch catch-all: instead of spilling, it re-seeds a fresh
///    epoch (as does the overflow chain once an epoch is exhausted), so
///    the front never inherits a whole epoch's tail. A front that outgrows
///    its epoch (a burst of near-now pushes) re-seeds the whole ladder at
///    the current density rather than grow into one long sorted array,
///    where every insertion would pay a long memmove. At kSortLowWater the
///    remaining entries gather back into the sorted tier (wide hysteresis,
///    no thrash).
///
/// Forced `Heap` mode keeps the vector as an implicit 4-ary min-heap.
///
/// All layouts pop in the identical (time, seq) total order — the ladder
/// preserves it because (a) an entry joins the front only when it fires
/// strictly before the front's latest entry (everything bucketed fires
/// at-or-after that bound, since the time → bucket mapping is monotone
/// and spills always take the earliest remaining bucket), (b) a bucket is
/// sorted by (time, seq) when spilled, and (c) newly pushed entries
/// always hold the globally largest seq, so bucketing an equal-time push
/// is exactly FIFO. Tier switches are therefore invisible to the
/// simulation (trajectories are bit-for-bit the same; the goldens pin
/// this) and are surfaced only through the passive counters
/// (`mode_flips`, `ladder_spills`, `ladder_epochs`) the obs probes
/// harvest.
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

  /// Firing time of the earliest event. Requires !empty(). (In ladder
  /// layout the front is non-empty whenever the queue is — pop restores
  /// that invariant eagerly — so this stays a pure read; only the forced
  /// heap keeps the earliest entry at the front of the vector.)
  Time next_time() const {
    return layout_ == Layout::Heap ? entries_.front().at : entries_.back().at;
  }

  /// Removes and returns the earliest event's action. Requires !empty().
  Action pop();

  /// Forces a layout discipline. Only callable while the queue is empty
  /// (throws std::logic_error otherwise): a forced layout applies from the
  /// first push, so there is never a mid-run migration to order-check.
  void set_mode(QueueMode mode);
  QueueMode mode() const { return mode_; }

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

  /// Ladder epochs started so far (ladder entries, overflow re-seeds and
  /// re-seeds of an outgrown front).
  std::uint64_t ladder_epochs() const { return ladder_epochs_; }

 private:
  /// Initial capacity: deep enough for every model in the repo (a k-node
  /// run keeps ~k completions + k+1 arrivals pending), so the common case
  /// never reallocates after construction.
  static constexpr std::size_t kReserve = 256;
  /// Heap arity; children of node i are kArity*i + 1 ... kArity*i + kArity.
  static constexpr std::size_t kArity = 4;
  /// Largest pending set kept sorted; beyond this the ladder takes over.
  /// At 64 entries the insertion memmove averages ~0.8 KB — still cheaper
  /// than bucketing, and the ladder's front is this same array kept at
  /// about one bucket's worth of entries.
  static constexpr std::size_t kArrayMax = 64;
  /// The adaptive ladder gathers back into the sorted tier at this size.
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
  /// End of a bucket chain.
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  /// Current physical layout (mode_ is the *policy*, this is the state).
  enum class Layout : std::uint8_t { Sorted, Heap, Ladder };

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };

  /// A bucketed entry, parked under its slot: its order key and the slot
  /// of the next entry in the same chain (kNil ends the chain).
  struct Link {
    Time at;
    std::uint64_t seq;
    std::uint32_t next;
  };

  /// Strict weak order "fires earlier": (time, insertion sequence).
  static bool before(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void push_entry(Time at, std::uint32_t slot);
  void insert_sorted(const Entry& entry);  ///< sorted-tier insertion step
  void heap_push(const Entry& entry);      ///< sift-up with a hole
  Action heap_pop_root();  ///< root pop + sift-down (forced heap)

  // Ladder tier. The sorted front reuses entries_ (back = earliest); the
  // bucket and overflow chains hold the remaining `extra_` entries.
  std::size_t sorted_limit() const;        ///< mode-dependent kArrayMax
  std::size_t clamped_bucket(Time at) const;
  void park(const Entry& entry, std::uint32_t& head);  ///< chain prepend
  void unpark_chain(std::uint32_t& head);  ///< append a chain to entries_
  void sort_front();  ///< entries_ to descending order
  void ladder_push(const Entry& entry);
  void ladder_advance();          ///< spill/re-seed until the front fills
  void seed_epoch(std::uint32_t chain);  ///< size + distribute a chain
  void seed_from_entries();  ///< bucket entries_ into a fresh epoch
  void gather();              ///< append every bucketed entry to entries_
  void enter_ladder();        ///< sorted tier -> ladder
  void exit_ladder();         ///< ladder -> sorted tier

  /// Sorted descending (the sorted tier, or the ladder's front), or the
  /// forced 4-ary heap.
  std::vector<Entry> entries_;
  std::vector<Action> slots_;       ///< actions, stable while pending
  std::vector<std::uint32_t> free_; ///< recycled slot indices
  std::uint64_t next_seq_ = 0;
  QueueMode mode_ = QueueMode::Adaptive;
  Layout layout_ = Layout::Sorted;
  std::size_t max_pending_ = 0;     ///< pending-set high-water mark
  std::uint64_t mode_flips_ = 0;    ///< layout transitions (all directions)

  // Ladder state, set afresh by every epoch seed. bucket b owns firing times [start + b*w, start + (b+1)*w)
  // of the current epoch; bucket indices clamp into [next_bucket_,
  // kBuckets-1], which is always order-safe because a spill sorts and
  // the top bucket is treated as unbounded. The overflow chain collects
  // pushes that arrive after the whole epoch has spilled; exhausting the
  // buckets re-seeds a new epoch from the overflow's span.
  std::vector<Link> links_;         ///< per slot; live while bucketed
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
  std::uint64_t ladder_epochs_ = 0;
};

}  // namespace dsrt::sim
