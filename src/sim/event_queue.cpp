#include "dsrt/sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dsrt::sim {

void EventQueue::reserve(std::size_t expected_pending) {
  const std::size_t n = std::max(expected_pending, kReserve);
  entries_.reserve(n);
  slots_.reserve(n);
  free_.reserve(n);
}

// Forced inline: with the ladder front as a second caller the compiler
// would otherwise call out of line from the sorted tier's push, the
// paper-scale hot path.
[[gnu::always_inline]] inline void EventQueue::insert_sorted(
    const Entry& entry) {
  // Descending firing order (earliest at the back). One insertion-sort
  // step scanning from the back: a new event usually fires after only a
  // handful of already-pending ones, so the predictable short scan beats
  // a binary search here. Equal times resolve by sequence, so the
  // position is unique and the pop order is the exact (time, seq) total
  // order the ladder tier pops too.
  std::size_t i = entries_.size();
  entries_.emplace_back();
  while (i > 0 && before(entries_[i - 1], entry)) {
    entries_[i] = entries_[i - 1];
    --i;
  }
  entries_[i] = entry;
}

std::size_t EventQueue::clamped_bucket(Time at) const {
  // One consistent mapping for pushes, ladder entry, and re-seeds, so a
  // floating-point boundary can never classify the same time two ways.
  // NaN / below-epoch times map to bucket 0; at-or-beyond-epoch times
  // clamp into the top bucket (treated as unbounded — safe because every
  // spill orders its bucket); already-spilled buckets clamp up to
  // next_bucket_ (safe for the same reason: such entries fire after the
  // whole front, whose test in ladder_push they just failed).
  const double f = (at - bucket_start_) * bucket_inv_width_;
  std::size_t idx = 0;
  if (f >= static_cast<double>(kBuckets)) {
    idx = kBuckets - 1;
  } else if (f >= 1.0) {
    idx = static_cast<std::size_t>(f);
  }
  if (idx < next_bucket_) idx = next_bucket_;
  return idx;
}

void EventQueue::park(const Entry& entry, std::uint32_t& head) {
  // Keys and links live under the entry's slot, so they need no storage
  // beyond one record per slot ever allocated; growing with slots_'
  // capacity keeps the resize to the pending set's high-water marks.
  if (entry.slot >= links_.size()) {
    links_.resize(slots_.capacity());
    next_.resize(slots_.capacity());
  }
  links_[entry.slot] = {entry.at, entry.seq};
  next_[entry.slot] = head;
  head = entry.slot;
}

void EventQueue::unpark_chain(std::uint32_t& head) {
  for (std::uint32_t s = head; s != kNil; s = next_[s])
    entries_.push_back({links_[s].at, links_[s].seq, s});
  head = kNil;
}

void EventQueue::sort_front() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return before(b, a); });
}

// Out of line, so neither ladder_advance nor pop carries its body.
[[gnu::noinline]] void EventQueue::spill(std::uint32_t& head) {
  // Unpark the chain into the staging buffer, noting its time span. The
  // walk chases only next_, so the key loads it issues overlap.
  Entry* const stage = stage_.data();
  std::size_t n = 0;
  Time lo = links_[head].at;
  Time hi = lo;
  std::uint32_t s = head;
  for (; s != kNil && n < kSpillMax; s = next_[s]) {
    const Link& link = links_[s];
    stage[n++] = {link.at, link.seq, s};
    lo = std::min(lo, link.at);
    hi = std::max(hi, link.at);
  }
  head = kNil;
  const double span = hi - lo;
  const double scale = static_cast<double>(n) / span;
  if (s == kNil && n >= kSpillMin && std::isfinite(span) && span > 0 &&
      std::isfinite(scale)) {
    // Rank by distance below the latest time, so rank 0 is the front's
    // far end. The clamp also keeps a NaN time's rank in range.
    std::uint32_t* const rank = rank_.data();
    std::uint32_t* const count = count_.data();
    std::fill_n(count, n, 0u);
    const auto last = static_cast<std::uint32_t>(n - 1);
    std::uint32_t crowd = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = (hi - stage[i].at) * scale;
      const std::uint32_t r =
          f < static_cast<double>(last) ? static_cast<std::uint32_t>(f)
                                        : last;
      rank[i] = r;
      crowd = std::max(crowd, ++count[r]);
    }
    if (crowd <= kRankMax) {
      std::uint32_t start = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const std::uint32_t c = count[r];
        count[r] = start;
        start += c;
      }
      entries_.resize(n);
      Entry* const front = entries_.data();
      for (std::size_t i = 0; i < n; ++i) front[count[rank[i]]++] = stage[i];
      // Ranks are already in order; finish each one by (time, seq).
      for (std::size_t i = 1; i < n; ++i) {
        const Entry e = front[i];
        std::size_t j = i;
        while (j > 0 && before(front[j - 1], e)) {
          front[j] = front[j - 1];
          --j;
        }
        front[j] = e;
      }
      return;
    }
  }
  // Too few, too many, one instant, unbounded or crowded: compare.
  entries_.assign(stage, stage + n);
  unpark_chain(s);
  sort_front();
  ++spill_fallbacks_;
}

void EventQueue::ladder_push(const Entry& entry) {
  if (entries_.empty() && extra_ == 0) {
    entries_.push_back(entry);
    front_max_ = entry.at;
    return;
  }
  // The front accepts an entry only if it fires strictly before the bound
  // set at the last spill; an equal-time push carries the globally
  // largest seq, so bucketing it preserves exact FIFO among simultaneous
  // events. Near-now pushes (completions) are one short insertion step
  // here; the common far-future push (arrival timers) falls through to an
  // O(1) chain prepend.
  if (!entries_.empty() && entry.at < front_max_) {
    if (entries_.size() < front_limit_) {
      insert_sorted(entry);
      return;
    }
    // The front outgrew its epoch: a burst of pushes landed in its span
    // since the last spill, and each further one would pay a long
    // insertion memmove. Re-seed the whole set at its current density.
    gather();
    seed_from_entries();
    if (entry.at < front_max_) {
      insert_sorted(entry);
      return;
    }
  }
  park(entry, next_bucket_ >= kBuckets
                  ? overflow_head_
                  : bucket_head_[clamped_bucket(entry.at)]);
  ++extra_;
  if (entries_.empty()) ladder_advance();  // keep the front invariant
}

void EventQueue::ladder_advance() {
  while (entries_.empty()) {
    while (next_bucket_ < kBuckets && bucket_head_[next_bucket_] == kNil)
      ++next_bucket_;
    if (next_bucket_ < kBuckets) {
      std::uint32_t& head = bucket_head_[next_bucket_];
      if (next_bucket_ == kBuckets - 1) {
        // The top bucket is the beyond-epoch catch-all: it accumulates
        // every at-or-past-the-horizon push for the whole epoch, so by the
        // time it is reached it holds on the order of the entire pending
        // set. Spilling it into the front directly would sort thousands of
        // entries and raise front_max_ to the epoch's far tail, sending
        // every later push into the front — the ladder would spend half of
        // each cycle degenerated into one long insertion sort. Re-seed it
        // as a fresh epoch instead whenever its span is still
        // subdividable; the remainder (one shared instant, or nothing
        // finite — where re-bucketing cannot make progress) falls through
        // to the direct spill, which stays order-safe because the spill
        // orders its entries.
        Time lo = links_[head].at;
        Time hi = lo;
        std::uint32_t tail = head;
        for (std::uint32_t s = head; s != kNil; s = next_[s]) {
          if (links_[s].at < lo) lo = links_[s].at;
          if (links_[s].at > hi) hi = links_[s].at;
          tail = s;
        }
        if (std::isfinite(lo) && lo < hi) {
          next_[tail] = overflow_head_;
          overflow_head_ = head;
          head = kNil;
          next_bucket_ = kBuckets;  // re-seed from the overflow below
          continue;
        }
      }
      // Spill the earliest non-empty bucket into the (empty) front in
      // descending order: ~kBucketTarget entries, cache-resident.
      spill(head);
      extra_ -= entries_.size();
      ladder_spilled_ += entries_.size();
      front_max_ = entries_.front().at;
      // Doubling the spill size keeps the re-seeds of a front that is
      // legitimately large (many entries at one instant) amortized O(1).
      front_limit_ = std::max(kFrontMax, 2 * entries_.size());
      ++next_bucket_;
      ++ladder_spills_;
      return;
    }
    if (overflow_head_ == kNil) return;  // queue fully drained (extra_ == 0)
    // Epoch exhausted: re-seed a new one from the overflow.
    // Each pass redistributes everything into buckets (clamped, never back
    // into overflow). An entry can return via the top-bucket merge above,
    // but only while that bucket still spans more than one finite instant —
    // every pass moves the sub-maximum entries into lower buckets, so the
    // loop terminates even for degenerate (equal / infinite) firing times.
    const std::uint32_t chain = overflow_head_;
    overflow_head_ = kNil;
    seed_epoch(chain);
    ++ladder_epochs_;
  }
}

void EventQueue::seed_epoch(std::uint32_t chain) {
  // Bucket width comes from the density at the epoch's *head*, not from
  // its full span: firing times in a DES cluster near now with a sparse
  // far tail (timers), so span/kBuckets would hand the head bucket — and
  // therefore the front — hundreds of entries. Estimating the head
  // density as n / mean-excess (exact for an exponential profile, the
  // classic calendar-queue sizing) keeps head spills near kBucketTarget;
  // whatever the short dense epoch does not cover lands in the top-bucket
  // catch-all and simply re-seeds later. The span-based width remains as
  // the cap so sparse sets still cover themselves in one epoch.
  Time lo = links_[chain].at;
  Time hi = lo;
  double sum = 0;
  std::size_t count = 0;
  for (std::uint32_t s = chain; s != kNil; s = next_[s]) {
    const Time at = links_[s].at;
    if (at < lo) lo = at;
    if (at > hi) hi = at;
    sum += at;
    ++count;
  }
  if (!std::isfinite(lo)) lo = 0;  // every remaining event at +-inf
  double width = (hi - lo) / static_cast<double>(kBuckets);
  const double n = static_cast<double>(count);
  const double mean_excess = sum / n - lo;
  if (std::isfinite(mean_excess) && mean_excess > 0) {
    const double dense =
        static_cast<double>(kBucketTarget) * mean_excess / n;
    if (dense < width) width = dense;
  }
  if (!(width > 0) || !std::isfinite(width)) width = 1.0;
  bucket_start_ = lo;
  bucket_inv_width_ = 1.0 / width;
  next_bucket_ = 0;
  for (std::uint32_t s = chain; s != kNil;) {
    const std::uint32_t next = next_[s];
    std::uint32_t& head = bucket_head_[clamped_bucket(links_[s].at)];
    next_[s] = head;
    head = s;
    s = next;
  }
}

void EventQueue::seed_from_entries() {
  std::uint32_t chain = kNil;
  for (const Entry& e : entries_) park(e, chain);
  extra_ += entries_.size();
  entries_.clear();
  seed_epoch(chain);
  ++ladder_epochs_;
  ladder_advance();  // establish the front invariant
}

void EventQueue::gather() {
  for (std::size_t b = next_bucket_; b < kBuckets; ++b)
    unpark_chain(bucket_head_[b]);
  unpark_chain(overflow_head_);
  extra_ = 0;
}

void EventQueue::enter_ladder() {
  if (bucket_head_.empty()) {
    bucket_head_.assign(kBuckets, kNil);
    stage_.resize(kSpillMax);
    rank_.resize(kSpillMax);
    count_.resize(kSpillMax);
  }
  layout_ = Layout::Ladder;
  ++mode_flips_;
  seed_from_entries();
}

void EventQueue::exit_ladder() {
  // Everything still bucketed fires after the whole front; gather it
  // behind the front and restore the sorted tier's descending order.
  gather();
  sort_front();
  layout_ = Layout::Sorted;
  ++mode_flips_;
}

void EventQueue::push_entry(Time at, std::uint32_t slot) {
  const Entry entry{at, next_seq_++, slot};
  const std::size_t n = size();
  if (n >= max_pending_) max_pending_ = n + 1;
  if (layout_ == Layout::Ladder) {
    ladder_push(entry);
  } else if (n < kArrayMax) {
    insert_sorted(entry);
  } else {
    // Outgrew the sorted range: bucket everything into the ladder.
    enter_ladder();
    ladder_push(entry);
  }
}

EventQueue::Action EventQueue::pop() {
  // Both tiers keep the earliest event at the back (the ladder's front is
  // sorted descending, like the sorted tier).
  const std::uint32_t slot = entries_.back().slot;
  entries_.pop_back();
  Action action = std::move(slots_[slot]);
  free_.push_back(slot);
  if (layout_ == Layout::Ladder) {
    if (entries_.empty() && extra_ > 0) ladder_advance();
    if (size() <= kSortLowWater) exit_ladder();
    // Software-pipelined dispatch (Chen, Ailamaki, Gibbons & Mowry, ICDE
    // 2004): while the popped event runs, fetch the memory of the next
    // two. At large k each event's slot, and the state its action runs
    // on, is cold; touched on first use it stalls the loop one miss after
    // another. Stage one fetches the action slot of the event two places
    // ahead (both lines: slots are not line-aligned). Stage two fetches
    // the state of the next event: its slot was stage one of the previous
    // pop, so reading the hint is a cache hit. It covers the lines from
    // kTargetBack before the hint, where a source's arrival process sits,
    // to kTargetSpan after it, which reaches from a source through its
    // node and from a node into its first ready entries. A prefetch never
    // faults and never changes what runs, so an arbitrary hint is
    // harmless (a null or wrapping one issues nothing). Only the ladder
    // tier (more than kArrayMax pending) pays for this: the sorted tier's
    // few slots and targets stay in cache, and there the prefetches cost
    // fig2_eqf ~5 % with no miss to hide. (Kept inline: as a separate
    // function, link-time optimization proved it free of effects and
    // deleted the call.)
    const std::size_t n = entries_.size();
    if (n >= 2) {
      const auto* ahead =
          reinterpret_cast<const char*>(&slots_[entries_[n - 2].slot]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Action) - 1);
    }
    if (n >= 1) {
      const auto target = reinterpret_cast<std::uintptr_t>(
          slots_[entries_[n - 1].slot].target_hint());
      const std::uintptr_t end = target + kTargetSpan;
      for (std::uintptr_t line = (target & ~(kCacheLine - 1)) - kTargetBack;
           line < end; line += kCacheLine)
        __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }
  return action;
}

}  // namespace dsrt::sim
