#include "dsrt/sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace dsrt::sim {

namespace {

/// Single source of truth for the name-addressable queue modes: lookup,
/// error messages, and the CLI help vocabulary all read this table.
struct QueueModeRegistryEntry {
  std::string_view name;
  QueueMode mode;
};

constexpr QueueModeRegistryEntry kQueueModeRegistry[] = {
    {"adaptive", QueueMode::Adaptive},
    {"sorted", QueueMode::Sorted},
    {"heap", QueueMode::Heap},
    {"ladder", QueueMode::Ladder},
};

std::string mode_vocabulary() {
  std::string out;
  for (const auto& entry : kQueueModeRegistry) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

}  // namespace

QueueMode parse_queue_mode(std::string_view text) {
  std::string_view kind = text;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    // No mode is parameterized; rejecting the whole token (instead of
    // silently ignoring the suffix) keeps "ladder:junk" from running as a
    // half-parsed ladder.
    kind = text.substr(0, colon);
    for (const auto& entry : kQueueModeRegistry) {
      if (kind == entry.name)
        throw std::invalid_argument("parse_queue_mode: '" + std::string(kind) +
                                    "' takes no parameter (got '" +
                                    std::string(text) + "')");
    }
  }
  for (const auto& entry : kQueueModeRegistry) {
    if (text == entry.name) return entry.mode;
  }
  throw std::invalid_argument("parse_queue_mode: unknown mode '" +
                              std::string(text) + "' (want " +
                              mode_vocabulary() + ")");
}

std::string_view queue_mode_name(QueueMode mode) {
  for (const auto& entry : kQueueModeRegistry)
    if (entry.mode == mode) return entry.name;
  return "adaptive";  // unreachable
}

std::vector<std::string_view> queue_mode_names() {
  std::vector<std::string_view> names;
  for (const auto& entry : kQueueModeRegistry) names.push_back(entry.name);
  return names;
}

void EventQueue::set_mode(QueueMode mode) {
  if (!empty())
    throw std::logic_error("EventQueue::set_mode: queue not empty");
  mode_ = mode;
  // Forced-heap starts (and stays) in heap layout; everything else starts
  // from the sorted layout and grows into its tier, so no flip is counted
  // for the forcing itself.
  layout_ = mode == QueueMode::Heap ? Layout::Heap : Layout::Sorted;
}

void EventQueue::reserve(std::size_t expected_pending) {
  const std::size_t n = std::max(expected_pending, kReserve);
  entries_.reserve(n);
  slots_.reserve(n);
  free_.reserve(n);
}

std::size_t EventQueue::sorted_limit() const {
  return mode_ == QueueMode::Sorted ? static_cast<std::size_t>(-1)
                                    : kArrayMax;
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
  // order of every other layout.
  std::size_t i = entries_.size();
  entries_.emplace_back();
  while (i > 0 && before(entries_[i - 1], entry)) {
    entries_[i] = entries_[i - 1];
    --i;
  }
  entries_[i] = entry;
}

void EventQueue::heap_push(const Entry& entry) {
  // Sift up with a hole: parents shift down until the insertion slot is
  // found, and the new entry is written exactly once.
  std::size_t i = entries_.size();
  entries_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, entries_[parent])) break;
    entries_[i] = entries_[parent];
    i = parent;
  }
  entries_[i] = entry;
}

std::size_t EventQueue::clamped_bucket(Time at) const {
  // One consistent mapping for pushes, ladder entry, and re-seeds, so a
  // floating-point boundary can never classify the same time two ways.
  // NaN / below-epoch times map to bucket 0; at-or-beyond-epoch times
  // clamp into the top bucket (treated as unbounded — safe because every
  // spill re-sorts); already-spilled buckets clamp up to next_bucket_
  // (safe for the same reason: such entries fire after the whole front,
  // whose test in ladder_push they just failed).
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
  // Links live under the entry's slot, so they need no storage beyond one
  // record per slot ever allocated; growing with slots_' capacity keeps
  // the resize to the pending set's high-water marks.
  if (entry.slot >= links_.size()) links_.resize(slots_.capacity());
  links_[entry.slot] = {entry.at, entry.seq, head};
  head = entry.slot;
}

void EventQueue::unpark_chain(std::uint32_t& head) {
  for (std::uint32_t s = head; s != kNil; s = links_[s].next)
    entries_.push_back({links_[s].at, links_[s].seq, s});
  head = kNil;
}

void EventQueue::sort_front() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return before(b, a); });
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
        // sorts.
        Time lo = links_[head].at;
        Time hi = lo;
        std::uint32_t tail = head;
        for (std::uint32_t s = head; s != kNil; s = links_[s].next) {
          if (links_[s].at < lo) lo = links_[s].at;
          if (links_[s].at > hi) hi = links_[s].at;
          tail = s;
        }
        if (std::isfinite(lo) && lo < hi) {
          links_[tail].next = overflow_head_;
          overflow_head_ = head;
          head = kNil;
          next_bucket_ = kBuckets;  // re-seed from the overflow below
          continue;
        }
      }
      // Spill the earliest non-empty bucket into the (empty) front and
      // sort it descending: ~kBucketTarget entries, cache-resident.
      unpark_chain(head);
      extra_ -= entries_.size();
      sort_front();
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
  for (std::uint32_t s = chain; s != kNil; s = links_[s].next) {
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
    Link& link = links_[s];
    const std::uint32_t next = link.next;
    std::uint32_t& head = bucket_head_[clamped_bucket(link.at)];
    link.next = head;
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
  if (bucket_head_.empty()) bucket_head_.assign(kBuckets, kNil);
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
  switch (layout_) {
    case Layout::Sorted: {
      if (n < sorted_limit()) {
        insert_sorted(entry);
        return;
      }
      // Outgrew the sorted range: bucket everything into the ladder.
      enter_ladder();
      ladder_push(entry);
      return;
    }
    case Layout::Heap:
      heap_push(entry);
      return;
    case Layout::Ladder:
      ladder_push(entry);
      return;
  }
}

EventQueue::Action EventQueue::heap_pop_root() {
  const std::uint32_t slot = entries_.front().slot;
  Action action = std::move(slots_[slot]);
  free_.push_back(slot);
  const Entry last = entries_.back();
  entries_.pop_back();
  const std::size_t n = entries_.size();
  if (n > 0) {
    // Sift down with a hole: pull the earliest child up until `last`
    // (the displaced tail entry) finds its place.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(entries_[c], entries_[best])) best = c;
      if (!before(entries_[best], last)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = last;
  }
  return action;
}

EventQueue::Action EventQueue::pop() {
  switch (layout_) {
    case Layout::Sorted: {
      // Sorted mode: the earliest event sits at the back.
      const std::uint32_t slot = entries_.back().slot;
      entries_.pop_back();
      Action action = std::move(slots_[slot]);
      free_.push_back(slot);
      return action;
    }
    case Layout::Heap:
      return heap_pop_root();
    case Layout::Ladder: {
      // The front is sorted descending, like the sorted tier.
      const std::uint32_t slot = entries_.back().slot;
      entries_.pop_back();
      Action action = std::move(slots_[slot]);
      free_.push_back(slot);
      if (entries_.empty() && extra_ > 0) ladder_advance();
      const std::size_t n = size();
      if (n == 0) {
        layout_ = Layout::Sorted;  // drained: the next burst starts sorted
      } else if (mode_ == QueueMode::Adaptive && n <= kSortLowWater) {
        exit_ladder();
      }
      return action;
    }
  }
  return Action{};  // unreachable
}

}  // namespace dsrt::sim
