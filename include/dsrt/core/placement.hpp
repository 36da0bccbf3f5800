#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/core/eligible_set.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::core {

/// Everything a placement policy may consult when one simple subtask is
/// bound to an execution node at dispatch time. The candidate set itself is
/// passed separately (the engine strips nodes already taken by siblings of
/// the same parallel group before asking).
struct PlacementContext {
  sim::Time now = 0;
  /// System-state view (same board the load-aware deadline strategies
  /// read; freshness — exact/sampled/stale — applies to placement too).
  /// nullptr = no state information wired.
  const LoadModel* load = nullptr;
  /// The workload generator's seed-stream draw for this leaf. Static
  /// placement returns it verbatim, which is what keeps a `static` run
  /// bit-for-bit identical to a build without the placement subsystem.
  NodeId hint = kNoNode;
};

/// The nodes one placement decision chooses among, as a view: a leaf's
/// EligibleSet minus the positions (in eligible-set order) of the few
/// nodes simple siblings of the same parallel group already took. Nothing
/// is copied, so an interval candidate set over k nodes costs O(|taken|)
/// to build and to index, not O(k).
class Candidates {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    iterator() = default;
    iterator(const Candidates& c, std::size_t pos, std::size_t skip)
        : set_(c.set_), skipped_(c.skipped_), pos_(pos), skip_(skip) {
      settle();
    }
    NodeId operator*() const { return set_[pos_]; }
    iterator& operator++() {
      ++pos_;
      settle();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const iterator& o) const { return pos_ != o.pos_; }

   private:
    /// Steps over skipped positions.
    void settle() {
      while (skip_ < skipped_.size() && skipped_[skip_] == pos_) {
        ++pos_;
        ++skip_;
      }
    }

    EligibleSet set_;
    std::span<const std::uint32_t> skipped_;
    std::size_t pos_ = 0;
    std::size_t skip_ = 0;
  };

  /// All of an explicit list (the span entry point of PlacementPolicy).
  explicit Candidates(std::span<const NodeId> ids)
      : set_(EligibleSet::list(ids)) {}
  /// `set` minus the positions `skipped`: ascending, distinct, each below
  /// set.size(). The span must outlive the view.
  Candidates(EligibleSet set, std::span<const std::uint32_t> skipped)
      : set_(set), skipped_(skipped) {}

  std::size_t size() const { return set_.size() - skipped_.size(); }
  bool empty() const { return size() == 0; }

  /// The i-th candidate in eligible-set order, i < size(). O(|skipped|).
  NodeId operator[](std::size_t i) const {
    std::size_t pos = i;
    for (const std::uint32_t p : skipped_) {
      if (p > pos) break;
      ++pos;
    }
    return set_[pos];
  }
  bool contains(NodeId node) const {
    const std::size_t pos = set_.position(node);
    if (pos == set_.size()) return false;
    for (const std::uint32_t p : skipped_)
      if (p == pos) return false;
    return true;
  }

  const EligibleSet& eligible() const { return set_; }
  std::span<const std::uint32_t> skipped() const { return skipped_; }

  iterator begin() const { return iterator(*this, 0, 0); }
  iterator end() const { return iterator(*this, set_.size(), 0); }

 private:
  EligibleSet set_;
  std::span<const std::uint32_t> skipped_;
};

class PlacementPolicy;
using PlacementPolicyPtr = std::shared_ptr<const PlacementPolicy>;

/// Dispatch-time node selection for placeable subtasks (the join-shortest-
/// queue family of the load-sharing literature; the natural next consumer
/// of the paper's "system state information" extension after deadline
/// assignment). Policies are consulted once per placeable leaf, when the
/// stage holding it becomes ready.
/// Passive per-run decision accounting, harvested by the obs probes.
/// Incremented by the policies themselves (and by the assigner, for the
/// distinct-site restriction it applies before asking); plain integer
/// bumps, so the dispatch hot path never allocates for them.
struct PlacementCounters {
  std::uint64_t decisions = 0;       ///< place() calls answered
  std::uint64_t exact_ties = 0;      ///< decisions with >1 minimal-key node
  std::uint64_t hint_fallbacks = 0;  ///< static: hint absent from candidates
  /// Decisions whose candidate set was restricted by the distinct-site
  /// constraint (simple siblings of the same parallel group had already
  /// pinned nodes).
  std::uint64_t restricted = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Picks one node from `candidates` (non-empty; the leaf's eligible set
  /// minus nodes already taken by simple siblings of the same parallel
  /// group, in eligible-set order). Must return an element of `candidates`.
  virtual NodeId place(const PlacementContext& ctx,
                       std::span<const NodeId> candidates) const = 0;
  /// The same decision over a candidate view — what the assigner calls.
  /// The built-in policies implement only this (their span place() wraps
  /// the span and forwards), so each has one algorithm. This default
  /// copies the view into a scratch list and calls place(): it serves
  /// decorators that override only the span entry, at O(candidates).
  virtual NodeId place_among(const PlacementContext& ctx,
                             const Candidates& candidates) const;
  virtual std::string_view name() const = 0;

  const PlacementCounters& counters() const { return counters_; }

  /// The assigner marks a decision as distinct-site-restricted just before
  /// calling place(). Mutable-in-const like the jsq tie rotation: policies
  /// are per-run and a run is single-threaded.
  void record_restricted() const { ++counters_.restricted; }

 protected:
  mutable PlacementCounters counters_;

 private:
  /// Scratch of the default place_among; grows to its high-water mark once.
  mutable std::vector<NodeId> materialized_;
};

/// Seed-compatible placement: returns the generator's node draw (the
/// `hint`), so a run with `--placement=static` reproduces every golden bit
/// for bit. Falls back to the first candidate for hand-built specs whose
/// hint is absent from the candidate set.
class StaticPlacement final : public PlacementPolicy {
 public:
  NodeId place(const PlacementContext& ctx,
               std::span<const NodeId> candidates) const override {
    return place_among(ctx, Candidates(candidates));
  }
  NodeId place_among(const PlacementContext& ctx,
                     const Candidates& candidates) const override;
  std::string_view name() const override { return "static"; }
};

/// Join-shortest-queue placement: picks the candidate with the smallest
/// load key — queued predicted work (`jsq-pex`) or the utilization EWMA
/// (`jsq-util`) — as reported by the run's LoadModel, so snapshot/stale
/// freshness degrades placement exactly like it degrades deadline
/// assignment. Exact ties (ubiquitous on an idle board, where every key is
/// zero) rotate deterministically through a per-run sequence counter, so an
/// unloaded system degenerates to round-robin rather than piling onto node
/// 0. With no LoadModel wired every key is zero and the policy *is*
/// round-robin — a useful placement baseline in its own right.
///
/// Cost: `jsq-pex` over an interval candidate set, with a model that
/// exposes a BacklogIndex (the exact model does), takes one model read and
/// gives the scan's answer, counters and sequence step exactly. When some
/// candidate's key is exactly 0 (an idle node, since an empty account
/// reads exactly 0), the zero bitset answers in O(k/64 + |taken|) word
/// operations: (0, zeros) over the interval minus the taken nodes —
/// O(|taken|) when the interval is the whole board — then the
/// (seq % zeros)-th zero in node order.
/// Otherwise the tree is flushed (each leaf written since the last flush
/// re-pulls its changed ancestors) and answers in O((|taken| + 1) log k):
/// (min, ties), then the (seq % ties)-th minimum. Everything else scans the
/// candidates with one model read each (O(n)): `jsq-util`, sampled/stale
/// and decorated models, explicit lists, and an all-down (+inf) minimum.
///
/// The counter is mutable-in-const for the same reason as AdaptiveDivX's
/// adaptation state: policy handles are shared as pointers-to-const, but
/// every simulation run constructs its own instance from the declarative
/// `PlacementSpec`, and a run is single-threaded, so the mutation is
/// race-free and `--jobs`-invariant.
class JsqPlacement final : public PlacementPolicy {
 public:
  enum class Key : std::uint8_t { QueuedPex, Utilization };

  explicit JsqPlacement(Key key) : key_(key) {}

  NodeId place(const PlacementContext& ctx,
               std::span<const NodeId> candidates) const override {
    return place_among(ctx, Candidates(candidates));
  }
  NodeId place_among(const PlacementContext& ctx,
                     const Candidates& candidates) const override;
  std::string_view name() const override {
    return key_ == Key::QueuedPex ? "jsq-pex" : "jsq-util";
  }

  /// Placements decided so far (tie-rotation position); for tests.
  std::uint64_t decisions() const { return seq_; }

  /// How the backlog index answered this policy's decisions; passive,
  /// harvested by the obs probes.
  struct IndexCounters {
    std::uint64_t zero_answers = 0;  ///< a candidate's key was exactly 0
    std::uint64_t tree_answers = 0;  ///< the (min, count) tree answered
    std::uint64_t flushed_leaves = 0;  ///< dirty leaves it re-pulled
  };
  const IndexCounters& index_counters() const { return index_counters_; }

 private:
  /// The index path; returns kNoNode when it does not apply.
  NodeId place_indexed(const PlacementContext& ctx,
                       const Candidates& candidates) const;

  Key key_;
  mutable std::uint64_t seq_ = 0;
  /// Scratch for one decision's candidate keys (board reads are not free —
  /// each decays an EWMA); grows to its high-water mark once. Same
  /// mutable-in-const rationale as seq_.
  mutable std::vector<double> keys_;
  /// Scratch for place_indexed's per-piece (min, count) pairs.
  mutable std::vector<BacklogIndex::Min> piece_mins_;
  mutable IndexCounters index_counters_;
};

/// Power-of-d-choices placement (Mitzenmacher's two-choices result, the
/// standard scalable stand-in for full JSQ): sample d candidates without
/// replacement from the eligible set and take the argmin queued-pex among
/// them. O(d) per decision (plus O(|taken|) per sampled candidate of a
/// restricted view), whatever k is.
///
/// Draw-order contract (pinned by tests, and what makes --jobs=1 equal
/// --jobs=N): a decision over n candidates performs *exactly* d calls to
/// `rng.below(n - j)` for j = 0..d-1 (a partial Fisher-Yates over the
/// candidate positions that records only the d displaced ones,
/// sim::SparseShuffle), and performs *zero* draws when n <= d (exhaustive
/// argmin — narrow distinct-site leftovers never shift the stream consumed
/// by wide decisions). Ties keep the first minimum in draw order: the
/// sampling itself supplies the spread that jsq's tie rotation provides.
///
/// The rng/scratch are mutable-in-const for the same reason as
/// JsqPlacement's tie rotation: every run builds a fresh instance from the
/// spec (seeded from the run's replication seed, stream
/// kPlacementRngStream), and a run is single-threaded.
class PodPlacement final : public PlacementPolicy {
 public:
  PodPlacement(std::uint32_t d, sim::Rng rng);

  NodeId place(const PlacementContext& ctx,
               std::span<const NodeId> candidates) const override {
    return place_among(ctx, Candidates(candidates));
  }
  NodeId place_among(const PlacementContext& ctx,
                     const Candidates& candidates) const override;
  std::string_view name() const override { return "pod"; }

  std::uint32_t d() const { return d_; }
  /// The sampling stream's current state; for tests.
  const sim::Rng& rng() const { return rng_; }

 private:
  std::uint32_t d_;
  mutable sim::Rng rng_;
  /// The sparse shuffle's displaced-position table (O(d) words).
  mutable std::vector<std::uint32_t> shuffle_table_;
};

/// Which placement policy a run should wire up.
enum class PlacementKind : std::uint8_t { Static, JsqPex, JsqUtil, PowerOfD };

/// Rng stream id reserved for placement sampling (the workload sources use
/// streams 1 and 100+; common-random-numbers discipline).
inline constexpr std::uint64_t kPlacementRngStream = 2;

/// Declarative description of a placement policy — `system::Config` carries
/// this (not a live policy) because the jsq/pod variants hold per-run
/// tie-break/rng state that must not be shared across concurrent engine
/// runs.
struct PlacementSpec {
  PlacementKind kind = PlacementKind::Static;
  /// Sample size of PowerOfD (ignored by the other kinds). "pod" alone
  /// defaults to the literature's two choices.
  std::uint32_t d = 2;

  /// Largest accepted d: beyond this a pod spec is certainly a typo (and
  /// full jsq is the right tool anyway).
  static constexpr std::uint32_t kMaxPodD = 1024;

  /// Parses "static" | "jsq-pex" | "jsq-util" | "pod[:d]". Only pod takes
  /// a parameter (an integer in [1, kMaxPodD]); a missing ("pod:"), zero,
  /// huge, or non-integral d — and any ":..." suffix on the other kinds
  /// (e.g. "jsq-pex:junk") — is rejected with the registry vocabulary in
  /// the message, never half-applied.
  static PlacementSpec parse(std::string_view text);

  /// Inverse of parse ("pod" canonicalizes to "pod:<d>").
  std::string describe() const;
};

/// Builds a fresh policy instance for one simulation run. `seed` feeds the
/// sampling rng of the PowerOfD kind (stream kPlacementRngStream);
/// SimulationRun passes its replication seed, so pod placement is
/// reproducible per replication and --jobs-invariant. The other kinds
/// ignore it.
PlacementPolicyPtr make_placement(const PlacementSpec& spec,
                                  std::uint64_t seed = 0);

/// Every name PlacementSpec::parse accepts, in registry order. The CLI
/// builds --help and error vocabulary from this, so a newly registered
/// policy can never drift out of the help text.
std::vector<std::string_view> placement_names();

}  // namespace dsrt::core
