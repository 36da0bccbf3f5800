#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/core/task.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::core {

/// Snapshot of one node's load as seen by a deadline-assignment strategy.
/// All quantities are in predicted-execution units / fractions, so a
/// strategy consuming them never touches real execution times (the paper's
/// information model: schedulers see pex, not ex).
struct NodeLoad {
  /// Predicted work currently at the node: sum of pex over the waiting
  /// queue plus the job in service. The natural estimate of the queueing
  /// delay a newly submitted subtask would face.
  double queued_pex = 0;
  /// Exponentially weighted busy fraction (simulated-time decay).
  double utilization = 0;
  /// Jobs waiting (not counting the one in service).
  std::uint32_t queue_length = 0;
  /// The node is crashed (fault injection). Load-aware placement treats a
  /// down node as infinitely loaded so it stops herding onto ghosts; the
  /// flag travels through snapshots, so sampled/stale views learn of a
  /// crash with the same delay as any other load change.
  bool down = false;
};

/// The jsq-pex placement keys of a LoadBoard (+inf when a node is down,
/// else its queued pex — the very double jsq-pex's scan compares), split
/// by the one value that dominates them. Keys of exactly 0 (idle nodes
/// without rounding residue; the least key the board holds) live in a
/// bitset over node ids. A (min, count) tournament tree keeps the other
/// keys, a zero leaf being stored as (+inf, 0): each inner vertex holds
/// the minimum over its subtree and how many leaves attain it, in one
/// 16-byte record.
///
/// A write is a bit update plus, the first time a leaf changes after a
/// flush, one append to a dirty list. The tree is brought up to date only
/// when a query needs it: each dirty leaf re-pulls its ancestors until the
/// first one whose pair stays the same. A range holding a zero key is
/// answered from the bitset alone — its minimum is (0, zeros in range) and
/// the s-th minimum is the s-th zero in node order, found by word
/// popcounts — so it never flushes.
///
/// Negative keys (only a library-supplied exec distribution under perfect
/// prediction can make one) would sit below the zero class: while any
/// exists the tree holds the zeros too, as (0, 1), and every query uses
/// it. Entering and leaving that mode rebuild the tree once each.
///
/// Queries are const: the tree is a cache of the keys, refreshed on
/// demand (a board belongs to one single-threaded run).
class BacklogIndex {
 public:
  /// Minimum key over a range and the number of nodes attaining it.
  struct Min {
    double key = std::numeric_limits<double>::infinity();
    std::uint32_t count = 0;

    /// The pair over the union of two disjoint ranges.
    static Min merge(Min a, Min b) {
      if (a.key < b.key) return a;
      if (b.key < a.key) return b;
      return {a.key, a.count + b.count};
    }
  };

  /// Index over `keys` (one per node, node order). Throws
  /// std::invalid_argument on a NaN key.
  explicit BacklogIndex(const std::vector<double>& keys);

  std::size_t size() const { return size_; }

  /// Replaces node `i`'s key. Throws std::invalid_argument on NaN, which
  /// Min::merge cannot order, before changing anything.
  void set(std::size_t i, double key) {
    if (key != key) reject_nan();
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    std::uint64_t& word = zero_bits_[i / 64];
    if (key == 0) {
      zeros_ += (word & bit) == 0;
      word |= bit;
    } else {
      zeros_ -= (word & bit) != 0;
      word &= ~bit;
    }
    Min& leaf = tree_[leaves_ + i];
    if ((key < 0) != (leaf.key < 0)) {
      leaf = {key, 1};
      if (key < 0 ? negatives_++ == 0 : --negatives_ == 0) {
        // Entering or leaving negative mode moves every zero leaf.
        rebuild();
        return;
      }
    } else {
      const Min now = key == 0 && negatives_ == 0 ? Min{} : Min{key, 1};
      if (now.key == leaf.key && now.count == leaf.count) return;
      leaf = now;
    }
    std::uint64_t& dirty = dirty_bits_[i / 64];
    if ((dirty & bit) == 0) {
      dirty |= bit;
      dirty_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  /// True while no key is negative: exact zeros are then the least keys,
  /// and any range holding one is answered from the bitset.
  bool zeros_least() const { return negatives_ == 0; }

  /// Whether node `i`'s key is exactly 0 (either sign).
  bool is_zero(std::size_t i) const {
    return (zero_bits_[i / 64] >> (i % 64)) & 1;
  }
  /// Nodes of [lo, hi) whose key is exactly 0. O(1) over the whole board
  /// (a running total), else O((hi - lo) / 64).
  std::size_t zeros_in(std::size_t lo, std::size_t hi) const;
  /// The node of [lo, hi) holding the s-th (0-based, node order) zero key;
  /// s < zeros_in(lo, hi).
  std::size_t nth_zero(std::size_t lo, std::size_t hi, std::size_t s) const;

  /// (min, count of minima) over nodes [lo, hi): from the bitset when the
  /// range holds a least zero, else from the tree (flushed first).
  Min min_over(std::size_t lo, std::size_t hi) const;

  /// The node of [lo, hi) holding the s-th (0-based, in node order) key
  /// equal to `key`, which must be min_over(lo, hi).key with
  /// s < min_over(lo, hi).count.
  std::size_t nth_min(std::size_t lo, std::size_t hi, double key,
                      std::size_t s) const;

  /// Brings every tree vertex up to date; returns the dirty leaves it
  /// re-pulled. Queries that need the tree call it themselves.
  std::size_t flush() const;

  /// Vertex `v`'s (min, count) as stored — current after a flush. The root
  /// is 1 and leaf i is leaves() + i; a zero key's leaf is (+inf, 0) unless
  /// some key is negative.
  Min vertex(std::size_t v) const { return tree_[v]; }
  std::size_t leaves() const { return leaves_; }

 private:
  [[noreturn]] static void reject_nan();
  /// Recomputes every vertex from the leaves and the current mode, and
  /// empties the dirty list. O(k).
  void rebuild();
  /// (min, count) over [lo, hi) from the flushed tree.
  Min tree_min(std::size_t lo, std::size_t hi) const;

  std::size_t size_;
  std::size_t leaves_;  ///< power of two >= size_; leaf i is vertex leaves_+i
  /// Per vertex; padding leaves = (+inf, 0). Mutable: flushed by queries.
  mutable std::vector<Min> tree_;
  std::vector<std::uint64_t> zero_bits_;  ///< bit i: node i's key is 0
  std::size_t zeros_ = 0;                 ///< set bits of zero_bits_
  std::size_t negatives_ = 0;             ///< keys < 0
  /// Leaves written since the last flush (reserved to size_, so a write
  /// never allocates), each once, flagged in dirty_bits_.
  mutable std::vector<std::uint32_t> dirty_;
  mutable std::vector<std::uint64_t> dirty_bits_;
};

/// Per-node load accounting slot, written by the owning `sched::Node` at
/// submit/dispatch/dispose instants and read through a `LoadModel`. Kept in
/// `core` so strategies can consume load without depending on `sched`.
///
/// The utilization EWMA decays in *simulated* time with constant `tau`:
/// between updates the estimate relaxes toward the held busy/idle state by
/// 1 - exp(-dt/tau). Reads are pure (decay is computed on the fly), so
/// sampling the account never perturbs determinism.
class LoadAccount {
 public:
  /// Sets the EWMA time constant and observation start. Call once before
  /// any update. `tau` must be > 0.
  void configure(double tau, sim::Time now);

  /// A job arrived at the node (enters queue or service).
  void add_backlog(double pex) {
    backlog_ += pex;
    publish();
  }
  /// A job left the node (completed or aborted).
  void remove_backlog(double pex) {
    backlog_ -= pex;
    if (backlog_ < 0) backlog_ = 0;  // guard pex rounding drift
    publish();
  }
  /// Mirrors the node's waiting-queue length.
  void set_queue_length(std::size_t n) {
    queue_length_ = static_cast<std::uint32_t>(n);
  }
  /// Folds the held busy state into the EWMA up to `now`, then holds
  /// `busy` from `now` on.
  void set_busy(sim::Time now, bool busy);
  /// Marks the node crashed / recovered (mirrors `sched::Node::fail` and
  /// `recover`).
  void set_down(bool down) {
    down_ = down;
    publish();
  }

  /// Current load with the EWMA decayed to `now`. Pure.
  NodeLoad read(sim::Time now) const;

  /// The jsq-pex placement key: +inf when down, else the queued pex.
  double pex_key() const {
    return down_ ? std::numeric_limits<double>::infinity() : backlog_;
  }

 private:
  friend class LoadBoard;

  double ewma_at(sim::Time now) const;
  /// Mirrors a key change into the board's index, once one was built.
  /// Most runs never build one; the hint keeps their write path compact.
  void publish() {
    if (index_) [[unlikely]]
      index_->set(slot_, pex_key());
  }

  double backlog_ = 0;
  double tau_ = 1;
  double util_ewma_ = 0;
  sim::Time last_update_ = 0;
  /// The owning board's index and this account's leaf in it; attached by
  /// LoadBoard::backlog_index (const, hence mutable: an observer hook,
  /// not load state).
  mutable BacklogIndex* index_ = nullptr;
  mutable std::uint32_t slot_ = 0;
  std::uint32_t queue_length_ = 0;
  bool down_ = false;
  bool busy_ = false;
};

/// Sharded board of per-node LoadAccounts. Accounts live in cache-line-
/// aligned blocks of kShardSize that are allocated once and never move,
/// which buys two things at the k=4096 scale the flat `std::vector` board
/// could not: (a) the raw `LoadAccount*` pointers the nodes pin stay valid
/// even if the board grows after attachment, and (b) a snapshot refresh
/// walks independent fixed-size blocks instead of one multi-hundred-KB
/// array, so per-node account writes and the periodic refresh sweep stop
/// serializing through the same cache lines.
class LoadBoard {
 public:
  /// Accounts per shard; a shard is a few KB — comfortably cache-resident
  /// for the refresh inner loop.
  static constexpr std::size_t kShardSize = 64;

  LoadBoard() = default;
  explicit LoadBoard(std::size_t n) { resize(n); }

  LoadBoard(const LoadBoard&) = delete;
  LoadBoard& operator=(const LoadBoard&) = delete;

  /// Grows the board to `n` accounts (shards are added, never moved, so
  /// existing account addresses survive; shrinking only lowers the
  /// logical size). Drops the backlog index; the next query rebuilds it.
  void resize(std::size_t n);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  LoadAccount& operator[](std::size_t i) {
    return shards_[i / kShardSize]->slots[i % kShardSize];
  }
  const LoadAccount& operator[](std::size_t i) const {
    return shards_[i / kShardSize]->slots[i % kShardSize];
  }

  /// The jsq-pex index over every account, built on the first call (O(k))
  /// and fed by the accounts' own writes from then on (its tree catches
  /// up when a query needs it). Runs that never ask (static, pod,
  /// snapshot models) never pay for it.
  const BacklogIndex& backlog_index() const;

  /// Invokes fn(index, account) for every account, shard block by shard
  /// block — the snapshot-refresh sweep, with the division/modulo of
  /// operator[] hoisted out of the inner loop.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t i = 0;
    for (const auto& shard : shards_) {
      const std::size_t limit =
          size_ - i < kShardSize ? size_ - i : kShardSize;
      for (std::size_t s = 0; s < limit; ++s, ++i) fn(i, shard->slots[s]);
      if (i >= size_) break;
    }
  }

 private:
  struct alignas(64) Shard {
    LoadAccount slots[kShardSize];
  };

  void detach_index();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t size_ = 0;
  /// Built lazily by backlog_index(); mutable-in-const like the model read
  /// counters (a board belongs to one single-threaded run).
  mutable std::unique_ptr<BacklogIndex> index_;
};

/// System-state view offered to SSP/PSP strategies (the paper's Section 7
/// "strategies that use system state information"). Implementations differ
/// in *freshness*: exact (oracle), sampled (periodic snapshots), stale
/// (snapshots served one period late — propagation delay). All freshness is
/// derived from simulated time, never wall clock, so runs stay
/// deterministic and `--jobs=1` equals `--jobs=N`.
class LoadModel {
 public:
  virtual ~LoadModel() = default;
  /// Load of `node` as this model sees it at simulated time `now`.
  virtual NodeLoad load(NodeId node, sim::Time now) const = 0;
  virtual std::string_view name() const = 0;
  /// The live jsq-pex index behind this model, when it has one whose keys
  /// equal what load() reports right now; null (the default) otherwise.
  /// jsq-pex answers an interval decision from it instead of scanning.
  virtual const BacklogIndex* backlog_index() const { return nullptr; }
};

using LoadModelPtr = std::shared_ptr<const LoadModel>;

/// Zero-load oracle: every node always reports an empty queue. Load-aware
/// strategies driven by this model must reproduce their static counterparts
/// exactly (the differential tests pin this).
class IdleLoadModel final : public LoadModel {
 public:
  NodeLoad load(NodeId, sim::Time) const override { return {}; }
  std::string_view name() const override { return "idle"; }
};

/// Oracle freshness: reads the live accounts.
class ExactLoadModel final : public LoadModel {
 public:
  explicit ExactLoadModel(const LoadBoard& accounts)
      : accounts_(accounts) {}
  NodeLoad load(NodeId node, sim::Time now) const override;
  std::string_view name() const override { return "exact"; }
  /// The board's index (built on the first call). Every call is one
  /// index query and counts as one read.
  const BacklogIndex* backlog_index() const override;

  /// Board reads served so far (obs probe; an oracle read is always age 0).
  std::uint64_t reads() const { return reads_; }

 private:
  const LoadBoard& accounts_;
  /// Passive read counter. Mutable-in-const for the same reason as
  /// JsqPlacement's tie rotation: the model is shared as a pointer-to-
  /// const, but each simulation run owns a fresh instance and a run is
  /// single-threaded.
  mutable std::uint64_t reads_ = 0;
};

/// Periodic-snapshot freshness. `refresh(now)` copies the live accounts
/// into the current snapshot (the simulation schedules it every `period`
/// simulated time units); reads serve either the current snapshot
/// (`Serve::Latest` — the "sampled" model) or the previous one
/// (`Serve::Previous` — the "stale"/propagation-delay model, in which a
/// read at time t sees state that is between one and two periods old).
/// Before the first refresh both snapshots are zero (cold start).
class SnapshotLoadModel final : public LoadModel {
 public:
  enum class Serve : std::uint8_t { Latest, Previous };

  SnapshotLoadModel(const LoadBoard& accounts, sim::Time period, Serve serve);

  /// Copies the live accounts into the served snapshots. Call at
  /// monotonically non-decreasing simulated times.
  void refresh(sim::Time now);

  sim::Time period() const { return period_; }
  NodeLoad load(NodeId node, sim::Time now) const override;
  std::string_view name() const override {
    return serve_ == Serve::Latest ? "sampled" : "stale";
  }

  /// Obs probes: refreshes and reads so far, and the mean age (read time
  /// minus the served snapshot's capture time) over all reads — the
  /// realized staleness the strategies actually acted on, as opposed to
  /// the nominal period. Reads before the first refresh see the zeroed
  /// cold-start snapshot, whose capture time is 0.
  std::uint64_t refreshes() const { return refreshes_; }
  std::uint64_t reads() const { return reads_; }
  double mean_read_age() const {
    return reads_ == 0 ? 0.0 : age_sum_ / static_cast<double>(reads_);
  }

 private:
  const LoadBoard& accounts_;
  sim::Time period_;
  Serve serve_;
  std::vector<NodeLoad> current_;
  std::vector<NodeLoad> previous_;
  sim::Time current_at_ = 0;   ///< capture time of current_
  sim::Time previous_at_ = 0;  ///< capture time of previous_
  std::uint64_t refreshes_ = 0;
  /// Passive read accounting; mutable-in-const (see ExactLoadModel).
  mutable std::uint64_t reads_ = 0;
  mutable double age_sum_ = 0;
};

/// Which freshness a run should wire up.
enum class LoadModelKind : std::uint8_t { None, Exact, Sampled, Stale };

/// Declarative description of a load model — `system::Config` carries this
/// (not a live `LoadModel`) because the sampled/stale variants hold per-run
/// snapshot state that must not be shared across concurrent engine runs.
struct LoadModelSpec {
  LoadModelKind kind = LoadModelKind::None;
  /// Snapshot period (Sampled) / propagation delay (Stale), simulated time.
  double period = 5.0;
  /// Utilization EWMA time constant of the per-node accounts.
  double ewma_tau = 20.0;

  /// Parses "none" | "exact" | "sampled[:period]" | "stale[:delay]".
  /// Throws std::invalid_argument on unknown kinds or bad numbers.
  static LoadModelSpec parse(std::string_view text);

  /// Inverse of parse (e.g. "sampled:5").
  std::string describe() const;

  /// Throws std::invalid_argument unless ewma_tau is positive (checked for
  /// every kind, so a bad --lm_tau never lies dormant) and, for the
  /// snapshot kinds, period is positive.
  void validate() const;
};

}  // namespace dsrt::core
