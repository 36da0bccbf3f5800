#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/job.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/stats/time_weighted.hpp"

namespace dsrt::sched {

/// Service discipline of a node's single server. The paper's model is
/// non-preemptive (Table 1); preemptive-resume is provided as a relaxation:
/// an arriving job with better priority suspends the job in service, which
/// returns to the ready queue with its remaining demand.
enum class PreemptionMode : std::uint8_t { NonPreemptive, Preemptive };

/// One processing component of the distributed system (Fig. 1): a single
/// server with a policy-ordered ready queue and an abort policy. Nodes are
/// independent — the only information a node ever uses is the real-time
/// attributes of its own queued jobs, exactly as the paper's open-system
/// argument requires.
///
/// Completions (and aborts) are reported through a completion callback; the
/// process manager uses it to enforce precedence among subtasks.
class Node {
 public:
  /// Invoked for every job the node disposes of, with the disposal time.
  using CompletionHandler =
      std::function<void(const Job&, sim::Time, JobOutcome)>;

  /// Context-pointer flavor of the completion hook — the process manager's
  /// fast path. A raw function pointer plus context beats a std::function
  /// dispatch on every disposal, and disposals are the densest callback in
  /// the simulation. When set, it takes precedence over the std::function
  /// handler.
  using CompletionDelegate = void (*)(void*, const Job&, sim::Time,
                                      JobOutcome);

  /// The node schedules work on `sim`; `policy` orders the ready queue;
  /// `abort_policy` screens jobs at dispatch. All pointers must be non-null.
  Node(core::NodeId id, sim::Simulator& sim, PolicyPtr policy,
       AbortPolicyPtr abort_policy,
       PreemptionMode preemption = PreemptionMode::NonPreemptive);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  core::NodeId id() const { return id_; }

  /// Registers the completion handler (replaces any previous one).
  void set_completion_handler(CompletionHandler handler);

  /// Registers the raw completion delegate (nullptr detaches). `ctx` is
  /// passed back verbatim and must outlive the node or be detached first.
  void set_completion_delegate(CompletionDelegate fn, void* ctx) {
    delegate_ = fn;
    delegate_ctx_ = ctx;
  }

  /// Accepts a job at the current simulated time. If the server is idle the
  /// job starts service immediately; otherwise it waits in the ready queue.
  /// A down node (see `fail`) rejects the job synchronously: it is disposed
  /// as `JobOutcome::Failed` without touching the queue or load account, so
  /// the caller's retry machinery sees the orphan on the regular path.
  void submit(Job job);

  /// True while the node is operational (the default).
  bool up() const { return up_; }

  /// Crashes the node: the job in service (if any) and every queued job are
  /// disposed as `JobOutcome::Failed` in dispatch order, the pending
  /// completion event is invalidated through the service token (it fires as
  /// a stale no-op), and the load account — if attached — is zeroed and
  /// marked down so placement stops routing here. Idempotent while down.
  void fail(sim::Time now);

  /// Brings a downed node back up, empty and idle. Idempotent while up.
  void recover(sim::Time now);

  /// True while a job is in service.
  bool busy() const { return in_service_.has_value(); }

  /// Jobs waiting (not counting the one in service).
  std::size_t queue_length() const { return queue_.size(); }

  /// Fraction of time the server has been busy (up to `now`).
  double utilization(sim::Time now) const { return busy_signal_.mean(now); }

  /// Time-average number of waiting jobs (up to `now`).
  double mean_queue_length(sim::Time now) const {
    return queue_signal_.mean(now);
  }

  /// Lifetime counters.
  std::uint64_t jobs_submitted() const { return submitted_; }
  std::uint64_t jobs_completed() const { return completed_; }
  std::uint64_t jobs_aborted() const { return aborted_; }
  /// Jobs orphaned by crashes of this node (in service or queued at a
  /// `fail`, plus arrivals rejected while down).
  std::uint64_t jobs_failed() const { return failed_; }
  std::uint64_t preemptions() const { return preemptions_; }
  /// Deepest the ready queue has ever been (high-water mark, not counting
  /// the job in service).
  std::size_t max_queue_length() const { return max_queue_; }

  /// Restarts the observation window of the time-weighted statistics (for
  /// warm-up truncation). Counters are not reset.
  void reset_observation(sim::Time now);

  /// Raises the ready-queue capacity reserve (never shrinks). A node
  /// reserves nothing itself; the simulation reserves a small fixed depth
  /// (`SimulationRun::kReadyReserve`), and the queue grows only at new
  /// high-water marks, so the warmed steady state allocates nothing.
  void reserve_ready(std::size_t depth) {
    if (depth > queue_.capacity()) queue_.reserve(depth);
  }

  /// Attaches the node's load-accounting slot (nullptr detaches). The
  /// account must outlive the node (the simulation owns a flat board sized
  /// before attachment). When detached — the default — the scheduling hot
  /// path pays exactly one null check per touch point, and behavior is
  /// bit-for-bit identical to a build without load accounting.
  void attach_load_account(core::LoadAccount* account) { load_ = account; }

 private:
  struct QueueOrder {
    bool operator()(const std::pair<std::pair<int, double>, std::uint64_t>& a,
                    const std::pair<std::pair<int, double>, std::uint64_t>& b)
        const {
      if (a.first.first != b.first.first) return a.first.first < b.first.first;
      if (a.first.second != b.first.second)
        return a.first.second < b.first.second;
      return a.second < b.second;  // FIFO tie-break by submission sequence
    }
  };

  using QueueKey = std::pair<std::pair<int, double>, std::uint64_t>;

  /// One waiting job with its precomputed dispatch key.
  struct ReadyEntry {
    QueueKey key{};
    Job job{};
  };

  /// Routes a disposal to the delegate (preferred) or the handler.
  void dispose(const Job& job, JobOutcome outcome);
  void start_service(Job job, QueueKey key);
  void on_service_complete(std::uint64_t service_token);
  void dispatch_next();
  void enqueue(Job job, QueueKey key);
  /// Removes and returns the highest-priority waiting entry. Requires a
  /// non-empty queue.
  ReadyEntry pop_ready();
  QueueKey key_for(const Job& job);

  core::NodeId id_;
  sim::Simulator& sim_;
  PolicyPtr policy_;
  AbortPolicyPtr abort_policy_;
  /// Monomorphic fast paths, probed once at construction: the Table-1
  /// baseline (EDF, no abort) is the hot configuration, and a predicted
  /// branch beats a virtual dispatch on every submit/dispatch instant.
  /// Exact same keys/decisions either way — behavior is unchanged.
  bool policy_is_edf_ = false;
  bool abort_is_none_ = false;
  PreemptionMode preemption_;
  bool up_ = true;  ///< cleared by fail(), restored by recover()
  CompletionHandler handler_;
  CompletionDelegate delegate_ = nullptr;  ///< preferred over handler_
  void* delegate_ctx_ = nullptr;

  // Ready queue: implicit binary min-heap over a flat vector, ordered by
  // (class rank, policy key, arrival sequence). The arrival sequence makes
  // every key unique, so the heap's pop order is a deterministic total
  // order — identical to the former `std::map` iteration order — while
  // enqueue/dispatch stay allocation-free in steady state (the vector
  // grows only at new high-water marks).
  std::vector<ReadyEntry> queue_;
  std::optional<Job> in_service_;
  QueueKey in_service_key_{};
  sim::Time service_started_ = 0;
  std::uint64_t service_token_ = 0;  // guards stale completion events
  std::uint64_t arrival_seq_ = 0;

  core::LoadAccount* load_ = nullptr;  ///< optional; not owned

  stats::TimeWeighted busy_signal_;
  stats::TimeWeighted queue_signal_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t preemptions_ = 0;
  std::size_t max_queue_ = 0;  ///< ready-queue high-water mark
};

}  // namespace dsrt::sched
