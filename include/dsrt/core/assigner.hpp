#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsrt/core/eligible_set.hpp"
#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/core/task_spec.hpp"

namespace dsrt::core {

/// Order to submit one simple subtask to its node, produced by
/// `TaskInstance` when precedence constraints allow the subtask to start.
struct LeafSubmission {
  std::size_t leaf = 0;          ///< vertex handle; echo in on_leaf_complete
  NodeId node = 0;               ///< execution node
  double exec = 0;               ///< real service demand
  double pex = 0;                ///< predicted service demand
  sim::Time deadline = 0;        ///< assigned virtual deadline
  PriorityClass priority = PriorityClass::Normal;
  std::size_t sibling_index = 0;  ///< position within the parent group
  std::size_t sibling_count = 1;  ///< size of the parent group
};

/// Lifecycle of a global task instance.
enum class InstanceState : std::uint8_t { Running, Completed, Aborted };

/// Runtime state of one global task: the process manager's view of a
/// serial-parallel `TaskSpec` being executed (Fig. 1).
///
/// The instance applies the configured SSP strategy at every serial group
/// and the PSP strategy at every parallel group, *recursively*: a complex
/// subtask first receives a virtual deadline from its parent's strategy,
/// then decomposes that deadline for its own children (Section 6). Because
/// serial deadlines are computed at submission time, leftover slack from an
/// early-finishing stage is inherited by later stages, and overruns rob
/// later stages — both phenomena discussed in Section 4.2.2.
///
/// Storage mirrors the flat TaskSpec: one pre-order vertex array (same
/// numbering as the spec) plus shared pools for child indices, explicit
/// eligible lists and the serial-suffix sums — no per-vertex heap blocks.
/// An interval eligible set stays (first, count) in its vertex, so neither
/// reset() nor a placement decision touches O(k) memory. Instances
/// are *recyclable*: `reset()` rebuilds the runtime state in place from a
/// (possibly different) spec, reusing every buffer, so a pooled instance
/// costs zero heap allocations per global task once warm. The process
/// manager keeps a free list of drained instances for exactly this reason.
///
/// Usage: construct (or `reset()`), call `start()` once, then
/// `on_leaf_complete()` for every completion reported by a node, submitting
/// whatever either call emits. `abort()` marks the instance failed;
/// subsequent completions of already-queued subtasks are absorbed without
/// emitting further work.
class TaskInstance {
 public:
  /// Empty shell for pooling; call `reset()` before use.
  TaskInstance() = default;

  /// `deadline` is the end-to-end deadline dl(T); strategies — and
  /// `load_model` / `placement`, when given — must outlive the instance.
  /// `load_model` (nullable) is surfaced to the strategies through the
  /// contexts so load-aware strategies can consult per-node system state;
  /// static strategies ignore it. `placement` (nullable) resolves the node
  /// binding of *placeable* leaves when their stage becomes ready; with no
  /// policy a placeable leaf keeps its seed-compatible hint node. Simple
  /// children of a parallel group are placed together, in index order, on
  /// distinct nodes (the paper's distinct-site constraint); serial stages
  /// are placed one by one as they activate, with no cross-stage
  /// constraint.
  TaskInstance(TaskId id, const TaskSpec& spec, sim::Time arrival,
               sim::Time deadline, SerialStrategyPtr ssp,
               ParallelStrategyPtr psp, const LoadModel* load_model = nullptr,
               const PlacementPolicy* placement = nullptr);

  /// Rebuilds the instance in place for a new global task, reusing every
  /// internal buffer (no allocation once the buffers fit the spec). Same
  /// contract as the constructor.
  void reset(TaskId id, const TaskSpec& spec, sim::Time arrival,
             sim::Time deadline, const SerialStrategyPtr& ssp,
             const ParallelStrategyPtr& psp,
             const LoadModel* load_model = nullptr,
             const PlacementPolicy* placement = nullptr);

  TaskId id() const { return id_; }
  sim::Time arrival() const { return arrival_; }
  sim::Time deadline() const { return deadline_; }
  InstanceState state() const { return state_; }

  /// Simple subtasks of the task: its width (TaskSpec::leaf_count).
  std::size_t leaf_count() const { return leaf_count_; }

  /// Position of leaf `leaf` within its parent group: the
  /// LeafSubmission::sibling_index every submission of it carries.
  std::size_t stage_of(std::size_t leaf) const {
    return vertices_[leaf].index_in_parent;
  }

  /// Leaves submitted to nodes and not yet reported back.
  std::size_t outstanding() const { return outstanding_; }

  /// True once every emitted submission has been reported back (an aborted
  /// instance may linger until queued orphans drain).
  bool drained() const { return outstanding_ == 0; }

  /// Activates the root with the end-to-end deadline; appends the initial
  /// submissions (one for a serial root, n for a parallel root of width n).
  void start(sim::Time now, std::vector<LeafSubmission>& out);

  /// Reports that leaf `leaf` finished at `now`. Appends any newly released
  /// submissions. Returns true when the *whole* task just completed.
  bool on_leaf_complete(std::size_t leaf, sim::Time now,
                        std::vector<LeafSubmission>& out);

  /// Reports that leaf `leaf` was orphaned by a node crash: the submission
  /// is no longer outstanding, but the DAG does not advance — the leaf is
  /// back in the "activated, waiting to run" state its retry (or the
  /// instance's abort) resolves.
  void on_leaf_failed(std::size_t leaf);

  /// Re-places an orphaned leaf and re-emits its submission with the
  /// original assigned deadline and priority (the deadline decomposition is
  /// not redone — the failure consumed slack, it did not grant more).
  /// Candidates are the leaf's *original* eligible set filtered by `live`
  /// and by the distinct-site constraint against unfinished simple
  /// siblings; a generation-bound leaf can only go back to its own node.
  /// The placement policy (when wired) picks among multiple survivors.
  /// Returns false — emitting nothing — when no live candidate remains;
  /// the caller then aborts the instance.
  bool resubmit_leaf(std::size_t leaf, sim::Time now,
                     const std::function<bool(NodeId)>& live,
                     std::vector<LeafSubmission>& out);

  /// Marks the task failed (e.g. a subtask was discarded by an abort
  /// policy). No further submissions are emitted.
  void abort();

  /// Virtual deadline assigned to a vertex (0 = root); kTimeInfinity if the
  /// vertex has not been activated yet. Vertices are numbered in depth-first
  /// pre-order over the spec. Intended for tests and traces.
  sim::Time vertex_deadline(std::size_t vertex) const;

  /// Number of vertices in the runtime tree.
  std::size_t vertex_count() const { return vertices_.size(); }

 private:
  struct Vertex {
    // Static structure, copied from the flat spec.
    double exec = 0;            // leaves only
    double pred_duration = 0;
    std::int32_t parent = -1;
    std::uint32_t index_in_parent = 0;
    std::uint32_t child_begin = 0;  // into child_pool_ (groups)
    std::uint32_t child_count = 0;
    std::uint32_t elig_first = 0;   // interval start, or into elig_pool_
    std::uint32_t elig_count = 0;   // 0 once placed (or bound)
    std::uint32_t orig_elig_count = 0;  // spec value; survives placement
    std::uint32_t suffix_begin = 0; // into suffix_pool_ (serial groups)
    NodeId node = 0;                // leaves only
    SpecKind kind = SpecKind::Simple;
    bool elig_list = false;         // eligible set is an explicit list
    // Runtime state.
    sim::Time assigned_deadline = sim::kTimeInfinity;
    sim::Time activated_at = 0;
    PriorityClass priority = PriorityClass::Normal;
    std::uint32_t next_child = 0;  // serial progress
    std::uint32_t pending = 0;     // parallel fan-in
    bool done = false;
  };

  std::span<const std::uint32_t> children_of(const Vertex& vx) const {
    return {child_pool_.data() + vx.child_begin, vx.child_count};
  }
  /// The leaf's eligible set as generated (also after placement).
  EligibleSet eligible_of(const Vertex& vx) const {
    return vx.elig_list
               ? EligibleSet::list({elig_pool_.data() + vx.elig_first,
                                    vx.orig_elig_count})
               : EligibleSet::range(vx.elig_first, vx.orig_elig_count);
  }

  void activate(std::size_t v, sim::Time now, sim::Time deadline,
                PriorityClass priority, std::vector<LeafSubmission>& out);
  void activate_serial_child(std::size_t group, sim::Time now,
                             std::vector<LeafSubmission>& out);
  /// Resolves the node binding of placeable leaf `v` (no-op for bound
  /// leaves), excluding `taken` nodes from the candidates.
  void place_leaf(std::size_t v, sim::Time now,
                  const std::vector<NodeId>& taken);
  /// Fills place_skipped_ with the sorted, distinct positions of the
  /// `taken` nodes inside `set` (the positions a candidate view skips).
  void skip_taken(const EligibleSet& set, const std::vector<NodeId>& taken);
  /// Places every simple child of parallel group `v` on distinct nodes.
  void place_parallel_group(std::size_t v, sim::Time now);
  /// Queued-pex the subtree rooted at `v` is predicted to face (placed
  /// leaf: its node's board backlog; placeable leaf: min over its eligible
  /// set; serial: sum of children; parallel: max of branches).
  double downstream_backlog(std::size_t v, sim::Time now) const;
  /// Marks `v` done and walks completion up the tree; returns true when the
  /// root finished.
  bool complete_vertex(std::size_t v, sim::Time now,
                       std::vector<LeafSubmission>& out);

  TaskId id_ = 0;
  sim::Time arrival_ = 0;
  sim::Time deadline_ = 0;
  SerialStrategyPtr ssp_;
  ParallelStrategyPtr psp_;
  const LoadModel* load_model_ = nullptr;  ///< not owned; may be null
  const PlacementPolicy* placement_ = nullptr;  ///< not owned; may be null
  bool downstream_aware_ = false;  ///< ssp consumes queued_downstream
  std::vector<Vertex> vertices_;          ///< pre-order, spec numbering
  std::vector<std::uint32_t> child_pool_; ///< per-group child vertex ids
  std::vector<NodeId> elig_pool_;         ///< explicit eligible lists
  std::vector<double> suffix_pool_;       ///< per-serial-group pex suffixes
  std::vector<NodeId> place_taken_;       ///< scratch: group exclusions
  /// Scratch: eligible-set positions a candidate view skips.
  std::vector<std::uint32_t> place_skipped_;
  InstanceState state_ = InstanceState::Completed;
  // Fits the padding after state_: a larger instance pushes the pool's
  // k/8-slot reserve past 128 KiB (see ProcessManager::reserve_for_scale).
  std::uint32_t leaf_count_ = 0;
  std::size_t outstanding_ = 0;
  bool started_ = false;
};

}  // namespace dsrt::core
