#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsrt/core/eligible_set.hpp"
#include "dsrt/core/task.hpp"

namespace dsrt::core {

/// Kind of a vertex in a serial-parallel task tree.
enum class SpecKind : std::uint8_t { Simple, Serial, Parallel };

/// One vertex of a flattened serial-parallel task tree. Vertices are stored
/// in depth-first pre-order (vertex 0 is the root; every child has a larger
/// index than its parent), children live in a shared pool owned by the
/// TaskSpec, and the Section 6 aggregates (predicted duration, critical
/// path) are precomputed once when the spec is sealed. A placeable leaf's
/// eligible set is an id interval stored in the vertex itself; only
/// explicit id lists occupy the spec's eligible pool.
struct SpecVertex {
  double exec = 0;           ///< leaves: real execution time
  double pex = 0;            ///< leaves: predicted execution time
  double pred_duration = 0;  ///< pex; serial: sum, parallel: max of children
  double crit_exec = 0;      ///< exec under the same recursion
  std::int32_t parent = -1;  ///< pre-order index of the parent; -1 for root
  std::uint32_t index_in_parent = 0;
  std::uint32_t child_begin = 0;  ///< into TaskSpec child pool (groups)
  std::uint32_t child_count = 0;
  /// Leaves: first node id of the eligible interval, or the offset into
  /// the TaskSpec eligible pool when `elig_list` is set.
  std::uint32_t elig_first = 0;
  std::uint32_t elig_count = 0;   ///< 0 = bound at generation time
  NodeId node = 0;                ///< leaves: execution node (or hint)
  SpecKind kind = SpecKind::Simple;
  bool elig_list = false;         ///< eligible set is an explicit id list
};

class TaskSpec;
class SpecView;

/// Iterable view over the direct children of a vertex; elements are
/// `SpecView` cursors. Returned by `TaskSpec::children()` /
/// `SpecView::children()`.
class SpecChildRange {
 public:
  class iterator {
   public:
    iterator(const TaskSpec* spec, const std::uint32_t* it)
        : spec_(spec), it_(it) {}
    SpecView operator*() const;
    iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return it_ != o.it_; }
    bool operator==(const iterator& o) const { return it_ == o.it_; }

   private:
    const TaskSpec* spec_;
    const std::uint32_t* it_;
  };

  SpecChildRange(const TaskSpec* spec, std::span<const std::uint32_t> ids)
      : spec_(spec), ids_(ids) {}
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  SpecView operator[](std::size_t i) const;
  iterator begin() const { return iterator(spec_, ids_.data()); }
  iterator end() const { return iterator(spec_, ids_.data() + ids_.size()); }

 private:
  const TaskSpec* spec_;
  std::span<const std::uint32_t> ids_;
};

/// Immutable description of a global task's structure (Section 3.1):
/// `T = [T1 T2 ... Tn]` (serial), `T = [T1 || T2 || ... || Tn]` (parallel),
/// and arbitrary compositions thereof. Leaves are *simple subtasks* bound to
/// one execution node; inner vertices are *complex subtasks*.
///
/// Each simple subtask carries its real execution time `ex` (known to the
/// simulator that generates it, not to the schedulers) and the predicted
/// execution time `pex` available to the deadline-assignment strategies.
///
/// A leaf is either *bound* (today's fixed node — the degenerate singleton
/// eligible set) or *placeable*: it additionally carries the set of nodes
/// it may execute on, and the binding is deferred to dispatch time, when a
/// `PlacementPolicy` picks a node from the eligible set using current
/// system state. Placeable leaves still carry a bound node — the workload
/// generator's seed-stream draw — so static placement reproduces the bound
/// behavior bit for bit.
///
/// Storage is *flat*: one pre-order vertex table plus shared pools for
/// child indices and explicit eligible id lists (an id interval lives in
/// its vertex, so a generated spec's eligible pool stays empty however
/// large k is). The static builders below compose
/// specs tree-style (each call merges the children's tables — convenient
/// for tests and examples); the arrival hot path instead refills one
/// reusable TaskSpec in place through `TaskSpecBuilder`, which allocates
/// nothing once the buffers reached their high-water capacity.
class TaskSpec {
 public:
  /// Empty spec; fill via `TaskSpecBuilder` before use.
  TaskSpec() = default;

  /// Leaf: a simple subtask executing at `node`.
  static TaskSpec simple(NodeId node, double exec, double pex);
  /// Leaf with perfect prediction (pex == ex).
  static TaskSpec simple(NodeId node, double exec);
  /// Placeable leaf: may execute at any node of `eligible` (non-empty, must
  /// contain `hint`); `hint` is the seed-compatible default binding.
  static TaskSpec simple_among(NodeId hint, std::vector<NodeId> eligible,
                               double exec, double pex);
  /// Serial composition [c1 c2 ... cn]; n >= 1.
  static TaskSpec serial(std::vector<TaskSpec> children);
  /// Parallel composition [c1 || c2 || ... || cn]; n >= 1.
  static TaskSpec parallel(std::vector<TaskSpec> children);

  /// True for a default-constructed (or reset-but-unfinished) spec.
  bool empty() const { return vertices_.empty(); }
  /// Number of vertices (simple + complex subtasks) in the tree.
  std::size_t size() const { return vertices_.size(); }

  /// Flat accessors (pre-order index `v`; 0 = root). The task-instance
  /// layer consumes these directly — no tree walk, no per-vertex copies.
  const SpecVertex& vertex(std::size_t v) const { return vertices_[v]; }
  std::span<const SpecVertex> vertices() const { return vertices_; }
  std::span<const std::uint32_t> child_pool() const { return child_pool_; }
  /// Explicit eligible id lists only; interval sets live in the vertices.
  std::span<const NodeId> eligible_pool() const { return elig_pool_; }
  std::span<const std::uint32_t> children_of(const SpecVertex& vx) const {
    return {child_pool_.data() + vx.child_begin, vx.child_count};
  }
  EligibleSet eligible_of(const SpecVertex& vx) const {
    return vx.elig_list
               ? EligibleSet::list({elig_pool_.data() + vx.elig_first,
                                    vx.elig_count})
               : EligibleSet::range(vx.elig_first, vx.elig_count);
  }

  /// Cursor over vertex `v` (tree-style navigation for tests/traces).
  SpecView view(std::size_t v) const;
  SpecView root() const;

  // Root-level accessors (the pre-flattening TaskSpec API). All of them
  // throw std::logic_error on an empty (default-constructed, not yet
  // filled) spec rather than reading past the vertex table.
  SpecKind kind() const;
  bool is_simple() const { return kind() == SpecKind::Simple; }

  /// Execution node of a simple subtask (the default binding of a
  /// placeable leaf). Requires is_simple().
  NodeId node() const;

  /// Nodes a placeable leaf may execute on; empty for bound leaves (and
  /// complex subtasks). The dispatch-time placement engine consults this.
  EligibleSet eligible() const;
  /// True when node binding is deferred to dispatch time.
  bool placeable() const { return !eligible().empty(); }
  /// Real execution time of a simple subtask. Requires is_simple().
  double exec() const;
  /// Predicted execution time of a simple subtask. Requires is_simple().
  double pex() const;

  /// Direct children of the root (empty range for a leaf).
  SpecChildRange children() const;

  /// Predicted end-to-end duration: pex for leaves, sum over serial
  /// children, max over parallel children. This is the "pex" of a complex
  /// subtask that the recursive SSP/PSP decomposition of Section 6 uses.
  /// Precomputed at build time; O(1).
  double predicted_duration() const;

  /// Real end-to-end duration under the same recursion (sum/max of `ex`);
  /// the minimum possible response time of the (sub)task. O(1).
  double critical_path_exec() const;

  /// Total real work across all simple subtasks (sum of all leaf `ex`).
  double total_exec() const;

  /// Number of simple subtasks in the tree.
  std::size_t leaf_count() const;

  /// Height of the tree; 1 for a leaf.
  std::size_t depth() const;

  /// Notation of Section 3.1, e.g. "[T@0 [T@1 || T@2] T@0]" where @n is the
  /// execution node. Useful in traces and examples.
  std::string to_string() const;

 private:
  friend class TaskSpecBuilder;

  /// Root vertex; throws std::logic_error on an empty spec.
  const SpecVertex& root_vertex() const;

  std::vector<SpecVertex> vertices_;      ///< depth-first pre-order
  std::vector<std::uint32_t> child_pool_; ///< per-group child vertex ids
  std::vector<NodeId> elig_pool_;         ///< explicit eligible id lists
};

/// Read-only cursor over one vertex of a flat TaskSpec, presenting the same
/// tree-style API the recursive TaskSpec used to: tests and traces navigate
/// with `children()` / `child(i)` without knowing about the flat layout.
/// Cheap to copy (pointer + index); valid as long as the spec is.
class SpecView {
 public:
  SpecView(const TaskSpec& spec, std::size_t v) : spec_(&spec), v_(v) {}

  /// Pre-order vertex index within the owning spec.
  std::size_t index() const { return v_; }

  SpecKind kind() const { return vx().kind; }
  bool is_simple() const { return vx().kind == SpecKind::Simple; }
  NodeId node() const;
  double exec() const;
  double pex() const;
  EligibleSet eligible() const { return spec_->eligible_of(vx()); }
  bool placeable() const { return vx().elig_count != 0; }
  double predicted_duration() const { return vx().pred_duration; }
  double critical_path_exec() const { return vx().crit_exec; }

  std::size_t child_count() const { return vx().child_count; }
  SpecView child(std::size_t i) const;
  SpecChildRange children() const {
    return SpecChildRange(spec_, spec_->children_of(vx()));
  }

 private:
  const SpecVertex& vx() const { return spec_->vertex(v_); }

  const TaskSpec* spec_;
  std::size_t v_;
};

inline SpecView SpecChildRange::iterator::operator*() const {
  return SpecView(*spec_, *it_);
}
inline SpecView SpecChildRange::operator[](std::size_t i) const {
  return SpecView(*spec_, ids_[i]);
}
inline SpecView TaskSpec::view(std::size_t v) const {
  return SpecView(*this, v);
}
inline SpecView TaskSpec::root() const { return SpecView(*this, 0); }
inline SpecChildRange TaskSpec::children() const {
  return SpecChildRange(this, children_of(root_vertex()));
}

/// Pre-order in-place builder of flat TaskSpecs — the arrival hot path's
/// front door. `reset()` rebinds the builder to an output spec and clears
/// it *keeping its capacity*; the shape makers then emit the topology with
/// `begin_serial`/`begin_parallel`/`leaf`/`end`, and `finish()` seals the
/// spec (materializes the child pool, computes the aggregate durations in
/// the exact left-to-right order of the old recursion, so every golden
/// survives). After the buffers' high-water marks are reached, a
/// reset→fill→finish cycle performs zero heap allocations.
///
/// The builder object itself is reusable and holds only the open-group
/// stack; keep one alive per stream (GlobalTaskSource does) so its scratch
/// survives between arrivals.
class TaskSpecBuilder {
 public:
  TaskSpecBuilder() = default;

  /// Rebinds to `out`, clearing previous contents but keeping capacity.
  void reset(TaskSpec& out);

  /// Opens a serial / parallel group as the next pre-order vertex.
  void begin_serial() { begin_group(SpecKind::Serial); }
  void begin_parallel() { begin_group(SpecKind::Parallel); }
  /// Closes the innermost open group; it must have at least one child.
  void end();

  /// Appends a bound leaf.
  void leaf(NodeId node, double exec, double pex);
  /// Appends a placeable leaf whose eligible set is the contiguous id range
  /// [first, first + count), stored as that interval (O(1) however large
  /// `count` is). `hint` must lie inside it, and first + count must not
  /// pass kNoNode.
  void leaf_among(NodeId hint, NodeId first, std::uint32_t count, double exec,
                  double pex);
  /// Appends a placeable leaf with an explicit eligible id list (non-empty,
  /// duplicate-free, every id below kNoNode, containing `hint`), copied
  /// into the spec's eligible pool.
  void leaf_among(NodeId hint, std::span<const NodeId> eligible, double exec,
                  double pex);
  /// Appends a placeable leaf with `eligible`, taken from another spec: an
  /// interval stays an interval, a list is copied.
  void leaf_among(NodeId hint, const EligibleSet& eligible, double exec,
                  double pex);

  /// Appends a copy of `sub` (all of it) as the next child of the innermost
  /// open group — the composing front-end (`TaskSpec::serial/parallel`)
  /// uses this; it is not part of the allocation-free path.
  void append_subtree(const TaskSpec& sub);

  /// Seals the spec: materializes child spans and computes the aggregates.
  /// All groups must be closed and the spec non-empty. Unbinds the builder.
  void finish();

 private:
  std::uint32_t add_vertex(SpecKind kind);
  void begin_group(SpecKind kind);

  TaskSpec* out_ = nullptr;
  std::vector<std::uint32_t> open_groups_;  ///< stack of open group ids
  std::vector<NodeId> sorted_;  ///< scratch: duplicate check of a list
};

}  // namespace dsrt::core
