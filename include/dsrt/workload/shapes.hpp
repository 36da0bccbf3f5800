#pragma once

#include <cstddef>
#include <vector>

#include "dsrt/core/task_spec.hpp"
#include "dsrt/sim/distribution.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/workload/pex_error.hpp"

namespace dsrt::workload {

/// Structure of the global-task population.
enum class GlobalShape : std::uint8_t {
  Serial,          ///< Section 4: T = [T1 T2 ... Tm]
  Parallel,        ///< Section 5: T = [T1 || ... || Tm] on distinct nodes
  SerialParallel,  ///< Section 6: serial chain with parallel stages
};

/// Samples `count` distinct node ids from [0, nodes) into `out` (resized to
/// `count`). Requires count <= nodes. Partial Fisher-Yates that stores only
/// displaced positions (sim::SparseShuffle, in `out`'s own tail), so it
/// costs O(count) whatever `nodes` is and allocates nothing once `out`
/// held a few times `count`. Identical draw sequence to the returning
/// overload below, and the same picks as a dense shuffle over all nodes.
void sample_distinct_nodes_into(std::size_t nodes, std::size_t count,
                                sim::Rng& rng,
                                std::vector<core::NodeId>& out);

/// Samples `count` distinct node ids from [0, nodes). Requires
/// count <= nodes. Partial Fisher-Yates; O(count) extra space.
std::vector<core::NodeId> sample_distinct_nodes(std::size_t nodes,
                                                std::size_t count,
                                                sim::Rng& rng);

/// Reusable scratch for the allocation-free `fill_*` makers below; owns the
/// distinct-site sampling pool. Keep one alive per stream (GlobalTaskSource
/// does) so repeated fills never touch the allocator.
struct ShapeScratch {
  std::vector<core::NodeId> sites;
};

/// The `fill_*` family emits one task of the given shape into `builder`
/// (already `reset()` onto the output spec; the caller calls `finish()`),
/// drawing from `rng` in *exactly* the same order as the matching `make_*`
/// builder below — the `make_*` functions are thin wrappers over these, so
/// there is a single source of truth for the draw sequence and the
/// common-random-numbers discipline cannot drift between the two paths.
/// Once the output spec's buffers are warm, a fill performs zero heap
/// allocations; this is the arrival hot path of `GlobalTaskSource`.
///
/// Every maker takes a `defer_placement` flag. The RNG draw sequence is
/// *identical* either way (nodes are always drawn, preserving the
/// common-random-numbers discipline across placement policies and every
/// existing golden); with the flag set each leaf additionally carries its
/// eligible set — any compute node for serial stages and parallel-group
/// members (the group's distinct-site constraint is enforced by the
/// placement engine), the link-node range for transmission stages — and
/// the generation-time draw becomes a mere hint that `--placement=static`
/// reproduces verbatim.
void fill_serial_task(core::TaskSpecBuilder& builder, std::size_t subtasks,
                      std::size_t nodes, const sim::Distribution& exec_dist,
                      const PexErrorModel& pex_error, sim::Rng& rng,
                      bool defer_placement);

void fill_parallel_task(core::TaskSpecBuilder& builder, std::size_t subtasks,
                        std::size_t nodes, const sim::Distribution& exec_dist,
                        const PexErrorModel& pex_error, sim::Rng& rng,
                        bool defer_placement, ShapeScratch& scratch);

/// Builds the SSP workload's task shape (Section 4): T = [T1 T2 ... Tm],
/// each subtask's execution time drawn from `exec_dist`, execution node
/// drawn uniformly (with replacement) from the `nodes` nodes.
core::TaskSpec make_serial_task(std::size_t subtasks, std::size_t nodes,
                                const sim::Distribution& exec_dist,
                                const PexErrorModel& pex_error, sim::Rng& rng,
                                bool defer_placement = false);

/// Builds the PSP workload's task shape (Section 5):
/// T = [T1 || T2 || ... || Tm] at m *different* nodes. Requires
/// subtasks <= nodes.
core::TaskSpec make_parallel_task(std::size_t subtasks, std::size_t nodes,
                                  const sim::Distribution& exec_dist,
                                  const PexErrorModel& pex_error,
                                  sim::Rng& rng,
                                  bool defer_placement = false);

/// Parameters of the Section 6 serial-parallel shape: a serial chain of
/// `stages` stages; each stage is, with probability `parallel_prob`, a
/// parallel group of `parallel_width` simple subtasks on distinct nodes,
/// otherwise a single simple subtask.
struct SerialParallelShape {
  std::size_t stages = 4;
  double parallel_prob = 0.5;
  std::size_t parallel_width = 3;

  /// Expected number of simple subtasks per task.
  double expected_leaves() const;
  /// Expected critical-path execution time when subtask times are
  /// exponential with mean `mean_exec` (uses E[max of n iid Exp] =
  /// mean * H_n).
  double expected_critical_path(double mean_exec) const;
};

void fill_serial_parallel_task(core::TaskSpecBuilder& builder,
                               const SerialParallelShape& shape,
                               std::size_t nodes,
                               const sim::Distribution& exec_dist,
                               const PexErrorModel& pex_error, sim::Rng& rng,
                               bool defer_placement, ShapeScratch& scratch);

/// Builds one Section 6 serial-parallel task.
core::TaskSpec make_serial_parallel_task(const SerialParallelShape& shape,
                                         std::size_t nodes,
                                         const sim::Distribution& exec_dist,
                                         const PexErrorModel& pex_error,
                                         sim::Rng& rng,
                                         bool defer_placement = false);

void fill_serial_parallel_task_with_comm(
    core::TaskSpecBuilder& builder, const SerialParallelShape& shape,
    std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng, bool defer_placement,
    ShapeScratch& scratch);

/// Section 6 shape with Section 3.2 network modeling: a transmission
/// subtask (on a uniformly chosen link node, ids nodes..nodes+link_nodes-1,
/// service from `comm_dist`) is inserted between consecutive stages —
/// results of a stage must reach the next stage's site(s) before it can
/// start. Requires link_nodes >= 1.
core::TaskSpec make_serial_parallel_task_with_comm(
    const SerialParallelShape& shape, std::size_t nodes,
    std::size_t link_nodes, const sim::Distribution& exec_dist,
    const sim::Distribution& comm_dist, const PexErrorModel& pex_error,
    sim::Rng& rng, bool defer_placement = false);

void fill_serial_task_with_comm(core::TaskSpecBuilder& builder,
                                std::size_t subtasks, std::size_t nodes,
                                std::size_t link_nodes,
                                const sim::Distribution& exec_dist,
                                const sim::Distribution& comm_dist,
                                const PexErrorModel& pex_error, sim::Rng& rng,
                                bool defer_placement);

/// Section 3.2's treatment of the network: "even the communication network
/// is considered a resource and is subsumed as one or more processing
/// nodes". Builds T = [T1 C1 T2 C2 ... Tm]: compute subtasks on the k
/// compute nodes (ids 0..nodes-1) with a transmission subtask between
/// consecutive stages, placed on a uniformly chosen link node (ids
/// nodes..nodes+link_nodes-1) with service from `comm_dist`.
/// Requires link_nodes >= 1 and subtasks >= 1.
core::TaskSpec make_serial_task_with_comm(
    std::size_t subtasks, std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng,
    bool defer_placement = false);

/// n-th harmonic number H_n = 1 + 1/2 + ... + 1/n (mean of the max of n iid
/// exponentials in units of their mean).
double harmonic(std::size_t n);

}  // namespace dsrt::workload
