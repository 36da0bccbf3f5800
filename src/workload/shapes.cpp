#include "dsrt/workload/shapes.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "dsrt/core/strategy.hpp"
#include "dsrt/sim/sparse_shuffle.hpp"

namespace dsrt::workload {

void sample_distinct_nodes_into(std::size_t nodes, std::size_t count,
                                sim::Rng& rng,
                                std::vector<core::NodeId>& out) {
  if (count > nodes)
    throw std::invalid_argument(
        "sample_distinct_nodes: more subtasks than nodes");
  if (nodes > core::kNoNode)
    throw std::invalid_argument("sample_distinct_nodes: too many nodes");
  // Partial Fisher-Yates over [0, nodes) that records only the displaced
  // positions: the sample goes to out[0, count), the shuffle's table
  // borrows the space behind it, so the cost is O(count), not O(nodes).
  out.resize(count + sim::SparseShuffle::table_words(count));
  sim::SparseShuffle shuffle(
      nodes, std::span<std::uint32_t>(out).subspan(count));
  for (std::size_t i = 0; i < count; ++i) out[i] = shuffle.next(rng);
  out.resize(count);
}

std::vector<core::NodeId> sample_distinct_nodes(std::size_t nodes,
                                                std::size_t count,
                                                sim::Rng& rng) {
  std::vector<core::NodeId> pool;
  sample_distinct_nodes_into(nodes, count, rng, pool);
  return pool;
}

namespace {

/// Emits one leaf with an optional deferred binding: the eligible set is
/// the contiguous id range [lo, lo + count) — the compute nodes or the
/// link nodes — stored as an interval in the leaf's vertex.
/// The RNG consumption is identical for both arms — `node` was drawn by
/// the caller either way — so flipping `defer` never perturbs the seed
/// stream.
void emit_leaf_among(core::TaskSpecBuilder& b, core::NodeId node, bool defer,
                     std::size_t lo, std::size_t count,
                     const sim::Distribution& exec_dist,
                     const PexErrorModel& pex_error, sim::Rng& rng) {
  const double exec = exec_dist.sample(rng);
  const double pex = pex_error.predict(exec, rng);
  if (!defer) {
    b.leaf(node, exec, pex);
    return;
  }
  b.leaf_among(node, static_cast<core::NodeId>(lo),
               static_cast<std::uint32_t>(count), exec, pex);
}

/// One stage of the Section 6 shape: parallel group or single subtask.
void emit_sp_stage(core::TaskSpecBuilder& b, const SerialParallelShape& shape,
                   std::size_t nodes, const sim::Distribution& exec_dist,
                   const PexErrorModel& pex_error, sim::Rng& rng, bool defer,
                   ShapeScratch& scratch) {
  if (rng.uniform01() < shape.parallel_prob) {
    sample_distinct_nodes_into(nodes, shape.parallel_width, rng,
                               scratch.sites);
    b.begin_parallel();
    for (const auto node : scratch.sites)
      emit_leaf_among(b, node, defer, 0, nodes, exec_dist, pex_error, rng);
    b.end();
    return;
  }
  const auto node = static_cast<core::NodeId>(rng.below(nodes));
  emit_leaf_among(b, node, defer, 0, nodes, exec_dist, pex_error, rng);
}

void check_sp_shape(const SerialParallelShape& shape, std::size_t nodes) {
  if (shape.stages == 0)
    throw std::invalid_argument("make_serial_parallel_task: no stages");
  if (shape.parallel_width == 0 || shape.parallel_width > nodes)
    throw std::invalid_argument(
        "make_serial_parallel_task: bad parallel width");
}

/// Wraps a fill function into the one-shot composing API.
template <typename Fill>
core::TaskSpec make_with(Fill&& fill) {
  core::TaskSpec spec;
  core::TaskSpecBuilder b;
  b.reset(spec);
  fill(b);
  b.finish();
  return spec;
}

}  // namespace

void fill_serial_task(core::TaskSpecBuilder& b, std::size_t subtasks,
                      std::size_t nodes, const sim::Distribution& exec_dist,
                      const PexErrorModel& pex_error, sim::Rng& rng,
                      bool defer_placement) {
  if (subtasks == 0) throw std::invalid_argument("make_serial_task: m == 0");
  if (nodes == 0) throw std::invalid_argument("make_serial_task: no nodes");
  b.begin_serial();
  for (std::size_t i = 0; i < subtasks; ++i) {
    const auto node = static_cast<core::NodeId>(rng.below(nodes));
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  }
  b.end();
}

core::TaskSpec make_serial_task(std::size_t subtasks, std::size_t nodes,
                                const sim::Distribution& exec_dist,
                                const PexErrorModel& pex_error,
                                sim::Rng& rng, bool defer_placement) {
  return make_with([&](core::TaskSpecBuilder& b) {
    fill_serial_task(b, subtasks, nodes, exec_dist, pex_error, rng,
                     defer_placement);
  });
}

void fill_parallel_task(core::TaskSpecBuilder& b, std::size_t subtasks,
                        std::size_t nodes, const sim::Distribution& exec_dist,
                        const PexErrorModel& pex_error, sim::Rng& rng,
                        bool defer_placement, ShapeScratch& scratch) {
  if (subtasks == 0) throw std::invalid_argument("make_parallel_task: m == 0");
  sample_distinct_nodes_into(nodes, subtasks, rng, scratch.sites);
  b.begin_parallel();
  for (const auto node : scratch.sites)
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  b.end();
}

core::TaskSpec make_parallel_task(std::size_t subtasks, std::size_t nodes,
                                  const sim::Distribution& exec_dist,
                                  const PexErrorModel& pex_error,
                                  sim::Rng& rng, bool defer_placement) {
  ShapeScratch scratch;
  return make_with([&](core::TaskSpecBuilder& b) {
    fill_parallel_task(b, subtasks, nodes, exec_dist, pex_error, rng,
                       defer_placement, scratch);
  });
}

double SerialParallelShape::expected_leaves() const {
  return static_cast<double>(stages) *
         (parallel_prob * static_cast<double>(parallel_width) +
          (1.0 - parallel_prob));
}

double SerialParallelShape::expected_critical_path(double mean_exec) const {
  return static_cast<double>(stages) * mean_exec *
         (parallel_prob * harmonic(parallel_width) + (1.0 - parallel_prob));
}

void fill_serial_parallel_task(core::TaskSpecBuilder& b,
                               const SerialParallelShape& shape,
                               std::size_t nodes,
                               const sim::Distribution& exec_dist,
                               const PexErrorModel& pex_error, sim::Rng& rng,
                               bool defer_placement, ShapeScratch& scratch) {
  check_sp_shape(shape, nodes);
  b.begin_serial();
  for (std::size_t s = 0; s < shape.stages; ++s)
    emit_sp_stage(b, shape, nodes, exec_dist, pex_error, rng, defer_placement,
                  scratch);
  b.end();
}

core::TaskSpec make_serial_parallel_task(const SerialParallelShape& shape,
                                         std::size_t nodes,
                                         const sim::Distribution& exec_dist,
                                         const PexErrorModel& pex_error,
                                         sim::Rng& rng, bool defer_placement) {
  ShapeScratch scratch;
  return make_with([&](core::TaskSpecBuilder& b) {
    fill_serial_parallel_task(b, shape, nodes, exec_dist, pex_error, rng,
                              defer_placement, scratch);
  });
}

void fill_serial_parallel_task_with_comm(
    core::TaskSpecBuilder& b, const SerialParallelShape& shape,
    std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng, bool defer_placement,
    ShapeScratch& scratch) {
  check_sp_shape(shape, nodes);
  if (link_nodes == 0)
    throw std::invalid_argument(
        "make_serial_parallel_task_with_comm: no link nodes");
  b.begin_serial();
  for (std::size_t s = 0; s < shape.stages; ++s) {
    if (s > 0) {
      const auto link = static_cast<core::NodeId>(
          nodes + static_cast<std::size_t>(rng.below(link_nodes)));
      emit_leaf_among(b, link, defer_placement, nodes, link_nodes, comm_dist,
                      pex_error, rng);
    }
    emit_sp_stage(b, shape, nodes, exec_dist, pex_error, rng, defer_placement,
                  scratch);
  }
  b.end();
}

core::TaskSpec make_serial_parallel_task_with_comm(
    const SerialParallelShape& shape, std::size_t nodes,
    std::size_t link_nodes, const sim::Distribution& exec_dist,
    const sim::Distribution& comm_dist, const PexErrorModel& pex_error,
    sim::Rng& rng, bool defer_placement) {
  ShapeScratch scratch;
  return make_with([&](core::TaskSpecBuilder& b) {
    fill_serial_parallel_task_with_comm(b, shape, nodes, link_nodes,
                                        exec_dist, comm_dist, pex_error, rng,
                                        defer_placement, scratch);
  });
}

void fill_serial_task_with_comm(core::TaskSpecBuilder& b,
                                std::size_t subtasks, std::size_t nodes,
                                std::size_t link_nodes,
                                const sim::Distribution& exec_dist,
                                const sim::Distribution& comm_dist,
                                const PexErrorModel& pex_error, sim::Rng& rng,
                                bool defer_placement) {
  if (subtasks == 0)
    throw std::invalid_argument("make_serial_task_with_comm: m == 0");
  if (nodes == 0)
    throw std::invalid_argument("make_serial_task_with_comm: no nodes");
  if (link_nodes == 0)
    throw std::invalid_argument("make_serial_task_with_comm: no link nodes");
  b.begin_serial();
  for (std::size_t i = 0; i < subtasks; ++i) {
    if (i > 0) {
      const auto link = static_cast<core::NodeId>(
          nodes + static_cast<std::size_t>(rng.below(link_nodes)));
      emit_leaf_among(b, link, defer_placement, nodes, link_nodes, comm_dist,
                      pex_error, rng);
    }
    const auto node = static_cast<core::NodeId>(rng.below(nodes));
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  }
  b.end();
}

core::TaskSpec make_serial_task_with_comm(
    std::size_t subtasks, std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng, bool defer_placement) {
  return make_with([&](core::TaskSpecBuilder& b) {
    fill_serial_task_with_comm(b, subtasks, nodes, link_nodes, exec_dist,
                               comm_dist, pex_error, rng, defer_placement);
  });
}

double harmonic(std::size_t n) {
  double h = 0;
  for (std::size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

}  // namespace dsrt::workload
