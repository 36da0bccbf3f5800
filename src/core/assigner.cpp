#include "dsrt/core/assigner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"

namespace dsrt::core {

TaskInstance::TaskInstance(TaskId id, const TaskSpec& spec, sim::Time arrival,
                           sim::Time deadline, SerialStrategyPtr ssp,
                           ParallelStrategyPtr psp,
                           const LoadModel* load_model,
                           const PlacementPolicy* placement) {
  reset(id, spec, arrival, deadline, ssp, psp, load_model, placement);
}

void TaskInstance::reset(TaskId id, const TaskSpec& spec, sim::Time arrival,
                         sim::Time deadline, const SerialStrategyPtr& ssp,
                         const ParallelStrategyPtr& psp,
                         const LoadModel* load_model,
                         const PlacementPolicy* placement) {
  if (!ssp) throw std::invalid_argument("TaskInstance: null serial strategy");
  if (!psp)
    throw std::invalid_argument("TaskInstance: null parallel strategy");
  if (spec.empty()) throw std::invalid_argument("TaskInstance: empty spec");
  id_ = id;
  arrival_ = arrival;
  deadline_ = deadline;
  ssp_ = ssp;
  psp_ = psp;
  load_model_ = load_model;
  placement_ = placement;
  downstream_aware_ = load_model_ && ssp_->wants_downstream_load();
  state_ = InstanceState::Running;
  leaf_count_ = 0;
  outstanding_ = 0;
  started_ = false;

  // One pass over the flat spec: copy the structure (same pre-order
  // numbering, shared pools copied wholesale — the eligible pool holds only
  // explicit lists, so an interval set of any width copies as two words)
  // and reset the runtime fields. Every container reuses its capacity —
  // zero allocations once warm.
  const std::span<const SpecVertex> sv = spec.vertices();
  vertices_.assign(sv.size(), Vertex{});
  const auto cp = spec.child_pool();
  child_pool_.assign(cp.begin(), cp.end());
  const auto ep = spec.eligible_pool();
  elig_pool_.assign(ep.begin(), ep.end());
  suffix_pool_.clear();
  for (std::size_t v = 0; v < sv.size(); ++v) {
    const SpecVertex& s = sv[v];
    Vertex& vx = vertices_[v];
    vx.kind = s.kind;
    vx.parent = s.parent;
    vx.index_in_parent = s.index_in_parent;
    vx.child_begin = s.child_begin;
    vx.child_count = s.child_count;
    vx.pred_duration = s.pred_duration;
    vx.pending = s.child_count;
    if (s.kind == SpecKind::Simple) {
      ++leaf_count_;
      vx.node = s.node;
      vx.exec = s.exec;
      vx.elig_first = s.elig_first;
      vx.elig_list = s.elig_list;
      vx.elig_count = s.elig_count;  // 0 = bound at generation time
      vx.orig_elig_count = s.elig_count;  // kept for fault retries
    } else if (s.kind == SpecKind::Serial) {
      // Suffix sums of child predicted durations: suffix[i] =
      // sum_{j >= i} pex(child j); the SSP formulas consume these.
      // Accumulated right to left, exactly as the recursive build did.
      vx.suffix_begin = static_cast<std::uint32_t>(suffix_pool_.size());
      suffix_pool_.resize(suffix_pool_.size() + s.child_count + 1, 0.0);
      double* suffix = suffix_pool_.data() + vx.suffix_begin;
      const auto children = spec.children_of(s);
      suffix[s.child_count] = 0.0;
      for (std::size_t i = s.child_count; i-- > 0;)
        suffix[i] = suffix[i + 1] + sv[children[i]].pred_duration;
    }
  }
}

void TaskInstance::start(sim::Time now, std::vector<LeafSubmission>& out) {
  if (started_) throw std::logic_error("TaskInstance::start called twice");
  started_ = true;
  activate(0, now, deadline_, PriorityClass::Normal, out);
}

void TaskInstance::activate(std::size_t v, sim::Time now, sim::Time deadline,
                            PriorityClass priority,
                            std::vector<LeafSubmission>& out) {
  Vertex& vx = vertices_[v];
  vx.assigned_deadline = deadline;
  vx.activated_at = now;
  vx.priority = priority;
  switch (vx.kind) {
    case SpecKind::Simple: {
      // A leaf activated outside a parallel group (serial stage or root)
      // is placed alone: no sibling runs concurrently, so nothing is
      // excluded. Leaves of a parallel group were already resolved by
      // place_parallel_group below.
      if (vx.elig_count != 0) {
        place_taken_.clear();
        place_leaf(v, now, place_taken_);
      }
      ++outstanding_;
      const std::size_t sibling_count =
          vx.parent < 0
              ? 1
              : vertices_[static_cast<std::size_t>(vx.parent)].child_count;
      out.push_back(LeafSubmission{v, vx.node, vx.exec, vx.pred_duration,
                                   deadline, priority, vx.index_in_parent,
                                   sibling_count});
      return;
    }
    case SpecKind::Serial: {
      vx.next_child = 0;
      activate_serial_child(v, now, out);
      return;
    }
    case SpecKind::Parallel: {
      // Bind every placeable simple child before any deadline is assigned,
      // so the PSP contexts below already see the dispatch-time nodes.
      place_parallel_group(v, now);
      vx.pending = vx.child_count;
      const auto children = children_of(vx);
      double pex_max = 0;
      for (const std::uint32_t c : children)
        pex_max = std::max(pex_max, vertices_[c].pred_duration);
      for (std::size_t i = 0; i < children.size(); ++i) {
        const std::size_t c = children[i];
        ParallelContext ctx;
        ctx.group_arrival = now;
        ctx.group_deadline = deadline;
        ctx.now = now;
        ctx.index = i;
        ctx.count = children.size();
        ctx.pex_self = vertices_[c].pred_duration;
        ctx.pex_max = pex_max;
        ctx.load = load_model_;
        ctx.node = vertices_[c].kind == SpecKind::Simple ? vertices_[c].node
                                                         : kNoNode;
        const ParallelAssignment pa = psp_->assign(ctx);
        const PriorityClass child_priority =
            (priority == PriorityClass::Elevated ||
             pa.priority == PriorityClass::Elevated)
                ? PriorityClass::Elevated
                : PriorityClass::Normal;
        activate(c, now, pa.deadline, child_priority, out);
      }
      return;
    }
  }
}

void TaskInstance::activate_serial_child(std::size_t group, sim::Time now,
                                         std::vector<LeafSubmission>& out) {
  Vertex& gx = vertices_[group];
  const std::size_t i = gx.next_child;
  const std::size_t child = child_pool_[gx.child_begin + i];
  // Resolve the stage's node binding first, so the SSP context charges the
  // backlog of the node the subtask will actually queue at.
  if (vertices_[child].kind == SpecKind::Simple &&
      vertices_[child].elig_count != 0) {
    place_taken_.clear();
    place_leaf(child, now, place_taken_);
  }
  SerialContext ctx;
  ctx.group_arrival = gx.activated_at;
  ctx.group_deadline = gx.assigned_deadline;
  ctx.now = now;
  ctx.index = i;
  ctx.count = gx.child_count;
  ctx.pex_self = vertices_[child].pred_duration;
  ctx.pex_remaining = suffix_pool_[gx.suffix_begin + i];
  ctx.pex_group_total = suffix_pool_[gx.suffix_begin];
  ctx.load = load_model_;
  ctx.node = vertices_[child].kind == SpecKind::Simple ? vertices_[child].node
                                                       : kNoNode;
  if (downstream_aware_) {
    double q_down = 0;
    for (std::size_t j = i + 1; j < gx.child_count; ++j)
      q_down += downstream_backlog(child_pool_[gx.child_begin + j], now);
    ctx.queued_downstream = q_down;
  }
  const sim::Time dl = ssp_->assign(ctx);
  activate(child, now, dl, gx.priority, out);
}

void TaskInstance::place_leaf(std::size_t v, sim::Time now,
                              const std::vector<NodeId>& taken) {
  Vertex& vx = vertices_[v];
  if (!placement_) {
    // No policy wired: keep the generator's seed-compatible hint.
    vx.elig_count = 0;
    return;
  }
  const EligibleSet eligible = eligible_of(vx);
  skip_taken(eligible, taken);
  const Candidates candidates(eligible, place_skipped_);
  if (candidates.empty())
    throw std::logic_error(
        "TaskInstance: parallel group wider than its eligible node set");
  if (!taken.empty()) placement_->record_restricted();
  PlacementContext ctx;
  ctx.now = now;
  ctx.load = load_model_;
  ctx.hint = vx.node;
  vx.node = placement_->place_among(ctx, candidates);
  vx.elig_count = 0;
}

void TaskInstance::skip_taken(const EligibleSet& set,
                              const std::vector<NodeId>& taken) {
  // |taken| is a parallel group's width, so the insertion sort is cheap;
  // a hand-built group may pin two bound siblings to one node, hence the
  // duplicate check.
  place_skipped_.clear();
  for (const NodeId node : taken) {
    const std::size_t pos = set.position(node);
    if (pos == set.size()) continue;
    const auto p = static_cast<std::uint32_t>(pos);
    auto it = place_skipped_.end();
    while (it != place_skipped_.begin() && *(it - 1) > p) --it;
    if (it != place_skipped_.begin() && *(it - 1) == p) continue;
    place_skipped_.insert(it, p);
  }
}

void TaskInstance::place_parallel_group(std::size_t v, sim::Time now) {
  Vertex& vx = vertices_[v];
  const auto children = children_of(vx);
  bool any_placeable = false;
  for (const std::uint32_t c : children) {
    if (vertices_[c].kind == SpecKind::Simple &&
        vertices_[c].elig_count != 0) {
      any_placeable = true;
      break;
    }
  }
  if (!any_placeable) return;
  // Distinct-site constraint: bound siblings pin their nodes first, then
  // placeable siblings are resolved in index order, each excluding every
  // node the group already occupies. (Leaves of *complex* children run in
  // later stages of their own subgroups and are placed on activation,
  // unconstrained by this group.)
  place_taken_.clear();
  for (const std::uint32_t c : children) {
    if (vertices_[c].kind == SpecKind::Simple &&
        vertices_[c].elig_count == 0)
      place_taken_.push_back(vertices_[c].node);
  }
  for (const std::uint32_t c : children) {
    if (vertices_[c].kind != SpecKind::Simple ||
        vertices_[c].elig_count == 0)
      continue;
    place_leaf(c, now, place_taken_);
    place_taken_.push_back(vertices_[c].node);
  }
}

double TaskInstance::downstream_backlog(std::size_t v, sim::Time now) const {
  const Vertex& vx = vertices_[v];
  switch (vx.kind) {
    case SpecKind::Simple: {
      if (vx.elig_count == 0)
        return load_model_->load(vx.node, now).queued_pex;
      // Not yet placed: the optimistic estimate is the backlog a
      // shortest-queue dispatch would face right now.
      double best = std::numeric_limits<double>::infinity();
      for (const NodeId node : eligible_of(vx))
        best = std::min(best, load_model_->load(node, now).queued_pex);
      return best;
    }
    case SpecKind::Serial: {
      double total = 0;
      for (const std::uint32_t c : children_of(vx))
        total += downstream_backlog(c, now);
      return total;
    }
    case SpecKind::Parallel: {
      // Branches queue concurrently; the join waits for the slowest.
      double worst = 0;
      for (const std::uint32_t c : children_of(vx))
        worst = std::max(worst, downstream_backlog(c, now));
      return worst;
    }
  }
  return 0;  // unreachable
}

bool TaskInstance::on_leaf_complete(std::size_t leaf, sim::Time now,
                                    std::vector<LeafSubmission>& out) {
  if (leaf >= vertices_.size() || vertices_[leaf].kind != SpecKind::Simple)
    throw std::invalid_argument("on_leaf_complete: not a leaf vertex");
  if (outstanding_ == 0)
    throw std::logic_error("on_leaf_complete: nothing outstanding");
  --outstanding_;
  if (state_ != InstanceState::Running) return false;  // orphan drain
  return complete_vertex(leaf, now, out);
}

bool TaskInstance::complete_vertex(std::size_t v, sim::Time now,
                                   std::vector<LeafSubmission>& out) {
  vertices_[v].done = true;
  const int parent = vertices_[v].parent;
  if (parent < 0) {
    state_ = InstanceState::Completed;
    return true;
  }
  Vertex& px = vertices_[static_cast<std::size_t>(parent)];
  if (px.kind == SpecKind::Serial) {
    ++px.next_child;
    if (px.next_child < px.child_count) {
      activate_serial_child(static_cast<std::size_t>(parent), now, out);
      return false;
    }
    return complete_vertex(static_cast<std::size_t>(parent), now, out);
  }
  // Parallel join: last child to finish completes the group.
  if (--px.pending > 0) return false;
  return complete_vertex(static_cast<std::size_t>(parent), now, out);
}

void TaskInstance::on_leaf_failed(std::size_t leaf) {
  if (leaf >= vertices_.size() || vertices_[leaf].kind != SpecKind::Simple)
    throw std::invalid_argument("on_leaf_failed: not a leaf vertex");
  if (outstanding_ == 0)
    throw std::logic_error("on_leaf_failed: nothing outstanding");
  --outstanding_;
  // The DAG does not advance: the leaf stays activated-but-undone, so a
  // subsequent resubmit_leaf re-emits it while siblings keep running.
}

bool TaskInstance::resubmit_leaf(std::size_t leaf, sim::Time now,
                                 const std::function<bool(NodeId)>& live,
                                 std::vector<LeafSubmission>& out) {
  if (leaf >= vertices_.size() || vertices_[leaf].kind != SpecKind::Simple)
    throw std::invalid_argument("resubmit_leaf: not a leaf vertex");
  Vertex& vx = vertices_[leaf];
  if (state_ != InstanceState::Running || vx.done) return false;
  // Rebuild the distinct-site exclusions: nodes currently occupied by
  // unfinished simple siblings of the same parallel group (a finished
  // sibling no longer holds its site).
  place_taken_.clear();
  if (vx.parent >= 0) {
    const Vertex& px = vertices_[static_cast<std::size_t>(vx.parent)];
    if (px.kind == SpecKind::Parallel) {
      for (const std::uint32_t c : children_of(px)) {
        const Vertex& sib = vertices_[c];
        if (c != leaf && sib.kind == SpecKind::Simple && !sib.done)
          place_taken_.push_back(sib.node);
      }
    }
  }
  if (vx.orig_elig_count == 0) {
    // Generation-bound leaf: the only legal site is its own node (live
    // again after a recovery, or the crash raced a queued arrival).
    if (!live(vx.node)) return false;
  } else {
    // The original eligible set minus the dead and the taken nodes. The
    // scan is O(k), but it runs only on a fault retry.
    const EligibleSet eligible = eligible_of(vx);
    place_skipped_.clear();
    for (std::uint32_t pos = 0; pos < eligible.size(); ++pos) {
      const NodeId node = eligible[pos];
      if (!live(node) || std::find(place_taken_.begin(), place_taken_.end(),
                                   node) != place_taken_.end())
        place_skipped_.push_back(pos);
    }
    const Candidates candidates(eligible, place_skipped_);
    if (candidates.empty()) return false;  // nowhere live to go
    if (placement_ && candidates.size() > 1) {
      PlacementContext ctx;
      ctx.now = now;
      ctx.load = load_model_;
      ctx.hint = vx.node;
      vx.node = placement_->place_among(ctx, candidates);
    } else {
      vx.node = candidates[0];
    }
  }
  ++outstanding_;
  const std::size_t sibling_count =
      vx.parent < 0
          ? 1
          : vertices_[static_cast<std::size_t>(vx.parent)].child_count;
  out.push_back(LeafSubmission{leaf, vx.node, vx.exec, vx.pred_duration,
                               vx.assigned_deadline, vx.priority,
                               vx.index_in_parent, sibling_count});
  return true;
}

void TaskInstance::abort() {
  if (state_ == InstanceState::Running) state_ = InstanceState::Aborted;
}

sim::Time TaskInstance::vertex_deadline(std::size_t vertex) const {
  if (vertex >= vertices_.size())
    throw std::out_of_range("vertex_deadline: bad vertex");
  return vertices_[vertex].assigned_deadline;
}

}  // namespace dsrt::core
