#include "dsrt/core/task_spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsrt/core/strategy.hpp"

namespace dsrt::core {

namespace {

const SpecVertex& require_simple(const SpecVertex& vx, const char* what) {
  if (vx.kind != SpecKind::Simple) throw std::logic_error(what);
  return vx;
}

void spec_to_string(const TaskSpec& spec, std::size_t v, std::string& out) {
  const SpecVertex& vx = spec.vertex(v);
  if (vx.kind == SpecKind::Simple) {
    out += "T@";
    out += std::to_string(vx.node);
    if (vx.elig_count != 0) out += '*';  // binding deferred to dispatch time
    return;
  }
  const char* sep = vx.kind == SpecKind::Serial ? " " : " || ";
  out += '[';
  const auto ids = spec.children_of(vx);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += sep;
    spec_to_string(spec, ids[i], out);
  }
  out += ']';
}

}  // namespace

// --- TaskSpec: composing front-end -----------------------------------------

TaskSpec TaskSpec::simple(NodeId node, double exec, double pex) {
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.leaf(node, exec, pex);
  b.finish();
  return spec;
}

TaskSpec TaskSpec::simple(NodeId node, double exec) {
  return simple(node, exec, exec);
}

TaskSpec TaskSpec::simple_among(NodeId hint, std::vector<NodeId> eligible,
                                double exec, double pex) {
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.leaf_among(hint, std::span<const NodeId>(eligible), exec, pex);
  b.finish();
  return spec;
}

TaskSpec TaskSpec::serial(std::vector<TaskSpec> children) {
  if (children.empty())
    throw std::invalid_argument("TaskSpec::serial: no children");
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.begin_serial();
  for (const TaskSpec& c : children) b.append_subtree(c);
  b.end();
  b.finish();
  return spec;
}

TaskSpec TaskSpec::parallel(std::vector<TaskSpec> children) {
  if (children.empty())
    throw std::invalid_argument("TaskSpec::parallel: no children");
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.begin_parallel();
  for (const TaskSpec& c : children) b.append_subtree(c);
  b.end();
  b.finish();
  return spec;
}

// --- TaskSpec: root-level accessors ----------------------------------------

const SpecVertex& TaskSpec::root_vertex() const {
  if (vertices_.empty())
    throw std::logic_error("TaskSpec: accessor on an empty spec");
  return vertices_[0];
}

SpecKind TaskSpec::kind() const { return root_vertex().kind; }

NodeId TaskSpec::node() const {
  return require_simple(root_vertex(), "TaskSpec::node on complex task").node;
}

double TaskSpec::exec() const {
  return require_simple(root_vertex(), "TaskSpec::exec on complex task").exec;
}

double TaskSpec::pex() const {
  return require_simple(root_vertex(), "TaskSpec::pex on complex task").pex;
}

EligibleSet TaskSpec::eligible() const {
  return eligible_of(root_vertex());
}

double TaskSpec::predicted_duration() const {
  return root_vertex().pred_duration;
}

double TaskSpec::critical_path_exec() const {
  return root_vertex().crit_exec;
}

double TaskSpec::total_exec() const {
  double total = 0;
  for (const SpecVertex& vx : vertices_)
    if (vx.kind == SpecKind::Simple) total += vx.exec;
  return total;
}

std::size_t TaskSpec::leaf_count() const {
  std::size_t n = 0;
  for (const SpecVertex& vx : vertices_)
    if (vx.kind == SpecKind::Simple) ++n;
  return n;
}

std::size_t TaskSpec::depth() const {
  // Pre-order guarantees parents precede children, so one forward pass
  // carrying per-vertex depths suffices. Cold path; the scratch is local.
  std::vector<std::uint32_t> level(vertices_.size(), 1);
  std::uint32_t deepest = vertices_.empty() ? 0 : 1;
  for (std::size_t v = 1; v < vertices_.size(); ++v) {
    level[v] = level[static_cast<std::size_t>(vertices_[v].parent)] + 1;
    deepest = std::max(deepest, level[v]);
  }
  return deepest;
}

std::string TaskSpec::to_string() const {
  (void)root_vertex();  // empty-spec guard
  std::string out;
  spec_to_string(*this, 0, out);
  return out;
}

// --- SpecView ---------------------------------------------------------------

NodeId SpecView::node() const {
  return require_simple(vx(), "TaskSpec::node on complex task").node;
}

double SpecView::exec() const {
  return require_simple(vx(), "TaskSpec::exec on complex task").exec;
}

double SpecView::pex() const {
  return require_simple(vx(), "TaskSpec::pex on complex task").pex;
}

SpecView SpecView::child(std::size_t i) const {
  return SpecView(*spec_, spec_->children_of(vx())[i]);
}

// --- TaskSpecBuilder --------------------------------------------------------

void TaskSpecBuilder::reset(TaskSpec& out) {
  out_ = &out;
  out.vertices_.clear();
  out.child_pool_.clear();
  out.elig_pool_.clear();
  open_groups_.clear();
}

std::uint32_t TaskSpecBuilder::add_vertex(SpecKind kind) {
  if (!out_) throw std::logic_error("TaskSpecBuilder: not bound (reset first)");
  if (open_groups_.empty() && !out_->vertices_.empty())
    throw std::logic_error("TaskSpecBuilder: spec already has a root");
  const auto v = static_cast<std::uint32_t>(out_->vertices_.size());
  SpecVertex vx;
  vx.kind = kind;
  if (!open_groups_.empty()) {
    const std::uint32_t g = open_groups_.back();
    vx.parent = static_cast<std::int32_t>(g);
    // child_count doubles as the running child counter while the group is
    // open; finish() turns the counts into child-pool spans.
    vx.index_in_parent = out_->vertices_[g].child_count++;
  }
  out_->vertices_.push_back(vx);
  return v;
}

void TaskSpecBuilder::begin_group(SpecKind kind) {
  open_groups_.push_back(add_vertex(kind));
}

void TaskSpecBuilder::end() {
  if (open_groups_.empty())
    throw std::logic_error("TaskSpecBuilder::end: no open group");
  const std::uint32_t g = open_groups_.back();
  if (out_->vertices_[g].child_count == 0)
    throw std::invalid_argument("TaskSpecBuilder::end: empty group");
  open_groups_.pop_back();
}

void TaskSpecBuilder::leaf(NodeId node, double exec, double pex) {
  if (exec < 0) throw std::invalid_argument("TaskSpec: negative exec");
  if (pex < 0) throw std::invalid_argument("TaskSpec: negative pex");
  const std::uint32_t v = add_vertex(SpecKind::Simple);
  SpecVertex& vx = out_->vertices_[v];
  vx.node = node;
  vx.exec = exec;
  vx.pex = pex;
}

void TaskSpecBuilder::leaf_among(NodeId hint, NodeId first,
                                 std::uint32_t count, double exec,
                                 double pex) {
  if (count == 0) throw std::invalid_argument("TaskSpec: empty eligible set");
  // Widened: first + count must not wrap, and every id stays below kNoNode.
  const std::uint64_t end = std::uint64_t{first} + count;
  if (end > kNoNode)
    throw std::invalid_argument("TaskSpec: eligible range past the last id");
  if (hint < first || hint >= end)
    throw std::invalid_argument("TaskSpec: hint outside the eligible set");
  leaf(hint, exec, pex);
  SpecVertex& vx = out_->vertices_.back();
  vx.elig_first = first;
  vx.elig_count = count;
}

void TaskSpecBuilder::leaf_among(NodeId hint,
                                 std::span<const NodeId> eligible,
                                 double exec, double pex) {
  if (eligible.empty())
    throw std::invalid_argument("TaskSpec: empty eligible set");
  if (std::find(eligible.begin(), eligible.end(), hint) == eligible.end())
    throw std::invalid_argument("TaskSpec: hint outside the eligible set");
  sorted_.assign(eligible.begin(), eligible.end());
  std::sort(sorted_.begin(), sorted_.end());
  if (std::adjacent_find(sorted_.begin(), sorted_.end()) != sorted_.end())
    throw std::invalid_argument("TaskSpec: duplicate node in eligible set");
  if (sorted_.back() >= kNoNode)
    throw std::invalid_argument("TaskSpec: node id out of range");
  leaf(hint, exec, pex);
  SpecVertex& vx = out_->vertices_.back();
  vx.elig_first = static_cast<std::uint32_t>(out_->elig_pool_.size());
  vx.elig_count = static_cast<std::uint32_t>(eligible.size());
  vx.elig_list = true;
  out_->elig_pool_.insert(out_->elig_pool_.end(), eligible.begin(),
                          eligible.end());
}

void TaskSpecBuilder::leaf_among(NodeId hint, const EligibleSet& eligible,
                                 double exec, double pex) {
  if (eligible.is_range()) {
    leaf_among(hint, eligible.first(),
               static_cast<std::uint32_t>(eligible.size()), exec, pex);
    return;
  }
  leaf_among(hint, eligible.list(), exec, pex);
}

void TaskSpecBuilder::append_subtree(const TaskSpec& sub) {
  if (sub.empty())
    throw std::invalid_argument("TaskSpecBuilder: empty subtree");
  if (!out_) throw std::logic_error("TaskSpecBuilder: not bound (reset first)");
  if (open_groups_.empty() && !out_->vertices_.empty())
    throw std::logic_error("TaskSpecBuilder: spec already has a root");
  const auto base = static_cast<std::uint32_t>(out_->vertices_.size());
  const auto elig_base = static_cast<std::uint32_t>(out_->elig_pool_.size());
  out_->vertices_.insert(out_->vertices_.end(), sub.vertices_.begin(),
                         sub.vertices_.end());
  out_->elig_pool_.insert(out_->elig_pool_.end(), sub.elig_pool_.begin(),
                          sub.elig_pool_.end());
  for (std::size_t v = base; v < out_->vertices_.size(); ++v) {
    SpecVertex& vx = out_->vertices_[v];
    if (vx.elig_list) vx.elig_first += elig_base;
    if (vx.parent >= 0) {
      vx.parent += static_cast<std::int32_t>(base);
    } else if (!open_groups_.empty()) {
      const std::uint32_t g = open_groups_.back();
      vx.parent = static_cast<std::int32_t>(g);
      vx.index_in_parent = out_->vertices_[g].child_count++;
    }
    // child_begin is stale offset data from `sub`; finish() recomputes it.
  }
}

void TaskSpecBuilder::finish() {
  if (!out_) throw std::logic_error("TaskSpecBuilder: not bound (reset first)");
  if (!open_groups_.empty())
    throw std::logic_error("TaskSpecBuilder::finish: unclosed group");
  TaskSpec& spec = *out_;
  if (spec.vertices_.empty())
    throw std::logic_error("TaskSpecBuilder::finish: empty spec");

  // Materialize the child pool: child counts are known, so one prefix pass
  // assigns each group its contiguous span and a second pass scatters every
  // vertex into its parent's span at index_in_parent.
  spec.child_pool_.resize(spec.vertices_.size() - 1);
  std::uint32_t offset = 0;
  for (SpecVertex& vx : spec.vertices_) {
    vx.child_begin = offset;
    offset += vx.child_count;
  }
  for (std::size_t v = 1; v < spec.vertices_.size(); ++v) {
    const SpecVertex& vx = spec.vertices_[v];
    const SpecVertex& px =
        spec.vertices_[static_cast<std::size_t>(vx.parent)];
    spec.child_pool_[px.child_begin + vx.index_in_parent] =
        static_cast<std::uint32_t>(v);
  }

  // Aggregates, children before parents (reverse pre-order), accumulated
  // left to right over each child span — the exact association order of the
  // old recursive predicted_duration()/critical_path_exec(), so the sealed
  // values are bit-identical to the tree-of-vectors implementation.
  for (std::size_t i = spec.vertices_.size(); i-- > 0;) {
    SpecVertex& vx = spec.vertices_[i];
    switch (vx.kind) {
      case SpecKind::Simple:
        vx.pred_duration = vx.pex;
        vx.crit_exec = vx.exec;
        break;
      case SpecKind::Serial: {
        double pred = 0, crit = 0;
        for (const std::uint32_t c : spec.children_of(vx)) {
          pred += spec.vertices_[c].pred_duration;
          crit += spec.vertices_[c].crit_exec;
        }
        vx.pred_duration = pred;
        vx.crit_exec = crit;
        break;
      }
      case SpecKind::Parallel: {
        double pred = 0, crit = 0;
        for (const std::uint32_t c : spec.children_of(vx)) {
          pred = std::max(pred, spec.vertices_[c].pred_duration);
          crit = std::max(crit, spec.vertices_[c].crit_exec);
        }
        vx.pred_duration = pred;
        vx.crit_exec = crit;
        break;
      }
    }
  }
  out_ = nullptr;
}

}  // namespace dsrt::core
