#include "dsrt/system/process_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dsrt::system {

ProcessManager::ProcessManager(sim::Simulator& sim,
                               std::vector<std::unique_ptr<sched::Node>>& nodes,
                               core::SerialStrategyPtr ssp,
                               core::ParallelStrategyPtr psp,
                               RunMetrics& metrics,
                               const core::LoadModel* load_model,
                               const core::PlacementPolicy* placement,
                               fault::FaultInjector* faults)
    : sim_(sim),
      nodes_(nodes),
      ssp_(std::move(ssp)),
      psp_(std::move(psp)),
      metrics_(metrics),
      load_model_(load_model),
      placement_(placement),
      faults_(faults),
      feedback_(dynamic_cast<const core::SubtaskFeedback*>(psp_.get())) {
  // Steady-state hot path: keep the per-disposal scratch buffers out of
  // the allocator (they only grow at new high-water marks).
  scratch_.reserve(16);
  disposal_queue_.reserve(32);
  slots_.reserve(256);
  free_slots_.reserve(256);
  for (auto& node : nodes_) {
    node->set_completion_delegate(
        [](void* ctx, const sched::Job& job, sim::Time now,
           sched::JobOutcome outcome) {
          static_cast<ProcessManager*>(ctx)->on_disposed(job, now, outcome);
        },
        this);
  }
}

void ProcessManager::reserve_for_scale(std::size_t nodes) {
  // The baseline configs peak at ~k/6 live instances (~720 at k=4096,
  // 119 at k=1024). k/8 slots of ~256 B keep the k=4096 block at 128 KiB;
  // a run that holds more doubles the pool once, early, before its steady
  // state. A 2k-slot reserve (2 MiB at k=4096, never filled) made the
  // k=4096 benchmark's peak RSS 11.9 or 13.9 MB by seed; k/8 reads ~12.0
  // at both, k/4 ~0.15 MB more.
  const std::size_t want = std::max<std::size_t>(256, nodes / 8);
  if (want > slots_.capacity()) slots_.reserve(want);
  if (want > free_slots_.capacity()) free_slots_.reserve(want);
  const std::size_t scratch = std::max<std::size_t>(16, nodes);
  if (scratch > scratch_.capacity()) scratch_.reserve(scratch);
}

void ProcessManager::submit_local(core::NodeId node, double exec, double pex,
                                  sim::Time deadline) {
  if (node >= nodes_.size())
    throw std::out_of_range("submit_local: bad node id");
  ++metrics_.local.generated;
  if (faults_) {
    // Admission control: a task whose own predicted demand no longer fits
    // its deadline window is a certain miss — shedding it keeps the queue
    // from collapsing under overload (MD rises smoothly instead).
    if (faults_->spec().shed &&
        sim_.now() + faults_->spec().shed_margin * pex > deadline) {
      ++sheds_;
      metrics_.local.record_shed();
      return;
    }
    exec *= faults_->straggle_factor();
  }
  sched::Job job;
  job.id = next_job_id_++;
  job.cls = core::TaskClass::Local;
  job.priority = core::PriorityClass::Normal;
  job.task = 0;
  job.node = node;
  job.deadline = deadline;
  job.ultimate_deadline = deadline;
  job.exec = exec;
  job.pex = pex;
  if (observer_) observer_->on_local_submitted(node, job, sim_.now());
  nodes_[node]->submit(std::move(job));
}

void ProcessManager::submit_global(const core::TaskSpec& spec,
                                   sim::Time deadline) {
  ++metrics_.global.generated;
  const core::TaskId id = next_task_id_++;
  if (faults_ && faults_->spec().shed &&
      sim_.now() + faults_->spec().shed_margin *
                       spec.root().predicted_duration() >
          deadline) {
    // The critical path alone (zero queueing, the most optimistic finish)
    // already overruns the deadline: shed at dispatch, before a slot or
    // any node queue is touched. Arrival + shed both fire so observers'
    // per-task records stay consistent.
    ++sheds_;
    metrics_.global.record_shed();
    if (observer_) {
      observer_->on_global_arrival(id, spec, sim_.now(), deadline);
      observer_->on_global_shed(id, sim_.now());
    }
    return;
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ++recycled_;
  }
  Slot& s = slots_[slot];
  ++s.generation;
  s.live = true;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  s.inst.reset(id, spec, sim_.now(), deadline, ssp_, psp_, load_model_,
               placement_);
  const std::uint64_t handle =
      (static_cast<std::uint64_t>(s.generation) << 32) | slot;
  if (observer_) observer_->on_global_arrival(id, spec, sim_.now(), deadline);
  // Guard the shared scratch: a submission below can dispose synchronously
  // (idle node + abort policy), and the resulting re-entrant disposal must
  // queue instead of clobbering scratch_ mid-iteration.
  const bool outer = !draining_disposals_;
  draining_disposals_ = true;
  scratch_.clear();
  s.inst.start(sim_.now(), scratch_);
  dispatch_submissions(handle, id, s.inst.deadline(), scratch_);
  if (outer) drain_disposals();
}

void ProcessManager::dispatch_submissions(
    std::uint64_t handle, core::TaskId task_id, sim::Time ultimate,
    const std::vector<core::LeafSubmission>& subs, std::uint8_t attempts) {
  if (subs.empty()) return;
  for (const auto& sub : subs) {
    if (sub.node >= nodes_.size())
      throw std::out_of_range("global subtask: bad node id");
    sched::Job job;
    job.id = next_job_id_++;
    job.cls = core::TaskClass::Global;
    job.priority = sub.priority;
    job.task = handle;
    job.leaf = static_cast<std::uint32_t>(sub.leaf);
    job.node = sub.node;
    job.deadline = sub.deadline;
    job.ultimate_deadline = ultimate;
    job.exec = sub.exec;
    job.pex = sub.pex;
    job.attempts = attempts;
    // Straggle inflates the *real* demand only — the scheduler keeps
    // seeing pex, so a straggler is invisible until it overruns. A retry
    // re-flips the coin: the rerun may straggle independently.
    if (faults_) job.exec *= faults_->straggle_factor();
    if (observer_) observer_->on_subtask_submitted(task_id, sub, sim_.now());
    nodes_[sub.node]->submit(std::move(job));
  }
}

void ProcessManager::on_disposed(const sched::Job& job, sim::Time now,
                                 sched::JobOutcome outcome) {
  if (draining_disposals_) {
    // Re-entrant disposal (a submission below disposed synchronously):
    // queue it for the outer drain loop.
    disposal_queue_.push_back(Disposal{job, now, outcome});
    return;
  }
  draining_disposals_ = true;
  // Common case: handle the disposal in place (no copy into the queue),
  // then drain whatever it spawned.
  handle_disposal(job, now, outcome);
  drain_disposals();
}

void ProcessManager::drain_disposals() {
  // Index-based loop: handle_disposal may append to the queue.
  for (std::size_t i = 0; i < disposal_queue_.size(); ++i) {
    const Disposal d = disposal_queue_[i];
    handle_disposal(d.job, d.at, d.outcome);
  }
  disposal_queue_.clear();
  draining_disposals_ = false;
}

void ProcessManager::release_slot(std::uint32_t slot) {
  slots_[slot].live = false;
  free_slots_.push_back(slot);
  --live_;
}

void ProcessManager::handle_disposal(const sched::Job& job, sim::Time now,
                                     sched::JobOutcome outcome) {
  if (job.cls == core::TaskClass::Local) {
    if (observer_) observer_->on_job_disposed(job, now, outcome);
    if (outcome == sched::JobOutcome::Failed) {
      // A local task dies with its node — it has nowhere else to run.
      metrics_.local.record_failed();
    } else if (outcome == sched::JobOutcome::Aborted) {
      metrics_.local.record_aborted();
    } else {
      metrics_.local_wait.add(now - job.release - job.exec);
      metrics_.local.record_completed(/*response=*/now - job.release,
                                      /*lateness=*/now - job.deadline);
    }
    return;
  }

  // Resolve the slot handle: one array index plus a generation check — the
  // former per-disposal hash lookup, gone.
  const std::uint32_t slot = slot_of(job.task);
  if (slot >= slots_.size() || !slots_[slot].live ||
      slots_[slot].generation != generation_of(job.task))
    throw std::logic_error("global job completion for unknown instance");
  core::TaskInstance& inst = slots_[slot].inst;

  if (observer_) {
    // Observers see the stable TaskId, not the pool handle.
    sched::Job view = job;
    view.task = inst.id();
    observer_->on_job_disposed(view, now, outcome);
  }

  // Online feedback for adaptive strategies: subtask lateness relative to
  // the *virtual* deadline, in simulated disposal order (deterministic).
  if (feedback_)
    feedback_->on_subtask_disposed(now - job.deadline,
                                   outcome == sched::JobOutcome::Completed);

  if (outcome == sched::JobOutcome::Failed) {
    // Crash orphan. The submission is no longer outstanding either way;
    // whether the task survives depends on the retry budget and the
    // remaining deadline slack.
    inst.on_leaf_failed(job.leaf);
    if (inst.state() == core::InstanceState::Running) {
      bool retried = false;
      if (faults_ && job.attempts < faults_->spec().retry_budget &&
          now + job.pex <= job.ultimate_deadline) {
        // Deadline-aware retry: re-place on a live eligible node. The
        // feasibility cutoff is the optimistic bound — if even zero
        // queueing cannot meet the end-to-end deadline, the rerun is
        // wasted capacity under exactly the overload a crash creates.
        retry_scratch_.clear();
        if (inst.resubmit_leaf(
                job.leaf, now,
                [this](core::NodeId n) { return nodes_[n]->up(); },
                retry_scratch_)) {
          ++retries_;
          dispatch_submissions(job.task, inst.id(), inst.deadline(),
                               retry_scratch_,
                               static_cast<std::uint8_t>(job.attempts + 1));
          retried = true;
        }
      }
      if (!retried) {
        inst.abort();
        metrics_.global.record_failed();
        if (observer_) observer_->on_global_failed(inst.id(), now);
      }
    }
    if (inst.state() != core::InstanceState::Running && inst.drained())
      release_slot(slot);
    return;
  }

  if (outcome == sched::JobOutcome::Aborted &&
      inst.state() == core::InstanceState::Running) {
    // A discarded subtask dooms its global task: record the miss once and
    // stop issuing further stages. Already-queued sibling subtasks drain
    // silently below.
    inst.abort();
    metrics_.global.record_aborted();
    if (observer_) observer_->on_global_aborted(inst.id(), now);
  }

  if (outcome == sched::JobOutcome::Completed)
    metrics_.subtask_wait.add(now - job.release - job.exec);

  scratch_.clear();
  const bool task_done = inst.on_leaf_complete(job.leaf, now, scratch_);
  // Submissions may dispose synchronously (idle node + abort policy), but
  // such disposals only enqueue onto disposal_queue_ while draining, so
  // `inst` stays valid through this call.
  dispatch_submissions(job.task, inst.id(), inst.deadline(), scratch_);
  if (task_done) finish_global(inst, now);
  if (inst.state() != core::InstanceState::Running && inst.drained())
    release_slot(slot);
}

void ProcessManager::finish_global(core::TaskInstance& inst, sim::Time now) {
  metrics_.global.record_completed(/*response=*/now - inst.arrival(),
                                   /*lateness=*/now - inst.deadline());
  if (observer_)
    observer_->on_global_finished(inst.id(), now, now > inst.deadline());
}

}  // namespace dsrt::system
