#include "dsrt/trace/recorder.hpp"

#include <iomanip>
#include <ostream>

namespace dsrt::trace {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::LocalSubmit: return "local-submit";
    case TraceKind::GlobalArrival: return "global-arrival";
    case TraceKind::SubtaskSubmit: return "subtask-submit";
    case TraceKind::JobComplete: return "job-complete";
    case TraceKind::JobAbort: return "job-abort";
    case TraceKind::GlobalFinish: return "global-finish";
    case TraceKind::GlobalMiss: return "global-miss";
    case TraceKind::GlobalAbort: return "global-abort";
    case TraceKind::GlobalFail: return "global-fail";
    case TraceKind::GlobalShed: return "global-shed";
  }
  return "?";
}

Recorder::Recorder(std::size_t capacity, Overflow mode)
    : capacity_(capacity), mode_(mode) {
  events_.reserve(capacity < 1024 ? capacity : 1024);
}

// Each hook writes its fields straight into the slot: building the event
// first and copying it in stalls on a store-forwarding failure per event.
inline TraceEvent* Recorder::next_slot() {
  if (events_.size() < capacity_) return &events_.emplace_back();
  ++dropped_;
  if (mode_ != Overflow::KeepTail || capacity_ == 0) return nullptr;
  TraceEvent* slot = &events_[head_];  // the oldest kept event
  if (++head_ == capacity_) head_ = 0;
  return slot;
}

namespace {

void fill(TraceEvent* e, TraceKind kind, sim::Time at, core::TaskId task,
          core::NodeId node, sim::Time deadline, std::size_t stage) {
  e->kind = kind;
  e->at = at;
  e->task = task;
  e->node = node;
  e->deadline = deadline;
  e->stage = stage;
}

}  // namespace

void Recorder::on_local_submitted(core::NodeId node, const sched::Job& job,
                                  sim::Time now) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::LocalSubmit, now, 0, node, job.deadline, 0);
}

void Recorder::on_global_arrival(core::TaskId task, const core::TaskSpec&,
                                 sim::Time now, sim::Time deadline) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::GlobalArrival, now, task, 0, deadline, 0);
}

void Recorder::on_subtask_submitted(core::TaskId task,
                                    const core::LeafSubmission& submission,
                                    sim::Time now) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::SubtaskSubmit, now, task, submission.node,
         submission.deadline, submission.sibling_index);
}

void Recorder::on_job_disposed(const sched::Job& job, sim::Time now,
                               sched::JobOutcome outcome) {
  if (TraceEvent* e = next_slot())
    fill(e,
         outcome == sched::JobOutcome::Completed ? TraceKind::JobComplete
                                                 : TraceKind::JobAbort,
         now, job.task, job.node, job.deadline, 0);
}

void Recorder::on_global_finished(core::TaskId task, sim::Time now,
                                  bool missed) {
  if (TraceEvent* e = next_slot())
    fill(e, missed ? TraceKind::GlobalMiss : TraceKind::GlobalFinish, now,
         task, 0, 0, 0);
}

void Recorder::on_global_aborted(core::TaskId task, sim::Time now) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::GlobalAbort, now, task, 0, 0, 0);
}

void Recorder::on_global_failed(core::TaskId task, sim::Time now) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::GlobalFail, now, task, 0, 0, 0);
}

void Recorder::on_global_shed(core::TaskId task, sim::Time now) {
  if (TraceEvent* e = next_slot())
    fill(e, TraceKind::GlobalShed, now, task, 0, 0, 0);
}

void Recorder::clear() {
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Recorder::ordered() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  const std::size_t start = head();
  for (std::size_t i = 0; i < events_.size(); ++i)
    out.push_back(events_[(start + i) % events_.size()]);
  return out;
}

void Recorder::print(std::ostream& os, std::size_t limit) const {
  if (dropped_ > 0) {
    os << "[" << dropped_ << " events "
       << (mode_ == Overflow::KeepTail ? "overwritten (showing tail)"
                                       : "dropped (showing head)")
       << "]\n";
  }
  const std::size_t start = head();
  std::size_t shown = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[(start + i) % events_.size()];
    if (shown++ >= limit) {
      os << "... (" << events_.size() - limit << " more)\n";
      break;
    }
    os << std::fixed << std::setprecision(3) << std::setw(12) << e.at << "  "
       << std::left << std::setw(16) << to_string(e.kind) << std::right;
    if (e.task != 0) os << " task=" << e.task;
    if (e.kind == TraceKind::SubtaskSubmit)
      os << " stage=" << e.stage << " node=" << e.node;
    if (e.kind == TraceKind::LocalSubmit) os << " node=" << e.node;
    if (e.deadline != 0) os << " dl=" << e.deadline;
    os << '\n';
  }
}

std::vector<TraceEvent> Recorder::task_timeline(core::TaskId task) const {
  std::vector<TraceEvent> out;
  const std::size_t start = head();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[(start + i) % events_.size()];
    if (e.task == task) out.push_back(e);
  }
  return out;
}

}  // namespace dsrt::trace
