#pragma once

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/task_spec.hpp"
#include "dsrt/sched/job.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::system {

/// Hook interface onto the process manager's task lifecycle. All methods
/// default to no-ops; attach via ProcessManager::set_observer (or
/// SimulationRun::set_observer). Observers see events *after* the internal
/// bookkeeping for them completed and must not re-enter the process
/// manager.
///
/// Used by the trace recorder, the Gantt chart and the obs sinks (miss
/// attribution, Perfetto export), and usable by applications for custom
/// instrumentation. Counts every run needs (per class, per task width,
/// per stage) live in RunMetrics instead, filled by the process manager.
class Observer {
 public:
  virtual ~Observer() = default;

  /// A local task was submitted to `node`.
  virtual void on_local_submitted(core::NodeId node, const sched::Job& job,
                                  sim::Time now) {
    (void)node; (void)job; (void)now;
  }

  /// A new global task arrived with the given end-to-end deadline.
  virtual void on_global_arrival(core::TaskId task, const core::TaskSpec& spec,
                                 sim::Time now, sim::Time deadline) {
    (void)task; (void)spec; (void)now; (void)deadline;
  }

  /// A simple subtask of `task` was released to its node with its assigned
  /// virtual deadline.
  virtual void on_subtask_submitted(core::TaskId task,
                                    const core::LeafSubmission& submission,
                                    sim::Time now) {
    (void)task; (void)submission; (void)now;
  }

  /// A node disposed of a job (completed or aborted). Fires for both task
  /// classes, including orphan subtasks of already-aborted global tasks.
  virtual void on_job_disposed(const sched::Job& job, sim::Time now,
                               sched::JobOutcome outcome) {
    (void)job; (void)now; (void)outcome;
  }

  /// A global task finished all subtasks. `missed` = finished after dl(T).
  virtual void on_global_finished(core::TaskId task, sim::Time now,
                                  bool missed) {
    (void)task; (void)now; (void)missed;
  }

  /// A global task was terminated because a subtask was discarded.
  virtual void on_global_aborted(core::TaskId task, sim::Time now) {
    (void)task; (void)now;
  }

  /// A global task was terminated because a crash-orphaned subtask could not
  /// be retried (budget exhausted, deadline infeasible, or no live node).
  virtual void on_global_failed(core::TaskId task, sim::Time now) {
    (void)task; (void)now;
  }

  /// A global task was shed by the admission controller at dispatch
  /// (predicted infeasible before any subtask was submitted).
  virtual void on_global_shed(core::TaskId task, sim::Time now) {
    (void)task; (void)now;
  }
};

}  // namespace dsrt::system
