#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/fault/spec.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/core/strategy.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/distribution.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/time.hpp"
#include "dsrt/workload/arrival.hpp"
#include "dsrt/workload/pex_error.hpp"
#include "dsrt/workload/shapes.hpp"

namespace dsrt::system {

/// Structure of the global-task population (defined with the workload
/// shapes; re-exported here for configuration convenience).
using GlobalShape = workload::GlobalShape;

/// Full description of one simulation configuration — the knobs of Table 1
/// plus the relaxations of Sections 4.3/5/6. Default values reproduce the
/// paper's baseline setting.
struct Config {
  // --- System (Table 1) -------------------------------------------------
  std::size_t nodes = 6;  ///< k homogeneous nodes
  sched::PolicyPtr policy = sched::make_edf();
  sched::AbortPolicyPtr abort_policy = sched::make_no_abort();
  /// Table 1: "no preemption"; Preemptive enables preemptive-resume.
  sched::PreemptionMode preemption = sched::PreemptionMode::NonPreemptive;

  // --- SDA strategies under test ----------------------------------------
  core::SerialStrategyPtr ssp = core::make_ud();
  core::ParallelStrategyPtr psp = core::make_parallel_ud();
  /// System-state view for load-aware strategies (EQS-L, EQF-L, ...). The
  /// default None wires no accounting at all — the paper's static
  /// strategies run bit-for-bit as before. Sampled/Stale snapshot on a
  /// simulated-time schedule, so determinism (and --jobs invariance) holds
  /// for every kind.
  core::LoadModelSpec load_model;
  /// Dispatch-time node selection for global subtasks. `Static` (default)
  /// binds nodes at generation time exactly as before — bit-for-bit
  /// identical to a build without the placement subsystem. The jsq kinds
  /// defer binding to the instant a stage becomes ready and route it to
  /// the least-loaded eligible node as seen through `load_model` (whose
  /// freshness — exact/sampled/stale — therefore governs placement too;
  /// with no load model wired they degenerate to deterministic
  /// round-robin).
  core::PlacementSpec placement;
  /// Layout discipline of the pending-event set. `Adaptive` (default)
  /// graduates from a sorted array to a ladder/calendar queue as the
  /// pending count grows; the forced values pin one layout for A/B
  /// benchmarks and differential tests. Every mode pops the identical
  /// (time, seq) order, so this can never change a trajectory — only its
  /// speed at thousands-of-nodes configurations.
  sim::QueueMode event_queue = sim::QueueMode::Adaptive;

  // --- Workload (Table 1) ------------------------------------------------
  double load = 0.5;        ///< normalized load in [0, 1)
  double frac_local = 0.75; ///< fraction of load contributed by local tasks
  /// Local task execution times; Table 1: Exp(mean 1/mu_local), mu_local=1.
  sim::DistributionPtr local_exec = sim::exponential(1.0);
  /// Subtask execution times; Table 1: Exp(mean 1/mu_subtask), mu_subtask=1.
  sim::DistributionPtr subtask_exec = sim::exponential(1.0);
  /// Slack of local tasks; Table 1: U[Smin, Smax] = U[0.25, 2.5].
  sim::DistributionPtr local_slack = sim::uniform(0.25, 2.5);
  /// Arrival process of both task streams (Table 1: Poisson). Batch
  /// compounding applies to the local streams only (the event rate is
  /// divided by the batch mean so the offered load is unchanged — only its
  /// clustering); the modulated kinds (mmpp/onoff/diurnal) drive locals and
  /// globals alike. Every kind is rate-normalized, so the offered load is a
  /// property of `load` alone.
  workload::ArrivalSpec arrivals;
  /// When non-empty, replay this workload trace file instead of generating
  /// tasks: the generators are not wired at all and every arrival (times,
  /// exec/pex, deadlines, shapes, eligible sets) comes verbatim from the
  /// file. A trace captured from a run with this config's horizon replays
  /// that run's metrics bit for bit. See workload/trace_io.hpp for the
  /// format.
  std::string trace;
  /// Relative flexibility of global vs local tasks (Table 1: 1.0).
  double rel_flex = 1.0;
  /// Number of subtasks m of a global task (Table 1: 4).
  std::size_t subtasks = 4;
  /// If set, m is drawn per task from this distribution (rounded, clamped
  /// to [1, nodes] for parallel shapes) — the "different number of
  /// subtasks" relaxation of Section 4.3.
  sim::DistributionPtr subtask_count;
  /// Shape of global tasks.
  GlobalShape shape = GlobalShape::Serial;
  /// Slack distribution for *parallel* global tasks (Section 5.2 overrides
  /// the range to U[1.25, 5.0]); scaled by rel_flex.
  sim::DistributionPtr parallel_slack = sim::uniform(1.25, 5.0);
  /// Shape parameters for GlobalShape::SerialParallel.
  workload::SerialParallelShape sp_shape;
  /// Execution-time prediction model (Table 1: pex = ex).
  workload::PexErrorModelPtr pex_error = workload::make_perfect_prediction();
  /// Per-node weights of the local-task arrival rate; empty = homogeneous.
  /// The weights are normalized, so only ratios matter ("some nodes have
  /// higher local task loads than others", Section 4.3).
  std::vector<double> local_weights;
  /// Section 3.2 network modeling: number of dedicated link nodes (ids
  /// nodes..nodes+link_nodes-1). When > 0 (Serial and SerialParallel
  /// shapes), every consecutive pair of stages is connected by a
  /// transmission subtask with `comm_exec` service on a uniformly chosen
  /// link. The normalized
  /// `load` keeps its Table-1 meaning over the k *compute* nodes; link
  /// occupancy is reported separately (RunMetrics::mean_link_utilization).
  std::size_t link_nodes = 0;
  sim::DistributionPtr comm_exec;
  /// When true, global tasks arrive with a deterministic period 1/lambda
  /// instead of as a Poisson stream (periodic-task variant, cf. the
  /// flow-shop work of Bettati & Liu the paper relates to).
  bool periodic_globals = false;
  /// Failure processes injected into the run (crash/link outages, exec
  /// stragglers) and the reactions to them (retry budget, admission
  /// shedding). The default — nothing enabled — builds no injector,
  /// schedules no events and consumes no rng draws: the run is bit-for-bit
  /// identical to a build without the fault subsystem. All fault
  /// randomness lives on its own per-replication rng stream
  /// (fault::kFaultRngStream), so enabling faults never perturbs the
  /// offered workload, and runs stay deterministic and --jobs-invariant.
  fault::FaultSpec faults;

  // --- Run control --------------------------------------------------------
  sim::Time horizon = 1e6;  ///< paper: one million time units per run
  sim::Time warmup = 0;     ///< statistics reset at this time
  std::uint64_t seed = 20250612;
  /// Harvest the engine-wide obs counters (event-queue depth/mode flips,
  /// ready-queue high-water marks, pool occupancy, load-model snapshot age,
  /// placement ties) into RunMetrics::counters at the end of the run. The
  /// counters themselves are passive and always maintained; this flag only
  /// controls the end-of-run harvest, so it cannot perturb the trajectory —
  /// metrics are bit-for-bit identical either way.
  bool probes = false;

  // --- Derived quantities --------------------------------------------------
  /// Expected number of simple subtasks per global task.
  double expected_leaves() const;
  /// Expected total work per global task (sum of leaf execution times).
  double expected_global_work() const;
  /// Expected critical-path execution time of a global task (sum for
  /// serial, E[max] for parallel, stage-wise for serial-parallel).
  double expected_critical_path() const;
  /// Aggregate local-task arrival rate over all nodes: load*frac_local*k /
  /// E[ex_local]. (Section 4.1 load equation solved for lambda_local.)
  double lambda_local_total() const;
  /// Global-task arrival rate: load*(1-frac_local)*k / E[global work].
  double lambda_global() const;
  /// Distribution of the slack of global tasks: rel_flex-scaled copy of the
  /// local range, widened by the ratio of expected critical-path length to
  /// expected local execution (so rel_flex = 1 gives equal average
  /// flexibility); parallel shapes use the explicit Section 5.2 range.
  sim::DistributionPtr global_slack() const;

  /// Validates invariants (load in [0,1), frac_local in [0,1], m >= 1,
  /// parallel width <= nodes, ...). Throws std::invalid_argument.
  void validate() const;

  /// One-line summary for report headers.
  std::string describe() const;
};

}  // namespace dsrt::system
