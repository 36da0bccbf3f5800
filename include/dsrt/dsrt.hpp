#pragma once

/// Umbrella header for the dsrt library: deadline assignment in a
/// distributed soft real-time system (Kao & Garcia-Molina).
///
/// Layering (lowest first):
///   sim      - discrete-event kernel, RNG, distributions
///   stats    - tallies, confidence intervals, report tables
///   core     - task model, serial-parallel task trees, SDA strategies
///   sched    - node servers, local scheduling policies, abort policies
///   workload - task-population generators: pluggable arrival processes
///              (poisson/batch/mmpp/onoff/diurnal), matched-mean service
///              laws, shapes, slack, pex error, trace capture/replay
///   fault    - deterministic failure injection (crash/link outage
///              renewal processes, execution stragglers) and the spec
///              grammar behind --faults; reactions (retry, shed) live in
///              system, mark-downs in core/sched
///   system   - configuration, process manager, simulation, experiments
///   obs      - observability: metrics registry + engine probes, Perfetto
///              trace export, deadline-miss attribution (registry below
///              system, the observers beside trace)
///   engine   - experiment orchestration: one thread-pool executor
///              (engine::run) for replications and sweeps, declarative
///              parameter grids, DIV-x tuning, result and pivot tables
///   xp       - sweep harness: named manifest registry over the engine's
///              grids (every figure and ablation, with its table views),
///              sharded/resumable manifest runs with JSONL artifacts,
///              tolerance-band checker against committed expectations,
///              bitwise single-point reproduce (sweep_cli front-end)

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/core/task_spec.hpp"
#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/engine/sweep.hpp"
#include "dsrt/engine/thread_pool.hpp"
#include "dsrt/engine/tuning.hpp"
#include "dsrt/fault/injector.hpp"
#include "dsrt/fault/spec.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/probes.hpp"
#include "dsrt/obs/registry.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/obs/trace_export.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/job.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/distribution.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/inline_action.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/sim/time.hpp"
#include "dsrt/stats/confidence.hpp"
#include "dsrt/stats/histogram.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/stats/tally.hpp"
#include "dsrt/stats/time_weighted.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/config.hpp"
#include "dsrt/system/experiment.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/observer.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/trace/recorder.hpp"
#include "dsrt/trace/slack_profiler.hpp"
#include "dsrt/util/flags.hpp"
#include "dsrt/workload/arrival.hpp"
#include "dsrt/workload/generator.hpp"
#include "dsrt/workload/pex_error.hpp"
#include "dsrt/workload/service.hpp"
#include "dsrt/workload/shapes.hpp"
#include "dsrt/workload/trace_io.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/json.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"
