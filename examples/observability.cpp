// Observability tour: one run instrumented end to end with the dsrt::obs
// subsystem — engine counters, deadline-miss attribution, a Perfetto trace,
// plus the classic trace and Gantt tools, all fanned out from a single
// observer slot, and the per-stage slack the run's metrics count.
//
//   ./example_observability [--ssp=UD] [--window=60] [--trace_out=FILE]
#include <cstdio>
#include <iostream>

#include "dsrt/dsrt.hpp"
#include "dsrt/trace/gantt.hpp"

using namespace dsrt;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const double window = flags.get("window", 60.0);
  const std::string trace_out = flags.get("trace_out", std::string());

  system::Config cfg = system::baseline_ssp();
  cfg.ssp = core::serial_strategy_by_name(flags.get("ssp", std::string("UD")));
  cfg.horizon = 5000;
  cfg.probes = true;  // harvest the engine counters at end of run

  // KeepTail: a small ring holding whatever led up to the end of the run.
  trace::Recorder recorder(256, trace::Overflow::KeepTail);
  trace::GanttChart gantt(1000.0, 1000.0 + window, 100);
  obs::MissAttribution attribution(cfg.nodes);
  obs::PerfettoExporter::Options trace_options;
  trace_options.compute_nodes = cfg.nodes;
  obs::PerfettoExporter exporter(trace_options);

  obs::ObserverTee tee;
  tee.attach(&recorder);
  tee.attach(&gantt);
  tee.attach(&attribution);
  tee.attach(&exporter);

  system::SimulationRun run(cfg, 0);
  run.set_observer(&tee);
  const system::RunMetrics metrics = run.run();

  std::printf("--- first global task's timeline (ssp=%s) ---\n",
              std::string(cfg.ssp->name()).c_str());
  for (const auto& e : recorder.task_timeline(1)) {
    std::printf("  t=%8.3f  %-16s", e.at, trace::to_string(e.kind));
    if (e.kind == trace::TraceKind::SubtaskSubmit)
      std::printf(" stage %zu on node %u, virtual dl %.3f", e.stage + 1,
                  e.node, e.deadline);
    std::printf("\n");
  }
  std::printf("  (the recorder is a %zu-event KeepTail ring; %llu older "
              "events were overwritten)\n",
              recorder.events().size(),
              static_cast<unsigned long long>(recorder.dropped()));

  std::printf("\n--- node occupancy, %g time units around t=1000 ---\n",
              window);
  gantt.render(std::cout, cfg.nodes);

  std::printf("\n--- slack consumed per stage (mean wait in queue) ---\n");
  for (std::size_t s = 0; s < cfg.subtasks; ++s)
    std::printf("  stage %zu: wait %.3f, window %.3f, virtual misses %.1f%%\n",
                s + 1, metrics.stages[s].wait.mean(),
                metrics.stages[s].window.mean(),
                100.0 * metrics.stages[s].virtual_miss.value());

  std::printf("\n--- why deadlines were missed (MD_global %.1f%%) ---\n",
              100.0 * metrics.global.missed.value());
  attribution.table().print(std::cout);
  std::printf("  mean lateness decomposition over missed completions:\n"
              "    queueing %.3f + overrun %.3f + comm %.3f - slack %.3f "
              "~= lateness %.3f\n",
              attribution.queueing().mean(), attribution.overrun().mean(),
              attribution.comm().mean(), attribution.slack().mean(),
              attribution.lateness().mean());

  std::printf("\n--- engine counters (Config::probes) ---\n%s\n",
              metrics.counters.json().c_str());

  if (!trace_out.empty()) {
    exporter.write_file(trace_out);
    std::printf("\nwrote %s (%zu slices) — open it in ui.perfetto.dev\n",
                trace_out.c_str(), exporter.captured());
  } else {
    std::printf("\npass --trace_out=trace.json to export a Perfetto "
                "timeline of this run.\n");
  }
  std::printf("try --ssp=EQF and compare the per-stage waits and causes.\n");
  return 0;
}
