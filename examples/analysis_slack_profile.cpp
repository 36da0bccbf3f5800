// Analysis companion to Fig. 2 — *why* UD loses: per-stage queueing delay
// of global subtasks in the Table-1 baseline.
//
// Section 4's argument: under UD every stage carries the far-away
// end-to-end deadline, so early stages have the lowest EDF priority and
// burn the task's slack in queues, leaving nothing for final stages. Under
// EQS/EQF each stage gets only its fair share of the window, so waits even
// out. This program prints mean wait, allotted window, and
// virtual-deadline overruns per stage index.
//
//   ./example_analysis_slack_profile [--horizon=200000]
#include <cstdio>
#include <iostream>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/trace/slack_profiler.hpp"
#include "dsrt/util/flags.hpp"

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  const double horizon = flags.get("horizon", 2e5);

  std::printf("== analysis_slack_profile ==\n"
              "reproduces: Section 4.2 mechanism: per-stage slack "
              "consumption under UD vs ED vs EQF\n"
              "baseline at load 0.5; m=4 serial stages; 'window' is the "
              "virtual deadline minus submission time\n\n");

  for (const char* name : {"UD", "ED", "EQF"}) {
    dsrt::system::Config cfg = dsrt::system::baseline_ssp();
    cfg.horizon = horizon;
    cfg.ssp = dsrt::core::serial_strategy_by_name(name);
    dsrt::trace::SlackProfiler profiler;
    dsrt::system::SimulationRun run(cfg, 0);
    run.set_observer(&profiler);
    run.run();

    dsrt::stats::Table table({"stage", "mean wait", "mean window",
                              "wait/window(%)", "virtual miss(%)"});
    for (std::size_t s = 0; s < profiler.stages().size(); ++s) {
      const auto& st = profiler.stages()[s];
      const double window = st.allotted_window.mean();
      table.add_row({std::to_string(s + 1),
                     dsrt::stats::Table::cell(st.wait.mean(), 3),
                     dsrt::stats::Table::cell(window, 3),
                     dsrt::stats::Table::percent(
                         window > 0 ? st.wait.mean() / window : 0, 1),
                     dsrt::stats::Table::percent(st.virtual_miss.value(), 1)});
    }
    std::printf("ssp = %s\n", name);
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "expect: UD waits concentrated in early stages (big windows, low\n"
      "priority); EQF waits roughly even and windows near-proportional to\n"
      "stage demand.\n");
  return 0;
}
