// A11 — conclusion claim (Section 7): with tardy-abort supported, "DIV-x
// is a better choice [than GF] because it evens up the miss rate of global
// tasks with different number of subtasks."
//
// Parallel tasks with per-task random width m ~ U[1,6]; miss ratio
// *conditioned on m*. Under UD (and to a lesser degree GF) wide tasks fail
// far more often — any straggler dooms the join — whereas DIV-x promotes
// proportionally to n and flattens the curve.
//
//   ./example_abl_fairness_by_m [--horizon=400000]
#include <cstdio>
#include <iostream>
#include <map>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/trace/fairness_profiler.hpp"
#include "dsrt/util/flags.hpp"

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  const double horizon = flags.get("horizon", 4e5);

  std::printf("== abl_fairness_by_m ==\n"
              "reproduces: Section 7: DIV-x evens up miss rates across task "
              "widths\n"
              "parallel tasks with m ~ U[1,6]; MD_global conditioned on m; "
              "load 0.5\n\n");

  std::vector<std::string> headers = {"m"};
  const std::vector<const char*> strategies = {"UD", "DIV1", "DIV2", "GF",
                                               "EQF-P"};
  for (const char* s : strategies) headers.push_back(s);
  dsrt::stats::Table table(headers);

  std::map<std::size_t, std::vector<double>> rows;
  for (const char* name : strategies) {
    dsrt::system::Config cfg = dsrt::system::baseline_psp();
    cfg.horizon = horizon;
    cfg.subtask_count = dsrt::sim::uniform(1.0, 6.0);
    cfg.psp = dsrt::core::parallel_strategy_by_name(name);
    dsrt::trace::FairnessProfiler profiler;
    dsrt::system::SimulationRun run(cfg, 0);
    run.set_observer(&profiler);
    run.run();
    for (const auto& [size, s] : profiler.by_size())
      rows[size].push_back(s.missed.value());
  }

  for (const auto& [size, values] : rows) {
    std::vector<std::string> row = {std::to_string(size)};
    for (double v : values) row.push_back(dsrt::stats::Table::percent(v, 1));
    if (row.size() == headers.size()) table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("\n");
  std::printf("expect: UD's column rises steeply with m; DIV-x columns stay "
              "much flatter.\n");
  return 0;
}
