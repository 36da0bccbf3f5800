// Analysis: response-time distribution tails per class under UD vs EQF.
//
// Miss ratios average away the damage; the tail shows it. Pang et al. [11]
// (the paper's Section 2) observed that "bigger" work units suffer under
// earliest-deadline scheduling because their deadlines sit further in the
// future — this program shows the same effect end-to-end: under UD the
// global p99 response balloons relative to EQF while medians barely move.
//
//   ./example_analysis_response_tails [--horizon=200000]
#include <cstdio>
#include <iostream>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/util/flags.hpp"

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  const double horizon = flags.get("horizon", 2e5);

  std::printf("== analysis_response_tails ==\n"
              "reproduces: response-time quantiles per class (supports "
              "Fig. 2 and the Section 2 discussion of [11])\n"
              "baseline at load 0.5\n\n");

  dsrt::stats::Table table({"ssp", "class", "p50", "p90", "p99",
                            "frac > 2x mean ex(%)"});
  for (const char* name : {"UD", "ED", "EQF"}) {
    dsrt::system::Config cfg = dsrt::system::baseline_ssp();
    cfg.horizon = horizon;
    cfg.ssp = dsrt::core::serial_strategy_by_name(name);
    const auto m = dsrt::system::simulate(cfg);
    const auto row = [&](const char* cls,
                         const dsrt::system::ClassMetrics& cm,
                         double mean_ex) {
      table.add_row(
          {name, cls,
           dsrt::stats::Table::cell(cm.response_hist.quantile(0.50), 2),
           dsrt::stats::Table::cell(cm.response_hist.quantile(0.90), 2),
           dsrt::stats::Table::cell(cm.response_hist.quantile(0.99), 2),
           dsrt::stats::Table::percent(
               cm.response_hist.fraction_above(2.0 * mean_ex), 1)});
    };
    row("local", m.local, 1.0);
    row("global", m.global, 4.0);
  }
  table.print(std::cout);
  std::printf("\n");
  return 0;
}
