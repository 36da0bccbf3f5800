// A6b — extension: automatic selection of the DIV-x promotion factor.
//
// Section 5.3 leaves "how to set the value of x" to [7]; tune_div_x answers
// it operationally: bisection on the class gap MD_global - MD_local, which
// is monotone in x. This program reports the fair x* per load and fan-out
// — showing how the right amount of promotion moves with system
// conditions.
//
//   ./example_abl_divx_autotune [--horizon=200000] [--reps=2]
#include <cstdio>
#include <iostream>

#include "dsrt/engine/tuning.hpp"
#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/util/flags.hpp"

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  const double horizon = flags.get("horizon", 2e5);
  const long reps = flags.get("reps", 2L);
  if (reps < 1) {
    std::fprintf(stderr, "bad flags: --reps must be >= 1\n");
    return 1;
  }

  std::printf("== abl_divx_autotune ==\n"
              "reproduces: Section 5.3 open question: choosing x "
              "(bisection on the class miss-rate gap)\n"
              "parallel baseline; x* equalizes MD_global and MD_local\n\n");

  dsrt::stats::Table table({"load", "fan-out m", "x*", "MD_local(%)",
                            "MD_global(%)", "residual gap(pp)", "probes"});
  for (double load : {0.4, 0.5, 0.6}) {
    for (std::size_t m : {2u, 4u}) {
      dsrt::system::Config cfg = dsrt::system::baseline_psp();
      cfg.horizon = horizon;
      cfg.load = load;
      cfg.subtasks = m;
      const auto t =
          dsrt::engine::tune_div_x(cfg, static_cast<std::size_t>(reps));
      table.add_row({dsrt::stats::Table::cell(load, 1), std::to_string(m),
                     dsrt::stats::Table::cell(t.x, 3),
                     dsrt::stats::Table::percent(t.md_local, 1),
                     dsrt::stats::Table::percent(t.md_global, 1),
                     dsrt::stats::Table::percent(t.gap, 1),
                     std::to_string(t.evaluations)});
    }
  }
  table.print(std::cout);
  std::printf("\n");
  return 0;
}
