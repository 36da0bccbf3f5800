// T1 — Table 1: the baseline parameter setting, printed from the live
// Config object (not hard-coded strings), together with the rates the
// load equations of Section 4.1 derive from it.
//
//   ./example_tab1_baseline_settings
#include <cstdio>
#include <iostream>

#include "dsrt/stats/report.hpp"
#include "dsrt/system/baseline.hpp"

int main() {
  std::printf("== tab1_baseline_settings ==\n"
              "reproduces: Table 1: baseline setting\n\n");

  const dsrt::system::Config cfg = dsrt::system::baseline_ssp();
  dsrt::stats::Table table({"parameter", "value"});
  table.add_row({"Overload Management Policy",
                 std::string(cfg.abort_policy->name())});
  table.add_row({"Local Scheduling Algorithm",
                 std::string(cfg.policy->name())});
  table.add_row({"subtask exec", cfg.subtask_exec->describe()});
  table.add_row({"local exec", cfg.local_exec->describe()});
  table.add_row({"k (# of nodes)", std::to_string(cfg.nodes)});
  table.add_row({"m (# of subtasks of a global task)",
                 std::to_string(cfg.subtasks)});
  table.add_row({"load", dsrt::stats::Table::cell(cfg.load, 2)});
  table.add_row({"frac_local", dsrt::stats::Table::cell(cfg.frac_local, 2)});
  table.add_row({"[Smin, Smax]", cfg.local_slack->describe()});
  table.add_row({"rel_flex", dsrt::stats::Table::cell(cfg.rel_flex, 1)});
  table.add_row({"pex(X)/ex(X)", std::string(cfg.pex_error->name())});
  table.print(std::cout);
  std::printf("\n");

  dsrt::stats::Table derived({"derived quantity", "value"});
  derived.add_row({"lambda_local (total, all nodes)",
                   dsrt::stats::Table::cell(cfg.lambda_local_total(), 4)});
  derived.add_row({"lambda_global",
                   dsrt::stats::Table::cell(cfg.lambda_global(), 4)});
  derived.add_row({"E[work per global task]",
                   dsrt::stats::Table::cell(cfg.expected_global_work(), 3)});
  derived.add_row({"global slack distribution",
                   cfg.global_slack()->describe()});
  std::printf("derived from the Section 4.1 load equations:\n");
  derived.print(std::cout);
  std::printf("\n");
  return 0;
}
