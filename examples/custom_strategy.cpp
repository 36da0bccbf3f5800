// Extending the library: plugging user-defined SDA strategies into the
// simulation without touching library code.
//
// Implements two strategies from outside the library:
//  * HalfwayDeadline (serial): splits the difference between ED and UD,
//    dl(Ti) = (ED(Ti) + UD(Ti)) / 2 — a mild slack-hoarding compromise.
//  * JitterDiv (parallel): DIV-1 whose divisor is inflated for the longest
//    subtask, giving the straggler a slightly later deadline than its
//    siblings (it needs the most service, so it pays the most laxity).
//
//   ./example_custom_strategy [--horizon=100000]
#include <cstdio>
#include <iostream>
#include <memory>

#include "dsrt/dsrt.hpp"

using namespace dsrt;

namespace {

/// dl(Ti) = midpoint of Effective Deadline and Ultimate Deadline.
class HalfwayDeadline final : public core::SerialStrategy {
 public:
  sim::Time assign(const core::SerialContext& ctx) const override {
    const double pex_later = ctx.pex_remaining - ctx.pex_self;
    const sim::Time ed = ctx.group_deadline - pex_later;
    return 0.5 * (ed + ctx.group_deadline);
  }
  std::string_view name() const override { return "HALF"; }
};

/// DIV-1 with a straggler bonus: the widest subtask keeps DIV-1's deadline,
/// narrower ones are promoted a bit harder.
class JitterDiv final : public core::ParallelStrategy {
 public:
  core::ParallelAssignment assign(
      const core::ParallelContext& ctx) const override {
    const double window = ctx.group_deadline - ctx.group_arrival;
    const double shrink =
        ctx.pex_max > 0 ? 0.5 + 0.5 * (ctx.pex_self / ctx.pex_max) : 1.0;
    const double divisor = static_cast<double>(ctx.count) / shrink;
    return {ctx.group_arrival + window / divisor,
            core::PriorityClass::Normal};
  }
  std::string_view name() const override { return "JDIV"; }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const double horizon = flags.get("horizon", 100000.0);

  std::printf("custom strategies vs the paper's, same baseline systems\n\n");

  // Serial workload: UD vs HALF vs EQF.
  {
    stats::Table table({"ssp", "MD_local(%)", "MD_global(%)"});
    for (const auto& [label, ssp] :
         std::initializer_list<std::pair<const char*, core::SerialStrategyPtr>>{
             {"UD", core::make_ud()},
             {"HALF (custom)", std::make_shared<HalfwayDeadline>()},
             {"EQF", core::make_eqf()}}) {
      system::Config cfg = system::baseline_ssp();
      cfg.horizon = horizon;
      cfg.ssp = ssp;
      const auto r = engine::Runner().run_replications(cfg, 2);
      table.add_row({label, stats::Table::percent(r.md_local.mean, 1),
                     stats::Table::percent(r.md_global.mean, 1)});
    }
    std::printf("serial tasks:\n");
    table.print(std::cout);
  }

  // Parallel workload: UD vs JDIV vs DIV-1.
  {
    stats::Table table({"psp", "MD_local(%)", "MD_global(%)"});
    for (const auto& [label, psp] :
         std::initializer_list<
             std::pair<const char*, core::ParallelStrategyPtr>>{
             {"UD", core::make_parallel_ud()},
             {"JDIV (custom)", std::make_shared<JitterDiv>()},
             {"DIV1", core::make_div_x(1.0)}}) {
      system::Config cfg = system::baseline_psp();
      cfg.horizon = horizon;
      cfg.psp = psp;
      const auto r = engine::Runner().run_replications(cfg, 2);
      table.add_row({label, stats::Table::percent(r.md_local.mean, 1),
                     stats::Table::percent(r.md_global.mean, 1)});
    }
    std::printf("\nparallel tasks:\n");
    table.print(std::cout);
  }

  std::printf(
      "\nany object implementing SerialStrategy / ParallelStrategy can be\n"
      "assigned to Config::ssp / Config::psp; the process manager applies\n"
      "it recursively over serial-parallel task trees.\n");
  return 0;
}
