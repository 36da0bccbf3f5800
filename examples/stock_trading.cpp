// The paper's motivating application (Section 1): stock market analysis
// and program trading. Price information is gathered from multiple sources
// in parallel, piped through a series of filters, analyzed by an expert
// system (database search + rule processing), and acted on with a buy/sell
// order — all within an end-to-end deadline given by the system
// specification ("a buy-sell action should be implemented within two
// minutes from the time when the information is gathered").
//
// This example builds that task as a serial-parallel tree, shows how each
// SSP/PSP combination splits the two-minute deadline across the stages, and
// then simulates a trading floor where such tasks compete with local work
// at every component.
//
//   ./example_stock_trading [--horizon=200000]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dsrt/dsrt.hpp"

using namespace dsrt;

namespace {

// Component nodes of the trading system.
enum Component : core::NodeId {
  kFeedNYSE = 0,   // market data feeds
  kFeedNASDAQ = 1,
  kFeedForex = 2,
  kFilter = 3,     // refinement filter pipeline
  kExpert = 4,     // expert system (DB + rules)
  kTrader = 5,     // order execution gateway
};

const char* component_name(core::NodeId node) {
  switch (node) {
    case kFeedNYSE: return "feed:NYSE";
    case kFeedNASDAQ: return "feed:NASDAQ";
    case kFeedForex: return "feed:FX";
    case kFilter: return "filter";
    case kExpert: return "expert-system";
    case kTrader: return "trader";
  }
  return "?";
}

/// One program-trading task: gather quotes from three feeds in parallel,
/// filter, analyze, trade. Times in seconds.
core::TaskSpec make_trading_task() {
  return core::TaskSpec::serial({
      core::TaskSpec::parallel({
          core::TaskSpec::simple(kFeedNYSE, 8.0),
          core::TaskSpec::simple(kFeedNASDAQ, 6.0),
          core::TaskSpec::simple(kFeedForex, 10.0),
      }),
      core::TaskSpec::simple(kFilter, 12.0),
      core::TaskSpec::simple(kExpert, 35.0),  // DB search + rule processing
      core::TaskSpec::simple(kTrader, 5.0),
  });
}

void show_decomposition(const char* ssp_name, const char* psp_name) {
  const auto task = make_trading_task();
  core::TaskInstance inst(1, task, /*arrival=*/0.0, /*deadline=*/120.0,
                          core::serial_strategy_by_name(ssp_name),
                          core::parallel_strategy_by_name(psp_name));
  std::printf("%s + %s:\n", ssp_name, psp_name);
  std::vector<core::LeafSubmission> pending;
  inst.start(0.0, pending);
  double now = 0.0;
  while (!pending.empty()) {
    std::vector<core::LeafSubmission> next;
    // Finish the whole released wave (each leaf on its own component).
    double wave_end = now;
    for (const auto& sub : pending) {
      std::printf("  t=%6.1fs  submit %-12s ex=%5.1fs  virtual dl=%6.1fs%s\n",
                  now, component_name(sub.node), sub.exec, sub.deadline,
                  sub.priority == core::PriorityClass::Elevated
                      ? "  [globals-first]"
                      : "");
      wave_end = std::max(wave_end, now + sub.exec);
    }
    for (const auto& sub : pending) {
      std::vector<core::LeafSubmission> out;
      inst.on_leaf_complete(sub.leaf, now + sub.exec, out);
      next.insert(next.end(), out.begin(), out.end());
    }
    now = wave_end;
    pending = std::move(next);
  }
  std::printf("  t=%6.1fs  trade executed (deadline 120.0s)\n\n", now);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  std::printf("trading task: %s\n", make_trading_task().to_string().c_str());
  std::printf("end-to-end deadline: 120 s (two minutes)\n\n");

  std::printf("--- deadline decomposition (uncontended timeline) ---\n");
  show_decomposition("UD", "UD");
  show_decomposition("EQF", "DIV1");

  // --- contended simulation ------------------------------------------------
  // Each component also serves unrelated local work (quote lookups,
  // compliance checks, ...). Trading tasks are the global class.
  std::printf("--- trading floor under load (simulation) ---\n");
  system::Config cfg = system::baseline_combined();
  cfg.nodes = 6;
  cfg.load = 0.6;
  cfg.frac_local = 0.7;
  cfg.sp_shape.stages = 4;
  cfg.sp_shape.parallel_prob = 0.25;  // one gather stage in four on average
  cfg.sp_shape.parallel_width = 3;
  cfg.horizon = flags.get("horizon", 200000.0);

  stats::Table table({"strategy", "MD_trading(%)", "MD_local(%)",
                      "mean response"});
  struct Combo { const char* ssp; const char* psp; };
  for (const auto& combo : std::vector<Combo>{{"UD", "UD"}, {"EQF", "UD"},
                                              {"UD", "DIV1"},
                                              {"EQF", "DIV1"}}) {
    cfg.ssp = core::serial_strategy_by_name(combo.ssp);
    cfg.psp = core::parallel_strategy_by_name(combo.psp);
    const auto result = engine::run({{.config = cfg}}, 2, 0).front().result;
    table.add_row({std::string(combo.ssp) + "-" + combo.psp,
                   stats::Table::percent(result.md_global.mean, 1),
                   stats::Table::percent(result.md_local.mean, 1),
                   stats::Table::cell(result.response_global.mean, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\na good SDA strategy keeps trades inside the two-minute window\n"
      "without starving the components' own local work.\n");
  return 0;
}
