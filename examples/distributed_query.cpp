// PSP in practice: a scatter-gather query fanned out to replica servers.
//
// A front-end splits each query into m parallel lookups, one per replica
// shard, and answers only when ALL shards respond (the paper's parallel
// task model, Section 5). Every shard also runs its own local maintenance
// jobs. This example measures how the PSP strategy changes the fraction of
// queries answered within their latency budget, and demonstrates DIV-x's
// self-adjusting promotion: wider fan-outs get proportionally earlier
// virtual deadlines.
//
//   ./example_distributed_query [--fanout=4] [--load=0.6] [--horizon=200000]
#include <cstdio>
#include <iostream>

#include "dsrt/dsrt.hpp"

using namespace dsrt;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto fanout = static_cast<std::size_t>(flags.get("fanout", 4L));
  const double load = flags.get("load", 0.6);

  std::printf("scatter-gather queries: fan-out %zu over 8 replicas, "
              "load %.2f\n\n", fanout, load);

  // --- how DIV-x adapts to fan-out ---------------------------------------
  std::printf("DIV-1 virtual deadline vs fan-out (query window 10 ms):\n");
  for (std::size_t n : {2u, 4u, 8u}) {
    core::ParallelContext ctx;
    ctx.group_arrival = 0;
    ctx.group_deadline = 10;
    ctx.now = 0;
    ctx.count = n;
    const auto dl = core::make_div_x(1.0)->assign(ctx).deadline;
    std::printf("  n=%zu -> dl(shard lookup) = %.2f ms\n", n, dl);
  }
  std::printf("\n");

  // --- full simulation ----------------------------------------------------
  system::Config cfg = system::baseline_psp();
  cfg.nodes = 8;
  cfg.subtasks = fanout;
  cfg.load = load;
  cfg.frac_local = 0.5;  // half the work is shard-local maintenance
  cfg.horizon = flags.get("horizon", 200000.0);

  stats::Table table({"psp strategy", "MD_query(%)", "MD_maintenance(%)",
                      "query p-mean latency"});
  for (const char* name : {"UD", "DIV1", "DIV2", "GF"}) {
    cfg.psp = core::parallel_strategy_by_name(name);
    const auto result = engine::run({{.config = cfg}}, 2, 0).front().result;
    table.add_row({name, stats::Table::percent(result.md_global.mean, 1),
                   stats::Table::percent(result.md_local.mean, 1),
                   stats::Table::cell(result.response_global.mean, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nUD lets shard lookups inherit the whole query budget and lose to\n"
      "maintenance jobs; DIV-x promotes them in proportion to the fan-out;\n"
      "GF always serves lookups first (at maintenance's expense).\n");
  return 0;
}
