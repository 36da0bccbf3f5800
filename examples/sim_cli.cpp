// Generic simulation front-end: run any configuration of the model — or a
// whole parameter sweep — from the command line, no code required.
//
//   ./example_sim_cli --shape=parallel --psp=DIV1 --load=0.6 --reps=4
//   ./example_sim_cli --sweep_load=0.1,0.3,0.5 --sweep_ssp=UD,EQF \
//       --jobs=4 --out=. --quick
//   ./example_sim_cli --help
//
// Single-configuration runs print per-class miss ratios with confidence
// intervals, response-time quantiles, and utilizations. Sweep runs
// (--sweep_<field>=v1,v2,... — repeatable; cartesian by default, --zip for
// lockstep) print one row per grid point. The flags become an unregistered
// xp manifest named sim_cli, run by xp::run_grid: replications and sweep
// points execute concurrently on the engine thread pool (--jobs=N; results
// are identical for every N). --out=DIR writes DIR/sim_cli.jsonl, one
// exact xp artifact line per point, the same record sweep_cli writes;
// runs without it only print.
#include <cstdio>
#include <iostream>

#include "dsrt/dsrt.hpp"
#include "dsrt/system/cli.hpp"

using namespace dsrt;

namespace {

/// Collects --sweep_<field>=v1,v2,... axes. std::map iteration makes the
/// axis order (and thus the grid's row-major point order) the
/// alphabetical order of the field names — deterministic across runs.
engine::SweepGrid grid_from_flags(const util::Flags& flags) {
  engine::SweepGrid grid;
  for (const auto& [name, value] : flags.all()) {
    if (name.rfind("sweep_", 0) != 0) continue;
    // Values split on ','; a ';' anywhere switches the separator so
    // comma-parameterized specs sweep too:
    //   --sweep_arrivals='poisson;mmpp:4,0.25;onoff:20,80'
    const char sep = value.find(';') != std::string::npos ? ';' : ',';
    grid.axis(
        engine::SweepAxis::by_field(name.substr(6), util::split(value, sep)));
  }
  if (flags.get("zip", false)) grid.mode(engine::SweepGrid::Mode::Zipped);
  return grid;
}

void print_single_point(const system::Config& cfg,
                        const system::ExperimentResult& result) {
  stats::Table table({"metric", "local", "global"});
  auto pct = [](const stats::Estimate& e) {
    return stats::Table::percent(e.mean, 2) + " +- " +
           stats::Table::percent(e.half_width, 2);
  };
  table.add_row({"missed deadlines (%)", pct(result.md_local),
                 pct(result.md_global)});
  table.add_row({"mean response",
                 stats::Table::with_ci(result.response_local.mean,
                                       result.response_local.half_width, 3),
                 stats::Table::with_ci(result.response_global.mean,
                                       result.response_global.half_width,
                                       3)});
  // Tail quantiles over the pooled per-class metrics of all runs
  // (ClassMetrics::merge pools histograms and counters exactly).
  system::ClassMetrics local_pool, global_pool;
  for (const auto& run : result.runs) {
    local_pool.merge(run.local);
    global_pool.merge(run.global);
  }
  for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.5},
                                 {"p90", 0.9},
                                 {"p99", 0.99}}) {
    table.add_row({std::string("response ") + label,
                   stats::Table::cell(local_pool.response_hist.quantile(q), 2),
                   stats::Table::cell(global_pool.response_hist.quantile(q),
                                      2)});
  }
  table.add_row({"tasks finished", std::to_string(local_pool.missed.trials()),
                 std::to_string(global_pool.missed.trials())});
  table.add_row({"tasks aborted", std::to_string(local_pool.aborted),
                 std::to_string(global_pool.aborted)});
  const auto& first = result.runs.front();
  table.print(std::cout);

  std::printf("\nutilization: compute %.1f%%", 100 * result.utilization.mean);
  if (cfg.link_nodes > 0)
    std::printf(", links %.1f%%", 100 * first.mean_link_utilization);
  std::printf("   (events: %llu)\n",
              static_cast<unsigned long long>(first.events));
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::printf("%s", system::cli_usage().c_str());
    return 0;
  }

  system::Config cfg;
  system::RunOptions opts;
  engine::SweepGrid grid;
  try {
    cfg = system::config_from_flags(flags);
    opts = system::run_options_from_flags(flags);
    grid = grid_from_flags(flags);
    if (flags.get("quick", false)) cfg.horizon = 1e5;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad configuration: %s\n%s", error.what(),
                 system::cli_usage().c_str());
    return 1;
  }

  // Fail a typo'd --out before simulating anything.
  const bool writes_record = !opts.out_dir.empty();
  if (writes_record) {
    try {
      engine::ensure_writable_dir(opts.out_dir);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
  }

  std::printf("config: %s\n", cfg.describe().c_str());
  std::printf("lambda_local(total)=%.4f lambda_global=%.4f  reps=%zu\n",
              cfg.lambda_local_total(), cfg.lambda_global(), opts.reps);

  xp::Manifest manifest;
  manifest.name = "sim_cli";
  manifest.replications = opts.reps;
  manifest.base = [cfg] { return cfg; };
  manifest.grid = [grid] { return grid; };
  manifest.metrics = xp::default_metrics();
  xp::GridRun run;
  try {
    run = xp::run_grid(manifest, cfg, opts.reps, opts.jobs);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep failed: %s\n", error.what());
    return 1;
  }
  const engine::SweepResult& sweep = run.sweep;
  std::printf("%zu point(s) x %zu rep(s) on %zu job(s): %.2fs "
              "(%.2f runs/s)\n\n",
              sweep.points.size(), sweep.replications, sweep.jobs,
              sweep.wall_seconds, sweep.runs_per_second());

  if (grid.axes().empty()) {
    print_single_point(cfg, sweep.points.front().result);
    if (!sweep.points.front().result.counters.empty())
      std::printf("\ncounters (pooled over %zu reps):\n%s\n", opts.reps,
                  sweep.points.front().result.counters.json().c_str());
  } else {
    engine::sweep_table(sweep).print(std::cout);
  }

  // --trace_out: one extra replication-0 run of the first point with the
  // Perfetto exporter attached. Separate from the sweep on purpose — the
  // measured runs above stay observer-free.
  if (!opts.trace_out.empty()) {
    try {
      obs::PerfettoExporter::Options trace_options;
      trace_options.compute_nodes = cfg.nodes;
      obs::PerfettoExporter exporter(trace_options);
      system::Config traced = grid.axes().empty()
                                  ? cfg
                                  : sweep.points.front().point.config;
      system::SimulationRun run(traced);
      run.set_observer(&exporter);
      run.run();
      exporter.write_file(opts.trace_out);
      std::printf("\nwrote %s (%zu slices%s)\n", opts.trace_out.c_str(),
                  exporter.captured(),
                  exporter.dropped() > 0 ? ", capped" : "");
    } catch (const std::exception& error) {
      std::fprintf(stderr, "trace export failed: %s\n", error.what());
      return 1;
    }
  }

  // --capture: one extra replication-0 run of the first point with the
  // workload-trace writer attached. The written file replays bit for bit
  // through --trace=FILE (same horizon): CI compares the metrics and runs
  // of the capturing and the replaying run's --out records.
  if (!opts.capture.empty()) {
    try {
      system::Config captured = grid.axes().empty()
                                    ? cfg
                                    : sweep.points.front().point.config;
      workload::TraceWriter writer(opts.capture, captured.nodes,
                                   captured.link_nodes);
      system::SimulationRun run(captured);
      run.set_trace_writer(&writer);
      run.run();
      writer.close();
      std::printf("\nwrote %s (%zu releases; replay with --trace)\n",
                  opts.capture.c_str(), writer.records());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "capture failed: %s\n", error.what());
      return 1;
    }
  }

  if (writes_record) {
    const std::string path = opts.out_dir + "/sim_cli.jsonl";
    try {
      xp::write_artifact_file(manifest.name, path, run.records);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    std::printf("\nwrote %s (%zu record(s))\n", path.c_str(),
                run.records.size());
  }
  return 0;
}
