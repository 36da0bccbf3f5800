// A16 — extension: scale to thousands of nodes.
//
// The paper stops at k=24; this bench pushes the same serial baseline to
// k=4096 and measures the three levers that make that tractable:
//
//   * event-queue layout — at k nodes the kernel keeps ~2k+2 events
//     pending, so every k here runs the adaptive queue's ladder tier
//     (amortized O(1) inserts, small sorted front) rather than its sorted
//     array; the big configs also run a forced d-ary heap (O(log n) per
//     op over one big array) as the A/B partner. Pop order is identical
//     in every mode, so the trajectory — and every metric — is
//     layout-invariant; only events/second moves.
//   * placement — neither policy's cost grows with k: eligible sets are
//     id intervals, decisions read a candidate view, jsq-pex answers from
//     an O(log k) (min, count-of-minima) tournament tree over the load
//     board, and pod:d samples d nodes by a sparse Fisher-Yates (O(d)).
//     The sweep shows what exact jsq's index costs against pod's O(d)
//     sample, and how close pod stays on MD.
//   * memory — resident set per cell, to catch accidental O(k^2) tables.
//
// Per-point cost stays roughly flat: past k=24 the horizon shrinks ∝ 1/k
// (constant event budget), so the full grid is CI-sized.
//
// Artifact: BENCH_scale.json with one events/second entry per
// (k, placement, queue) cell plus rss_kb/* gauges (items = resident KB).
// The deterministic slice of this sweep (k x placement, adaptive queue)
// is also registered as the `abl_scale_quick` manifest in dsrt::xp, where
// sweep_cli checks it against committed expectations.
//
//   ./bench_abl_scale [--horizon=1e6 | --quick] [--reps=2] [--kmax=4096]
//                     [--out=DIR]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"

namespace {

/// Resident set in KB (VmRSS), 0 where /proc is unavailable.
double resident_kb() {
  double kb = 0;
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      status >> kb;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
#endif
  return kb;
}

struct PlacementCase {
  const char* placement;   ///< PlacementSpec token
  const char* load_model;  ///< LoadModelSpec token ("none" = unwired)
};

}  // namespace

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  double horizon = 0;
  dsrt::system::RunOptions opts;
  std::size_t kmax = 0;
  try {
    horizon = flags.get("quick", false) ? 1e5 : flags.get("horizon", 1e6);
    opts = dsrt::system::run_options_from_flags(flags);
    kmax = static_cast<std::size_t>(flags.get("kmax", 4096L));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad flags: %s\n", error.what());
    return 1;
  }
  // Cells are timed one replication batch at a time on one worker.
  dsrt::engine::RunnerOptions serial;
  serial.jobs = 1;
  const dsrt::engine::Runner runner(serial);

  std::printf("== abl_scale ==\n"
              "reproduces: extension: events/s + resident memory vs k "
              "(64..4096)\n"
              "serial baseline, constant per-node load; placement in "
              "{static, jsq-pex, pod:2}, event queue adaptive vs forced "
              "heap at the big configs\n\n");

  std::vector<std::size_t> ks;
  for (std::size_t k : {64u, 256u, 1024u, 4096u})
    if (k <= kmax) ks.push_back(k);
  const std::vector<PlacementCase> cases = {
      {"static", "none"}, {"jsq-pex", "exact"}, {"pod:2", "exact"}};

  dsrt::stats::Table table({"k", "placement", "queue", "Mev/s", "rss_MB",
                            "MD_local", "MD_global"});
  std::vector<dsrt::engine::BenchEntry> entries;
  for (std::size_t k : ks) {
    for (const PlacementCase& pc : cases) {
      // The layout A/B (ladder vs forced heap) is run where the pending
      // set is deep enough for the heap's O(log n) to show.
      std::vector<const char*> modes = {"adaptive"};
      if (k >= 1024) modes.push_back("heap");
      for (const char* mode : modes) {
        dsrt::system::Config cfg = dsrt::system::baseline_ssp();
        cfg.nodes = k;
        cfg.horizon = k > 24 ? horizon * 24.0 / static_cast<double>(k)
                             : horizon;
        cfg.placement = dsrt::core::PlacementSpec::parse(pc.placement);
        cfg.load_model = dsrt::core::LoadModelSpec::parse(pc.load_model);
        cfg.event_queue = dsrt::sim::parse_queue_mode(mode);

        const auto start = std::chrono::steady_clock::now();
        const auto result = runner.run_replications(cfg, opts.reps);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        double events = 0;
        for (const auto& run : result.runs)
          events += static_cast<double>(run.events);
        const double rss = resident_kb();

        const std::string cell = "k" + std::to_string(k) + "/" +
                                 pc.placement + "/" + mode;
        entries.push_back({cell, "events", events, wall});
        // Gauge entries: items carries the value, rate() echoes it.
        entries.push_back({"rss_kb/" + cell, "kb", rss, 1.0});
        table.add_row({std::to_string(k), pc.placement, mode,
                       dsrt::stats::Table::cell(
                           wall > 0 ? events / wall / 1e6 : 0.0, 2),
                       dsrt::stats::Table::cell(rss / 1024.0, 1),
                       dsrt::stats::Table::percent(result.md_local.mean, 1),
                       dsrt::stats::Table::percent(result.md_global.mean,
                                                   1)});
      }
    }
  }
  table.print(std::cout);
  std::printf("\n");
  try {
    const std::string path =
        dsrt::engine::write_microbench_artifact("scale", entries,
                                                opts.out_dir);
    std::printf("wrote %s\n", path.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "abl_scale: emit failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
