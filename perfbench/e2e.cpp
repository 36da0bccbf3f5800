// End-to-end program: runs one workload's replications untraced and prints
// what a user of the simulator sees — tasks completed per host second (median
// over replications), host time per slice of simulated time, set-up time,
// peak RSS — plus the output check of every replication.
//
//   perfbench_e2e --workload NAME --seed N (--seconds S | --reps N)
//
// Replication 0 is a discarded warm-up. Replications 1, 2, ... are measured
// until S seconds have passed (or exactly N are done). Host times are
// reported in reference-host seconds: they are scaled by the nominal over
// the median measured time of a fixed reference unit run between the
// replications (reference.hpp), which cancels most of a shared host's
// drift. The as-measured figures are printed on a line of their own.
// Each replication prints one line with its model fingerprint; the last line
// is one JSON object with the metrics and every replication's record.
//
// Only system::Config, system::SimulationRun and sim::Simulator::at are used
// (plus the obs observers that fig2_observed attaches), so a change to any
// layer interface leaves this program alone.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "dsrt/system/simulation.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

using perfbench::now_s;

/// Set-ups timed per replication: the run's own plus constructions that are
/// discarded unrun, so the set-up median rests on several samples.
constexpr int kSetups = 5;

struct Replication {
  perfbench::RepRecord rec;
  std::vector<double> setup_s;
  std::uint64_t finished = 0;
  std::vector<double> slices_ms;
};

Replication run_replication(const perfbench::Workload& w,
                            std::uint64_t index) {
  Replication rep;
  rep.rec.index = index;
  for (int i = 1; i < kSetups; ++i) {
    const double t = now_s();
    const auto discarded = std::make_unique<dsrt::system::SimulationRun>(w.config, index);
    rep.setup_s.push_back(now_s() - t);
  }
  const double t0 = now_s();
  dsrt::system::SimulationRun run(w.config, index);
  rep.setup_s.push_back(now_s() - t0);

  std::unique_ptr<perfbench::Observers> observers;
  if (w.observed) {
    observers = std::make_unique<perfbench::Observers>(w.config.nodes);
    run.set_observer(&observers->tee);
  }
  perfbench::SliceProbe probe(run.simulator(), w.slice, w.config.horizon);
  probe.start();
  const double t1 = now_s();
  const dsrt::system::RunMetrics m = run.run();
  rep.rec.run_s = now_s() - t1;

  rep.slices_ms = probe.slices_ms();
  rep.finished = perfbench::finished_tasks(m);
  rep.rec.events = m.events - probe.fired();
  rep.rec.fingerprint = perfbench::fingerprint(m, rep.rec.events);

  perfbench::RunState state;
  state.load = w.config.load;
  state.util_tolerance = w.util_tolerance;
  state.live_globals = run.process_manager().live_instances();
  for (const auto& node : run.nodes())
    state.jobs_at_nodes += node->queue_length() + (node->busy() ? 1 : 0);
  std::string& failure = rep.rec.failure;
  failure = perfbench::check_run(m, state);
  if (failure.empty() && observers) failure = observers->check(m);
  if (failure.empty() && w.config.probes && m.counters.empty())
    failure = "probes harvested no counters";
  return rep;
}

int run(const perfbench::Args& args) {
  const perfbench::Workload w = perfbench::make_workload(args.workload, args.seed);
  perfbench::HostReference reference;

  // Warm-up: caches, allocator and page faults settle before timing.
  const Replication warm = run_replication(w, 0);
  perfbench::print_fingerprint(w.name, warm.rec);
  reference.run_s();

  // A time-bounded run goes on until it has the slices its p99 needs (ten
  // beyond it); a fixed replication count (the traced run's untraced twin)
  // may omit the p99.
  constexpr std::size_t kMinSlices = 1000;
  std::vector<perfbench::RepRecord> reps;
  std::vector<double> units{reference.run_s()};
  std::vector<double> rates, setup, slices;
  const double start = now_s();
  for (std::uint64_t index = 1;; ++index) {
    if (args.reps ? reps.size() >= args.reps
                  : now_s() - start >= args.seconds && slices.size() >= kMinSlices)
      break;
    const Replication r = run_replication(w, index);
    units.push_back(reference.run_s());
    perfbench::print_fingerprint(w.name, r.rec);
    rates.push_back(static_cast<double>(r.finished) / r.rec.run_s);
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    slices.insert(slices.end(), r.slices_ms.begin(), r.slices_ms.end());
    reps.push_back(r.rec);
  }

  // Host seconds to reference-host seconds: one factor for the whole run,
  // from the median reference unit, so a single slow unit cannot stretch
  // the slices of one replication into the tail.
  const double unit = perfbench::median(units);
  const double scale = perfbench::HostReference::kNominalS / unit;
  const double rate = perfbench::median(rates);
  const double p50 = perfbench::percentile(slices, 0.50);
  const double setup_s = perfbench::median(setup);
  std::printf("%s: reference unit median %.6g s (nominal %.3g s, checksum %llu); "
              "as measured: tasks_per_s %.6g, slice_ms.p50 %.6g, setup_s %.6g\n",
              w.name.c_str(), unit, perfbench::HostReference::kNominalS,
              static_cast<unsigned long long>(reference.checksum()), rate, p50, setup_s);
  perfbench::MetricsJson metrics;
  metrics.add("tasks_per_s", rate / scale, "1/s");
  metrics.add("slice_ms.p50", p50 * scale, "ms");
  if (perfbench::samples_beyond(slices.size(), 0.99) >= 10)
    metrics.add("slice_ms.p99", perfbench::percentile(slices, 0.99, 10) * scale, "ms");
  metrics.add("setup_s", setup_s * scale, "s");
  metrics.add("peak_rss_mb",
              static_cast<double>(perfbench::read_vmhwm_kb()) / 1024.0, "MB");
  std::size_t failed = 0;
  for (const perfbench::RepRecord& r : reps) failed += r.failure.empty() ? 0 : 1;
  const double attempted = static_cast<double>(reps.size());
  metrics.add("correct_ratio", (attempted - static_cast<double>(failed)) / attempted,
              "ratio");
  std::printf("%s: failed_ratio=%.6g (%zu of %zu replications), %zu slices\n",
              w.name.c_str(), static_cast<double>(failed) / attempted, failed,
              reps.size(), slices.size());
  perfbench::print_report(w.name, warm.rec, reps, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", error.what());
    return 1;
  }
}
