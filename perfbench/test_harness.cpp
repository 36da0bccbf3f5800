// Tests of the benchmark's helpers: percentile selection, VmHWM parsing,
// the host reference unit, the output check, and the slice probe's
// passivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "dsrt/system/simulation.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnShuffledInput) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(perfbench::percentile(v, 0.50), 500.0);
  EXPECT_EQ(perfbench::percentile(v, 0.99), 990.0);
  EXPECT_EQ(perfbench::percentile(v, 1.0), 1000.0);
  EXPECT_EQ(perfbench::median(one_to(5)), 3.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(999, 0.99), 9u);
  EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(1000), 0.99, 10), 990.0);
  EXPECT_THROW(perfbench::percentile(one_to(999), 0.99, 10),
               std::invalid_argument);
  EXPECT_NO_THROW(perfbench::percentile(one_to(999), 0.99, 9));
}

TEST(Percentile, RejectsEmptyInputAndBadQuantiles) {
  EXPECT_THROW(perfbench::percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(perfbench::percentile(one_to(3), 0.0), std::invalid_argument);
  EXPECT_THROW(perfbench::percentile(one_to(3), 1.5), std::invalid_argument);
}

TEST(VmHwm, ParsesTheStatusLine) {
  const char* status =
      "Name:\tperfbench_e2e\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t   10000 kB\n";
  EXPECT_EQ(perfbench::parse_vmhwm_kb(status), 12345u);
}

TEST(VmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_THROW(perfbench::parse_vmhwm_kb("VmRSS:\t 10 kB\n"), std::runtime_error);
  EXPECT_THROW(perfbench::parse_vmhwm_kb("VmHWM:\t 10 MB\n"), std::runtime_error);
  EXPECT_THROW(perfbench::parse_vmhwm_kb("VmHWM:\t lots\n"), std::runtime_error);
}

TEST(VmHwm, ReadsThisProcess) { EXPECT_GT(perfbench::read_vmhwm_kb(), 0u); }

TEST(HostReference, DoesTheSameWorkEveryTime) {
  perfbench::HostReference a, b;
  EXPECT_GT(a.run_s(), 0.0);
  const std::uint64_t once = a.checksum();
  EXPECT_GT(once, 0u);
  a.run_s();
  EXPECT_EQ(a.checksum(), 2 * once);
  b.run_s();
  EXPECT_EQ(b.checksum(), once);
}

dsrt::system::Config small_fig2() {
  dsrt::system::Config cfg = perfbench::make_workload("fig2_eqf", 3).config;
  cfg.horizon = 20000;
  return cfg;
}

TEST(SliceProbe, LeavesTheTrajectoryUnchanged) {
  const dsrt::system::Config cfg = small_fig2();
  dsrt::system::SimulationRun plain(cfg, 1);
  const dsrt::system::RunMetrics a = plain.run();

  dsrt::system::SimulationRun probed(cfg, 1);
  perfbench::SliceProbe probe(probed.simulator(), 100, cfg.horizon);
  probe.start();
  const dsrt::system::RunMetrics b = probed.run();

  EXPECT_EQ(probe.fired(), 200u);
  EXPECT_EQ(probe.slices_ms().size(), 200u);
  EXPECT_EQ(b.events - probe.fired(), a.events);
  EXPECT_EQ(perfbench::fingerprint(b, b.events - probe.fired()),
            perfbench::fingerprint(a, a.events));
  EXPECT_EQ(b.local.response.mean(), a.local.response.mean());
  EXPECT_EQ(b.global.lateness.mean(), a.global.lateness.mean());
}

TEST(CheckRun, AcceptsARealRunAndFlagsBrokenConservation) {
  const dsrt::system::Config cfg = small_fig2();
  dsrt::system::SimulationRun run(cfg, 1);
  dsrt::system::RunMetrics m = run.run();
  perfbench::RunState state;
  state.load = cfg.load;
  state.util_tolerance = 0.02;
  state.live_globals = run.process_manager().live_instances();
  for (const auto& node : run.nodes())
    state.jobs_at_nodes += node->queue_length() + (node->busy() ? 1 : 0);
  EXPECT_EQ(perfbench::check_run(m, state), "");

  dsrt::system::RunMetrics lost = m;
  ++lost.global.generated;
  EXPECT_EQ(perfbench::check_run(lost, state), "global tasks not conserved");

  perfbench::RunState idle = state;
  idle.load = 0.9;
  EXPECT_EQ(perfbench::check_run(m, idle), "utilization off the offered load");
}

}  // namespace
