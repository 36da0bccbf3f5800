// Tests for workload trace capture/replay: shape-grammar round trips, file
// format errors, and the headline contract — a captured run replays its
// metrics bit for bit, including bursts and placement-eligible sets.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "dsrt/core/task_spec.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/trace_io.hpp"

namespace {

using namespace dsrt;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(TraceSpecGrammar, RoundTripsStructureExecAndEligibleSets) {
  core::TaskSpec spec = core::TaskSpec::serial({
      core::TaskSpec::simple(3, 0.125, 0.25),
      core::TaskSpec::parallel({
          core::TaskSpec::simple_among(1, {0, 1, 2, 3}, 1.5, 1.5),
          core::TaskSpec::simple_among(4, {0, 2, 4}, 0.75, 0.5),
      }),
  });
  const std::string text = workload::format_spec(spec);

  core::TaskSpecBuilder builder;
  core::TaskSpec parsed;
  workload::parse_spec_into(text, builder, parsed);

  ASSERT_EQ(parsed.size(), spec.size());
  for (std::size_t v = 0; v < spec.size(); ++v) {
    EXPECT_EQ(parsed.vertex(v).kind, spec.vertex(v).kind) << v;
    EXPECT_EQ(parsed.vertex(v).node, spec.vertex(v).node) << v;
    EXPECT_TRUE(bits_equal(parsed.vertex(v).exec, spec.vertex(v).exec)) << v;
    EXPECT_TRUE(bits_equal(parsed.vertex(v).pex, spec.vertex(v).pex)) << v;
    const auto want = spec.eligible_of(spec.vertex(v));
    const auto got = parsed.eligible_of(parsed.vertex(v));
    ASSERT_EQ(got.size(), want.size()) << v;
    for (std::size_t e = 0; e < want.size(); ++e)
      EXPECT_EQ(got[e], want[e]) << v;
  }
  // A contiguous eligible set prints as a range, a gapped one as a list.
  EXPECT_NE(text.find("{0..3}"), std::string::npos) << text;
  EXPECT_NE(text.find("{0|2|4}"), std::string::npos) << text;
}

TEST(TraceSpecGrammar, RejectsMalformedShapes) {
  core::TaskSpecBuilder builder;
  core::TaskSpec out;
  for (const char* bad : {"", "S()", "1.0/1.0", "1.0/1.0@2{3..1}",
                          "1.0/1.0@2{1|3..5}", "S(1.0/1.0@2",
                          "Q(1.0/1.0@2)", "1.0/1.0@x",
                          // exec and pex must be finite and >= 0
                          "nan/1.0@2", "1.0/nan@2", "inf/1.0@2",
                          "1.0/inf@2", "-0x1p+2/1.0@2", "1.0/-0x1p+2@2",
                          "S(1.0/1.0@0 1.0/-1.0@1{0..3})"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(workload::parse_spec_into(bad, builder, out),
                 std::invalid_argument);
  }
}

// Node ids are 32-bit with kNoNode reserved: an id past that range, a
// duplicate list entry, or a range whose size overflows must fail cleanly
// instead of truncating into some other valid-looking spec.
void expect_rejected(const char* text) {
  core::TaskSpecBuilder builder;
  core::TaskSpec out;
  EXPECT_THROW(workload::parse_spec_into(text, builder, out),
               std::invalid_argument)
      << text;
}

TEST(TraceSpecGrammar, RejectsAHintPastTheIdRange) {
  expect_rejected("0x1p+0/0x1p+0@4294967296");
}

TEST(TraceSpecGrammar, RejectsARangeHintPastTheIdRange) {
  expect_rejected("0x1p+0/0x1p+0@4294967297{0..3}");
}

TEST(TraceSpecGrammar, RejectsDuplicatesInAnExplicitSet) {
  expect_rejected("0x1p+0/0x1p+0@1{1|1|2}");
}

TEST(TraceSpecGrammar, RejectsARangeEndingAtTheReservedId) {
  expect_rejected("0x1p+0/0x1p+0@0{0..4294967295}");
}

TEST(TraceSpecGrammar, TheWidestLegalRangeIsOneInterval) {
  // Every id below kNoNode: stored as one interval, not 4 G pool entries.
  core::TaskSpecBuilder builder;
  core::TaskSpec out;
  workload::parse_spec_into("0x1p+0/0x1p+0@7{0..4294967294}", builder, out);
  EXPECT_EQ(out.eligible().size(), 4294967295u);
  EXPECT_TRUE(out.eligible().is_range());
  EXPECT_TRUE(out.eligible_pool().empty());
  EXPECT_EQ(workload::format_spec(out), "0x1p+0/0x1p+0@7{0..4294967294}");
}

TEST(TraceFile, WriterLoadRoundTripIsExact) {
  const std::string path = temp_path("roundtrip.trace");
  {
    workload::TraceWriter writer(path, 6, 2);
    writer.local(0.1, 4, 0.25, 0.3, 1.75);
    writer.local(0.1, 4, 0.5, 0.5, 2.0);  // same-stamp burst
    writer.global(0.7, core::TaskSpec::simple(2, 1.0, 1.0), 3.5);
    writer.close();
    EXPECT_EQ(writer.records(), 3u);
  }
  const workload::Trace trace = workload::Trace::load(path);
  EXPECT_EQ(trace.nodes, 6u);
  EXPECT_EQ(trace.link_nodes, 2u);
  ASSERT_EQ(trace.locals.size(), 2u);
  ASSERT_EQ(trace.globals.size(), 1u);
  EXPECT_TRUE(bits_equal(trace.locals[0].arrival, 0.1));
  EXPECT_TRUE(bits_equal(trace.locals[0].arrival, trace.locals[1].arrival));
  EXPECT_EQ(trace.locals[0].node, 4u);
  EXPECT_TRUE(bits_equal(trace.locals[1].exec, 0.5));
  EXPECT_TRUE(bits_equal(trace.globals[0].deadline, 3.5));
  EXPECT_EQ(trace.globals[0].spec.size(), 1u);
}

TEST(TraceFile, LoadRejectsMalformedFiles) {
  auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
  };
  const std::string missing = temp_path("missing_subdir/none.trace");
  EXPECT_THROW(workload::Trace::load(missing), std::runtime_error);

  const std::string bad_header = temp_path("bad_header.trace");
  write_file(bad_header, "# some other file\n");
  EXPECT_THROW(workload::Trace::load(bad_header), std::invalid_argument);

  const std::string bad_fields = temp_path("bad_fields.trace");
  write_file(bad_fields,
             "# dsrt workload trace v1\n# nodes=6 link_nodes=0\nL,0x1p0,2\n");
  EXPECT_THROW(workload::Trace::load(bad_fields), std::invalid_argument);

  const std::string bad_kind = temp_path("bad_kind.trace");
  write_file(bad_kind,
             "# dsrt workload trace v1\nX,0x1p0,2,0x1p0,0x1p0,0x1p1\n");
  EXPECT_THROW(workload::Trace::load(bad_kind), std::invalid_argument);

  // Arrivals, exec and pex must be finite and >= 0; no field may be NaN
  // (a deadline may be +inf). The error names the offending line.
  const std::string header =
      "# dsrt workload trace v1\n# nodes=6 link_nodes=0\n";
  for (const char* record :
       {"L,0x1p0,2,nan,0x1p0,0x1p1", "L,0x1p0,2,0x1p0,-0x1p+2,0x1p1",
        "L,0x1p0,2,nan,-0x1p+2,0x1p1", "L,0x1p0,2,inf,0x1p0,0x1p1",
        "L,0x1p0,2,0x1p0,inf,0x1p1", "L,-0x1p0,2,0x1p0,0x1p0,0x1p1",
        "L,inf,2,0x1p0,0x1p0,inf", "L,nan,2,0x1p0,0x1p0,0x1p1",
        "L,0x1p0,2,0x1p0,0x1p0,nan", "G,-0x1p0,0x1p2,0x1p0/0x1p0@1",
        "G,0x1p0,nan,0x1p0/0x1p0@1", "G,0x1p0,0x1p2,0x1p0/nan@1",
        "G,0x1p0,0x1p2,S(0x1p0/0x1p0@1 -0x1p0/0x1p0@2)"}) {
    SCOPED_TRACE(record);
    const std::string path = temp_path("bad_value.trace");
    write_file(path, header + "L,0x1p0,2,0x1p0,0x1p0,0x1p1\n" + record +
                         "\n");
    try {
      workload::Trace::load(path);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("at line 4"), std::string::npos)
          << e.what();
    }
  }
  // +inf deadlines and zero demands stay legal.
  const std::string edge = temp_path("edge_values.trace");
  write_file(edge, header + "L,0x0p+0,2,0x0p+0,0x0p+0,inf\n"
                            "G,0x1p0,inf,0x0p+0/-0x0p+0@1\n");
  const workload::Trace trace = workload::Trace::load(edge);
  ASSERT_EQ(trace.locals.size(), 1u);
  EXPECT_EQ(trace.locals[0].deadline, std::numeric_limits<double>::infinity());
  ASSERT_EQ(trace.globals.size(), 1u);
}

/// Captures `cfg` (replication 0) to a file, replays it, and expects the
/// replayed RunMetrics to be bit-for-bit the captured run's.
void expect_bitwise_replay(system::Config cfg, const std::string& name) {
  const std::string path = temp_path(name);
  workload::TraceWriter writer(path, cfg.nodes, cfg.link_nodes);
  system::SimulationRun captured_run(cfg);
  captured_run.set_trace_writer(&writer);
  const system::RunMetrics captured = captured_run.run();
  writer.close();

  system::Config replay_cfg = cfg;
  replay_cfg.trace = path;
  const system::RunMetrics replayed = system::simulate(replay_cfg);

  EXPECT_EQ(replayed.events, captured.events);
  EXPECT_EQ(replayed.local.generated, captured.local.generated);
  EXPECT_EQ(replayed.global.generated, captured.global.generated);
  EXPECT_EQ(replayed.local.missed.trials(), captured.local.missed.trials());
  EXPECT_EQ(replayed.local.missed.hits(), captured.local.missed.hits());
  EXPECT_EQ(replayed.global.missed.trials(),
            captured.global.missed.trials());
  EXPECT_EQ(replayed.global.missed.hits(), captured.global.missed.hits());
  EXPECT_TRUE(bits_equal(replayed.local.response.mean(),
                         captured.local.response.mean()));
  EXPECT_TRUE(bits_equal(replayed.global.response.mean(),
                         captured.global.response.mean()));
  EXPECT_TRUE(bits_equal(replayed.mean_utilization,
                         captured.mean_utilization));
}

TEST(TraceReplay, BaselineRunReplaysBitwise) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;
  expect_bitwise_replay(cfg, "replay_baseline.trace");
}

TEST(TraceReplay, BurstyRunReplaysBitwise) {
  // Batched arrivals exercise the equal-stamp burst path: several tasks
  // must fire from one replayed event, exactly as they were released.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;
  cfg.arrivals = workload::ArrivalSpec::parse("batch:1,8");
  expect_bitwise_replay(cfg, "replay_bursty.trace");
}

TEST(TraceReplay, PlacementRunReplaysBitwise) {
  // Serial-parallel + deferred placement exercises eligible-set capture:
  // the replayed leaves must carry the same eligible sets for the jsq
  // policy to make the same dispatch-time choices.
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 5000;
  cfg.load_model = core::LoadModelSpec::parse("exact");
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  expect_bitwise_replay(cfg, "replay_placement.trace");
}

TEST(TraceReplay, ModulatedArrivalsReplayBitwise) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;
  cfg.arrivals = workload::ArrivalSpec::parse("onoff:20,80");
  expect_bitwise_replay(cfg, "replay_onoff.trace");
}

TEST(TraceReplay, CaptureDoesNotPerturbTheRun) {
  // Write-only contract: metrics with a writer attached are bitwise those
  // of an unobserved run.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;
  const system::RunMetrics plain = system::simulate(cfg);

  workload::TraceWriter writer(temp_path("perturb.trace"), cfg.nodes,
                               cfg.link_nodes);
  system::SimulationRun observed(cfg);
  observed.set_trace_writer(&writer);
  const system::RunMetrics captured = observed.run();
  writer.close();

  EXPECT_EQ(captured.events, plain.events);
  EXPECT_TRUE(bits_equal(captured.local.response.mean(),
                         plain.local.response.mean()));
  EXPECT_TRUE(bits_equal(captured.global.response.mean(),
                         plain.global.response.mean()));
}

}  // namespace
