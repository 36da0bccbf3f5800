// Tests for the flag-to-Config mapping used by the generic CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dsrt/engine/sweep.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/service.hpp"
#include "dsrt/workload/trace_io.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

namespace {

using namespace dsrt;

util::Flags make_flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return util::Flags(static_cast<int>(argv.size()), argv.data());
}

system::Config parse(std::initializer_list<const char*> args) {
  return system::config_from_flags(
      make_flags(std::vector<std::string>(args.begin(), args.end())));
}

system::RunOptions options(std::initializer_list<const char*> args) {
  return system::run_options_from_flags(
      make_flags(std::vector<std::string>(args.begin(), args.end())));
}

TEST(Cli, DefaultsAreTable1Baseline) {
  const auto cfg = parse({});
  EXPECT_EQ(cfg.nodes, 6u);
  EXPECT_EQ(cfg.subtasks, 4u);
  EXPECT_DOUBLE_EQ(cfg.load, 0.5);
  EXPECT_EQ(cfg.shape, system::GlobalShape::Serial);
  EXPECT_EQ(cfg.ssp->name(), "UD");
}

TEST(Cli, ShapeSelection) {
  EXPECT_EQ(parse({"--shape=parallel"}).shape, system::GlobalShape::Parallel);
  EXPECT_EQ(parse({"--shape=serial-parallel"}).shape,
            system::GlobalShape::SerialParallel);
  EXPECT_THROW(parse({"--shape=ring"}), std::invalid_argument);
}

TEST(Cli, StrategyAndPolicySelection) {
  const auto cfg = parse({"--ssp=EQF", "--psp=DIV2", "--policy=MLF",
                          "--abort=AbortTardy"});
  EXPECT_EQ(cfg.ssp->name(), "EQF");
  EXPECT_EQ(cfg.psp->name(), "DIV2");
  EXPECT_EQ(cfg.policy->name(), "MLF");
  EXPECT_EQ(cfg.abort_policy->name(), "AbortTardy");
  EXPECT_THROW(parse({"--ssp=WAT"}), std::invalid_argument);
  EXPECT_THROW(parse({"--psp=WAT"}), std::invalid_argument);
}

TEST(Cli, NumericKnobs) {
  const auto cfg = parse({"--load=0.7", "--frac_local=0.5", "--nodes=8",
                          "--m=6", "--rel_flex=2", "--horizon=5000",
                          "--warmup=100", "--seed=99"});
  EXPECT_DOUBLE_EQ(cfg.load, 0.7);
  EXPECT_DOUBLE_EQ(cfg.frac_local, 0.5);
  EXPECT_EQ(cfg.nodes, 8u);
  EXPECT_EQ(cfg.subtasks, 6u);
  EXPECT_DOUBLE_EQ(cfg.rel_flex, 2.0);
  EXPECT_DOUBLE_EQ(cfg.horizon, 5000.0);
  EXPECT_DOUBLE_EQ(cfg.warmup, 100.0);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(Cli, SlackRangeOverride) {
  const auto cfg = parse({"--smin=1.0", "--smax=4.0"});
  const auto* u = dynamic_cast<const sim::Uniform*>(cfg.local_slack.get());
  ASSERT_NE(u, nullptr);
  EXPECT_DOUBLE_EQ(u->lo(), 1.0);
  EXPECT_DOUBLE_EQ(u->hi(), 4.0);
}

TEST(Cli, ParallelShapeSharesSlackRange) {
  const auto cfg = parse({"--shape=parallel", "--smin=2.0", "--smax=6.0"});
  const auto* p = dynamic_cast<const sim::Uniform*>(cfg.parallel_slack.get());
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->lo(), 2.0);
}

TEST(Cli, PexErrorAndVariableM) {
  const auto cfg = parse({"--pex_err=0.5", "--m_min=2", "--m_max=6"});
  EXPECT_EQ(cfg.pex_error->name(), "uniform-relative");
  ASSERT_NE(cfg.subtask_count, nullptr);
  EXPECT_DOUBLE_EQ(cfg.subtask_count->mean(), 4.0);
}

TEST(Cli, NetworkAndPeriodic) {
  const auto cfg = parse({"--links=2", "--hop=0.5", "--periodic"});
  EXPECT_EQ(cfg.link_nodes, 2u);
  ASSERT_NE(cfg.comm_exec, nullptr);
  EXPECT_DOUBLE_EQ(cfg.comm_exec->mean(), 0.5);
  EXPECT_TRUE(cfg.periodic_globals);
}

TEST(Cli, InvalidCombinationsRejectedByValidate) {
  EXPECT_THROW(parse({"--load=1.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shape=parallel", "--m=9"}), std::invalid_argument);
}

TEST(Cli, LoadModelSelection) {
  EXPECT_EQ(parse({}).load_model.kind, core::LoadModelKind::None);
  const auto cfg =
      parse({"--ssp=EQS-L", "--load_model=sampled:2.5", "--lm_tau=10"});
  EXPECT_EQ(cfg.ssp->name(), "EQS-L");
  EXPECT_EQ(cfg.load_model.kind, core::LoadModelKind::Sampled);
  EXPECT_DOUBLE_EQ(cfg.load_model.period, 2.5);
  EXPECT_DOUBLE_EQ(cfg.load_model.ewma_tau, 10.0);
  EXPECT_EQ(parse({"--load_model=stale:4"}).load_model.kind,
            core::LoadModelKind::Stale);
  EXPECT_THROW(parse({"--load_model=psychic"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load_model=exact", "--lm_tau=-1"}),
               std::invalid_argument);
  // A bad tau fails fast even without an active load model.
  EXPECT_THROW(parse({"--lm_tau=-1"}), std::invalid_argument);
}

TEST(Cli, UsageMentionsEveryFlagGroup) {
  const std::string usage = system::cli_usage();
  for (const char* token : {"--shape", "--ssp", "--psp", "--policy",
                            "--abort", "--links", "--periodic", "--horizon",
                            "--load_model", "--placement", "--arrivals",
                            "--service", "--trace", "--capture",
                            "--out"})
    EXPECT_NE(usage.find(token), std::string::npos) << token;
}

TEST(Cli, ArrivalAndServiceSelection) {
  EXPECT_TRUE(parse({}).arrivals.is_default());
  const auto cfg = parse({"--arrivals=batch:1,8", "--service=pareto:2.5"});
  EXPECT_EQ(cfg.arrivals.kind, workload::ArrivalKind::Batch);
  EXPECT_DOUBLE_EQ(cfg.arrivals.batch_mean(), 4.5);
  // Matched-mean: the service swap keeps the Table-1 subtask mean.
  EXPECT_DOUBLE_EQ(cfg.subtask_exec->mean(), 1.0);
  EXPECT_NE(cfg.subtask_exec->describe().find("Pareto"), std::string::npos);
  EXPECT_EQ(parse({"--trace=some.trace"}).trace, "some.trace");
  EXPECT_THROW(parse({"--arrivals=psychic"}), std::invalid_argument);
  EXPECT_THROW(parse({"--service=psychic"}), std::invalid_argument);
  // Periodic globals compose with batch (a local-stream model) but not
  // with the modulated kinds.
  EXPECT_NO_THROW(parse({"--periodic", "--arrivals=batch:4"}));
  EXPECT_THROW(parse({"--periodic", "--arrivals=onoff:20,80"}),
               std::invalid_argument);
}

TEST(Cli, UsageAndErrorsCoverTheWorkloadVocabulary) {
  const std::string usage = system::cli_usage();
  for (const auto name : workload::arrival_kind_names())
    EXPECT_NE(usage.find(std::string(name)), std::string::npos) << name;
  for (const auto name : workload::service_kind_names())
    EXPECT_NE(usage.find(std::string(name)), std::string::npos) << name;
  try {
    parse({"--arrivals=psychic"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    for (const auto name : workload::arrival_kind_names())
      EXPECT_NE(std::string(e.what()).find(std::string(name)),
                std::string::npos)
          << name;
  }
}

TEST(Cli, PlacementSelection) {
  EXPECT_EQ(parse({}).placement.kind, core::PlacementKind::Static);
  const auto cfg = parse({"--placement=jsq-pex", "--load_model=exact"});
  EXPECT_EQ(cfg.placement.kind, core::PlacementKind::JsqPex);
  EXPECT_EQ(parse({"--placement=static"}).placement.kind,
            core::PlacementKind::Static);
  EXPECT_THROW(parse({"--placement=psychic"}), std::invalid_argument);
  EXPECT_THROW(parse({"--placement=jsq-pex:3"}), std::invalid_argument);
  // Malformed load-model parameters fail fast too (satellite hardening).
  EXPECT_THROW(parse({"--load_model=sampled:"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load_model=stale:-1"}), std::invalid_argument);
}

TEST(Cli, UsageAndErrorsAreGeneratedFromTheStrategyRegistry) {
  // Every name the registries accept must appear in --help verbatim, so a
  // newly registered strategy cannot silently drift out of the help text.
  const std::string usage = system::cli_usage();
  for (const auto name : core::serial_strategy_names())
    EXPECT_NE(usage.find(std::string(name)), std::string::npos) << name;
  for (const auto name : core::parallel_strategy_names())
    EXPECT_NE(usage.find(std::string(name)), std::string::npos) << name;
  // The lookup errors enumerate the same registry.
  try {
    parse({"--ssp=WAT"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const auto name : core::serial_strategy_names())
      EXPECT_NE(message.find(std::string(name)), std::string::npos) << name;
  }
  try {
    parse({"--psp=WAT"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DIVA"), std::string::npos);
  }
}

TEST(Cli, UnknownFlagsAreRejected) {
  // A typo must not run as the default configuration.
  EXPECT_THROW(parse({"--lod=0.8"}), std::invalid_argument);
  EXPECT_THROW(parse({"--event_queue=heap"}), std::invalid_argument);
  try {
    parse({"--load=0.3", "--lod=0.8"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --lod");
  }
  // Run control and sweep axes are part of the vocabulary.
  EXPECT_NO_THROW(parse({"--reps=3", "--jobs=2", "--out=.", "--zip",
                         "--sweep_load=0.2,0.4", "--quick"}));
  // The rounded result files and the fingerprint lines are gone: --out's
  // record is the one machine-readable output.
  EXPECT_THROW(parse({"--emit=json"}), std::invalid_argument);
  EXPECT_THROW(parse({"--fingerprint"}), std::invalid_argument);
  EXPECT_EQ(system::cli_usage().find("--emit"), std::string::npos);
  EXPECT_EQ(system::cli_usage().find("--fingerprint"), std::string::npos);
}

TEST(Cli, OutNamesTheRecordDirectoryAndDefaultsToNone) {
  EXPECT_EQ(options({}).out_dir, "");
  EXPECT_EQ(options({"--out=runs"}).out_dir, "runs");
}

TEST(Cli, EveryFlagTheUsageDocumentsIsAccepted) {
  // The accepted vocabulary and the help text cannot drift apart: every
  // --name token of cli_usage() is a known flag.
  const std::string usage = system::cli_usage();
  std::size_t tokens = 0;
  for (std::size_t at = usage.find("--"); at != std::string::npos;
       at = usage.find("--", at + 2)) {
    std::size_t end = at + 2;
    while (end < usage.size() &&
           (std::islower(static_cast<unsigned char>(usage[end])) ||
            usage[end] == '_'))
      ++end;
    const std::string name = usage.substr(at + 2, end - at - 2);
    EXPECT_TRUE(system::is_cli_flag(name)) << "--" << name;
    ++tokens;
  }
  EXPECT_GT(tokens, 40u);
  EXPECT_FALSE(system::is_cli_flag("event_queue"));
}

TEST(Cli, UsageListsEveryConfigField) {
  // The sweepable-field list is generated from the field table, and every
  // field is documented as a flag too.
  const std::string usage = system::cli_usage();
  const std::string list = usage.substr(usage.find("The fields:"));
  for (const system::ConfigField& field : system::config_fields()) {
    const std::string name(field.name);
    EXPECT_NE(usage.find("--" + name), std::string::npos) << name;
    EXPECT_TRUE(list.find(" " + name + ",") != std::string::npos ||
                list.find(" " + name + ".") != std::string::npos)
        << name;
  }
}

// --- Strict numbers: one case per input --------------------------------

TEST(Cli, FlagsGetDoubleConsumesTheWholeValue) {
  EXPECT_THROW(make_flags({"--horizon=2e3abc"}).get("horizon", 0.0),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(make_flags({"--horizon=2e3"}).get("horizon", 0.0), 2e3);
}

TEST(Cli, FlagsGetLongConsumesTheWholeValue) {
  EXPECT_THROW(make_flags({"--reps=4.7"}).get("reps", 0L),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--reps=99999999999999999999"}).get("reps", 0L),
               std::invalid_argument);
  EXPECT_EQ(make_flags({"--reps=-3"}).get("reps", 0L), -3L);
}

TEST(Cli, NumbersMustBeFinite) {
  // An infinite horizon would run forever; a nan warmup passes every
  // range check.
  EXPECT_THROW(parse({"--horizon=inf"}), std::invalid_argument);
  EXPECT_THROW(parse({"--warmup=nan"}), std::invalid_argument);
  EXPECT_THROW(make_flags({"--horizon=inf"}).get("horizon", 0.0),
               std::invalid_argument);
}

TEST(Cli, LoadRejectsTrailingText) {
  EXPECT_THROW(parse({"--load=0.5abc"}), std::invalid_argument);
}

TEST(Cli, NodesRejectsNegatives) {
  EXPECT_THROW(parse({"--nodes=-1"}), std::invalid_argument);
}

TEST(Cli, MRejectsFractionsAndNegatives) {
  EXPECT_THROW(parse({"--m=4.7"}), std::invalid_argument);
  EXPECT_THROW(parse({"--m=-4"}), std::invalid_argument);
}

TEST(Cli, LinksRejectsNegatives) {
  EXPECT_THROW(parse({"--links=-1"}), std::invalid_argument);
}

TEST(Cli, SpStagesRejectsNegatives) {
  EXPECT_THROW(parse({"--shape=serial-parallel", "--sp_stages=-1"}),
               std::invalid_argument);
}

TEST(Cli, SpWidthRejectsNegatives) {
  EXPECT_THROW(parse({"--shape=serial-parallel", "--sp_width=-1"}),
               std::invalid_argument);
}

TEST(Cli, RepsRejectsNegatives) {
  EXPECT_THROW(options({"--reps=-1"}), std::invalid_argument);
}

TEST(Cli, JobsRejectsNegatives) {
  EXPECT_THROW(options({"--jobs=-1"}), std::invalid_argument);
}

TEST(Cli, SeedParsesTheWholeUint64Range) {
  EXPECT_THROW(parse({"--seed=-5"}), std::invalid_argument);
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed,
            18446744073709551615ull);
  EXPECT_THROW(parse({"--seed=18446744073709551616"}), std::invalid_argument);
}

TEST(Cli, PexErrRejectsNegatives) {
  EXPECT_THROW(parse({"--pex_err=-0.5"}), std::invalid_argument);
  EXPECT_EQ(parse({"--pex_err=0"}).pex_error->name(),
            workload::make_perfect_prediction()->name());
}

TEST(Cli, CheckKnownNamesTheFirstUnknownFlag) {
  const auto known = [](std::string_view name) { return name == "horizon"; };
  EXPECT_NO_THROW(make_flags({"--horizon=1e3"}).check_known(known));
  try {
    make_flags({"--horizn=1e3", "--horizon=1"}).check_known(known);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --horizn");
  }
}

// --- One field table behind flags and sweep axes -------------------------

TEST(Cli, RangePairsComposeInEitherOrder) {
  for (const auto& [lo, hi] : {std::pair<const char*, const char*>{
                                   "0.1", "0.2"},
                               {"3", "6"}}) {
    system::Config forward = system::baseline_ssp();
    system::config_setter("smin", lo)(forward);
    system::config_setter("smax", hi)(forward);
    system::Config backward = system::baseline_ssp();
    system::config_setter("smax", hi)(backward);
    system::config_setter("smin", lo)(backward);
    EXPECT_EQ(forward.local_slack->describe(),
              backward.local_slack->describe());
    EXPECT_NO_THROW(forward.validate());
  }
  EXPECT_THROW(parse({"--smin=5", "--smax=4"}), std::invalid_argument);
  EXPECT_THROW(parse({"--smin=3"}), std::invalid_argument);  // > 2.5
  EXPECT_THROW(parse({"--m_min=7", "--m_max=6"}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse({"--m_max=6"}).subtask_count->mean(), 3.5);
  EXPECT_DOUBLE_EQ(parse({"--m_min=3"}).subtask_count->mean(), 3.0);
  // The sweep applies m_max before m_min (std::map order).
  const util::Flags flags =
      make_flags({"--sweep_m_min=2", "--sweep_m_max=6"});
  const auto points =
      engine::grid_from_flags(flags).expand(system::config_from_flags(flags));
  EXPECT_EQ(points.front().config.subtask_count->describe(),
            parse({"--m_min=2", "--m_max=6"}).subtask_count->describe());
}

/// The point record of `args` (flags, optionally with --sweep_ axes) run as
/// sim_cli runs it, one replication at a horizon of at most 2000, with the
/// labels and config hash blanked (they name the axes, not the run).
std::string record_of(const std::vector<std::string>& args) {
  const util::Flags flags = make_flags(args);
  const system::Config base = system::config_from_flags(flags);
  xp::Manifest manifest;
  manifest.name = "sim_cli";
  manifest.replications = 1;
  engine::SweepGrid grid = engine::grid_from_flags(flags);
  grid.axis(engine::SweepAxis::choices(
      "short", {{"", [](system::Config& cfg) {
                   cfg.horizon = std::min(cfg.horizon, 2000.0);
                 }}}));
  manifest.base = [base] { return base; };
  manifest.grid = [grid] { return grid; };
  manifest.metrics = xp::default_metrics();
  xp::PointRecord record = xp::run_grid(manifest, base, 1, 1).records.at(0);
  record.labels.clear();
  record.config_hash.clear();
  return xp::artifact_line(manifest.name, record);
}

TEST(Cli, SweepAxesKeepLmTau) {
  // jsq-util reads the utilization EWMA, so tau moves the trajectory.
  const std::string swept = record_of({"--placement=jsq-util", "--lm_tau=1",
                                       "--sweep_load_model=exact"});
  EXPECT_EQ(swept, record_of({"--placement=jsq-util", "--load_model=exact",
                              "--lm_tau=1"}));
  EXPECT_NE(swept,
            record_of({"--placement=jsq-util", "--load_model=exact"}));
}

TEST(Cli, EveryFieldParsesTheSameAsFlagAndAsSweepAxis) {
  const std::string trace =
      (std::filesystem::path(::testing::TempDir()) / "cli_fields.trace")
          .string();
  {
    system::Config captured = system::baseline_ssp();
    captured.horizon = 2000;
    workload::TraceWriter writer(trace, captured.nodes, captured.link_nodes);
    system::SimulationRun run(captured);
    run.set_trace_writer(&writer);
    run.run();
    writer.close();
  }
  // One non-default value per field; no ',' so each is a one-value axis.
  const std::map<std::string, std::string> values = {
      {"shape", "parallel"},    {"load", "0.3"},
      {"frac_local", "0.5"},    {"nodes", "8"},
      {"m", "3"},               {"rel_flex", "2"},
      {"ssp", "EQF"},           {"psp", "DIV2"},
      {"load_model", "stale:5"}, {"lm_tau", "5"},
      {"placement", "jsq-pex"}, {"arrivals", "batch:4"},
      {"service", "h2:4"},      {"trace", trace},
      {"policy", "MLF"},        {"abort", "AbortTardy"},
      {"smin", "0.5"},          {"smax", "3"},
      {"pex_err", "0.5"},       {"m_min", "2"},
      {"m_max", "6"},           {"sp_stages", "2"},
      {"sp_prob", "0.3"},       {"sp_width", "2"},
      {"links", "2"},           {"hop", "0.5"},
      {"faults", "shed:1.5"},   {"periodic", "1"},
      {"probes", "1"},          {"preempt", "1"},
      {"horizon", "1500"},      {"warmup", "100"},
      {"seed", "7"},            {"quick", "1"}};
  for (const system::ConfigField& field : system::config_fields()) {
    const std::string name(field.name);
    SCOPED_TRACE(name);
    ASSERT_EQ(values.count(name), 1u) << "give the new field a test value";
    const std::string flag = "--" + name + "=" + values.at(name);
    const std::string axis = "--sweep_" + name + "=" + values.at(name);
    const system::Config direct = parse({flag.c_str()});
    const util::Flags swept_flags = make_flags({axis});
    const auto points = engine::grid_from_flags(swept_flags)
                            .expand(system::config_from_flags(swept_flags));
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].labels, std::vector<std::string>{values.at(name)});
    EXPECT_EQ(direct.describe(), points[0].config.describe());
    EXPECT_EQ(record_of({flag}), record_of({axis}));
  }
  EXPECT_EQ(values.size(), system::config_fields().size());
}

}  // namespace
