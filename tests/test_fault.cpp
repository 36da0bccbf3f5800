// dsrt::fault — deterministic fault injection and the failure-aware
// reactions built on it: the FaultSpec grammar, Node crash/recovery
// machinery (including the stranded-completion stale-token regression),
// the renewal-process injector, down-node avoidance in placement,
// deadline-aware retry, overload shedding, the {failed, retried, shed}
// miss-attribution extension, trace-capture/replay interplay, and the
// system-level contracts: a faulty run is bitwise-deterministic and
// --jobs-invariant, and a fault-free run is bit-for-bit the pre-fault
// build (the existing goldens pin that half).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/fault/injector.hpp"
#include "dsrt/fault/spec.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/distribution.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/trace_io.hpp"

namespace {

using namespace dsrt;
using fault::FaultSpec;

// --- FaultSpec grammar ------------------------------------------------------

TEST(FaultSpec, DefaultAndNoneInjectNothing) {
  const FaultSpec none;
  EXPECT_FALSE(none.any());
  EXPECT_FALSE(none.outages());
  EXPECT_EQ(none.describe(), "none");
  EXPECT_FALSE(FaultSpec::parse("none").any());
  EXPECT_FALSE(FaultSpec::parse("").any());
}

TEST(FaultSpec, ParsesEveryComponent) {
  const FaultSpec spec = FaultSpec::parse(
      "crash:500,25;link:200,10;exec_straggle:0.1,4;retry:2;shed:1.5");
  EXPECT_DOUBLE_EQ(spec.crash_mttf, 500.0);
  EXPECT_DOUBLE_EQ(spec.crash_mttr, 25.0);
  EXPECT_DOUBLE_EQ(spec.link_mttf, 200.0);
  EXPECT_DOUBLE_EQ(spec.link_mttr, 10.0);
  EXPECT_DOUBLE_EQ(spec.straggle_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.straggle_mult, 4.0);
  EXPECT_EQ(spec.retry_budget, 2u);
  EXPECT_TRUE(spec.shed);
  EXPECT_DOUBLE_EQ(spec.shed_margin, 1.5);
  EXPECT_TRUE(spec.crash_enabled());
  EXPECT_TRUE(spec.link_enabled());
  EXPECT_TRUE(spec.straggle_enabled());
  EXPECT_TRUE(spec.outages());
  EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, DescribeRoundTripsInCanonicalOrder) {
  // Scrambled component order canonicalizes.
  const FaultSpec spec = FaultSpec::parse("retry:3;crash:100,10;shed");
  EXPECT_EQ(spec.describe(), "crash:100,10;retry:3;shed");
  const FaultSpec again = FaultSpec::parse(spec.describe());
  EXPECT_EQ(again.describe(), spec.describe());
  // A non-default margin prints; the default margin stays silent.
  EXPECT_EQ(FaultSpec::parse("shed:2").describe(), "shed:2");
  EXPECT_EQ(FaultSpec::parse("shed").describe(), "shed");
  EXPECT_EQ(FaultSpec::parse("exec_straggle:0.25,3").describe(),
            "exec_straggle:0.25,3");
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSpec::parse("crash"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:100"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:100,10,1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:100,junk"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:100,0"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:-1,10"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("meteor:1,1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("retry:2.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("retry:-1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("retry:65"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("exec_straggle:1.5,2"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("exec_straggle:0.1,1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("shed:0"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("shed:"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("none;crash:1,1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash:1,1;none"), std::invalid_argument);
}

// --- Config validation and describe -----------------------------------------

TEST(FaultConfig, LinkFaultsRequireLinkNodes) {
  system::Config cfg = system::baseline_ssp();
  cfg.faults = FaultSpec::parse("link:100,10");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.25);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FaultConfig, TraceReplayRejectsStraggle) {
  // The trace pins real demands; inflating them on replay would silently
  // replay a different workload. Crash/link/retry/shed compose fine.
  system::Config cfg = system::baseline_ssp();
  cfg.trace = "whatever.trace";
  cfg.faults = FaultSpec::parse("exec_straggle:0.1,2");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults = FaultSpec::parse("crash:100,10;retry:1;shed");
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FaultConfig, DescribeMentionsFaultsOnlyWhenEnabled) {
  // The committed expectation files hash Config::describe(); a fault-free
  // config must keep producing the exact pre-fault text.
  system::Config cfg = system::baseline_ssp();
  EXPECT_EQ(cfg.describe().find("faults"), std::string::npos);
  cfg.faults = FaultSpec::parse("crash:100,10");
  EXPECT_NE(cfg.describe().find("faults=crash:100,10"), std::string::npos);
}

TEST(FaultCli, FlagParsesAndRejects) {
  auto parse = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    return system::config_from_flags(flags);
  };
  const auto cfg = parse({"--faults=crash:200,20;retry:2;shed"});
  EXPECT_DOUBLE_EQ(cfg.faults.crash_mttf, 200.0);
  EXPECT_EQ(cfg.faults.retry_budget, 2u);
  EXPECT_TRUE(cfg.faults.shed);
  EXPECT_THROW(parse({"--faults=bogus"}), std::invalid_argument);
  // Link faults without --links fail at validate, with a clean error.
  EXPECT_THROW(parse({"--faults=link:100,10"}), std::invalid_argument);
}

// --- Node crash machinery ---------------------------------------------------

struct Disposal {
  sched::JobId id;
  double at;
  sched::JobOutcome outcome;
};

struct NodeFixture {
  sim::Simulator sim;
  sched::Node node;
  std::vector<Disposal> log;

  NodeFixture() : node(0, sim, sched::make_edf(), sched::make_no_abort()) {
    node.set_completion_handler(
        [this](const sched::Job& job, double now, sched::JobOutcome outcome) {
          log.push_back({job.id, now, outcome});
        });
  }

  sched::Job job(sched::JobId id, double exec, double deadline) {
    sched::Job j;
    j.id = id;
    j.exec = exec;
    j.pex = exec;
    j.deadline = deadline;
    j.ultimate_deadline = deadline;
    return j;
  }
};

TEST(NodeCrash, FailsInServiceAndQueuedJobsInDispatchOrder) {
  NodeFixture f;
  f.node.submit(f.job(1, 5.0, 100.0));  // in service
  f.node.submit(f.job(2, 1.0, 50.0));
  f.node.submit(f.job(3, 1.0, 10.0));
  f.node.submit(f.job(4, 1.0, 30.0));
  f.sim.in(1.0, [&] { f.node.fail(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(f.log.size(), 4u);
  for (const auto& d : f.log) {
    EXPECT_DOUBLE_EQ(d.at, 1.0);
    EXPECT_EQ(d.outcome, sched::JobOutcome::Failed);
  }
  // In-service victim first, then the queue in its deterministic pop order.
  EXPECT_EQ(f.log[0].id, 1u);
  EXPECT_EQ(f.log[1].id, 3u);
  EXPECT_EQ(f.log[2].id, 4u);
  EXPECT_EQ(f.log[3].id, 2u);
  EXPECT_FALSE(f.node.up());
  EXPECT_FALSE(f.node.busy());
  EXPECT_EQ(f.node.queue_length(), 0u);
  EXPECT_EQ(f.node.jobs_failed(), 4u);
  EXPECT_EQ(f.node.jobs_completed(), 0u);
}

TEST(NodeCrash, StrandedCompletionEventIsAStaleNoOp) {
  // Regression for the stale-token pattern: the completion event of the
  // job in service at the crash is already on the event queue. It must
  // fire as a no-op — in particular it must NOT complete (or evict) a job
  // submitted after recovery.
  NodeFixture f;
  f.node.submit(f.job(1, 5.0, 100.0));  // completion event pending at t=5
  f.sim.in(1.0, [&] { f.node.fail(f.sim.now()); });
  f.sim.in(2.0, [&] {
    f.node.recover(f.sim.now());
    f.node.submit(f.job(2, 10.0, 100.0));  // must complete at t=12, not t=5
  });
  f.sim.run();
  ASSERT_EQ(f.log.size(), 2u);
  EXPECT_EQ(f.log[0].id, 1u);
  EXPECT_EQ(f.log[0].outcome, sched::JobOutcome::Failed);
  EXPECT_DOUBLE_EQ(f.log[0].at, 1.0);
  EXPECT_EQ(f.log[1].id, 2u);
  EXPECT_EQ(f.log[1].outcome, sched::JobOutcome::Completed);
  EXPECT_DOUBLE_EQ(f.log[1].at, 12.0);
  EXPECT_EQ(f.node.jobs_completed(), 1u);
  EXPECT_EQ(f.node.jobs_failed(), 1u);
}

TEST(NodeCrash, SubmitWhileDownFailsFastAndRecoverRestoresService) {
  NodeFixture f;
  f.node.fail(f.sim.now());
  f.node.fail(f.sim.now());  // idempotent
  f.node.submit(f.job(1, 2.0, 10.0));
  ASSERT_EQ(f.log.size(), 1u);  // rejected synchronously
  EXPECT_EQ(f.log[0].outcome, sched::JobOutcome::Failed);
  EXPECT_EQ(f.node.jobs_failed(), 1u);
  f.sim.in(1.0, [&] {
    f.node.recover(f.sim.now());
    f.node.recover(f.sim.now());  // idempotent
    f.node.submit(f.job(2, 2.0, 10.0));
  });
  f.sim.run();
  ASSERT_EQ(f.log.size(), 2u);
  EXPECT_EQ(f.log[1].outcome, sched::JobOutcome::Completed);
  EXPECT_DOUBLE_EQ(f.log[1].at, 3.0);
}

TEST(NodeCrash, LoadAccountIsZeroedAndMarkedDown) {
  NodeFixture f;
  core::LoadAccount account;
  account.configure(20.0, f.sim.now());
  f.node.attach_load_account(&account);
  f.node.submit(f.job(1, 5.0, 100.0));
  f.node.submit(f.job(2, 1.0, 50.0));
  EXPECT_GT(account.read(f.sim.now()).queued_pex, 0.0);
  f.node.fail(f.sim.now());
  const core::NodeLoad down = account.read(f.sim.now());
  EXPECT_TRUE(down.down);
  EXPECT_DOUBLE_EQ(down.queued_pex, 0.0);
  EXPECT_EQ(down.queue_length, 0u);
  f.node.recover(f.sim.now());
  EXPECT_FALSE(account.read(f.sim.now()).down);
}

// --- Placement avoids down nodes --------------------------------------------

/// Frozen per-node load states (test double shared with test_placement).
class FixedLoadModel final : public core::LoadModel {
 public:
  explicit FixedLoadModel(std::vector<core::NodeLoad> loads)
      : loads_(std::move(loads)) {}
  core::NodeLoad load(core::NodeId node, sim::Time) const override {
    return node < loads_.size() ? loads_[node] : core::NodeLoad{};
  }
  std::string_view name() const override { return "fixed"; }

 private:
  std::vector<core::NodeLoad> loads_;
};

TEST(FaultPlacement, JsqTreatsDownNodesAsInfinitelyLoaded) {
  // Node 0 is empty but down; node 1 carries heavy backlog. jsq must pick
  // the live node regardless of its load key.
  std::vector<core::NodeLoad> loads(2);
  loads[0].down = true;
  loads[1].queued_pex = 1e6;
  const FixedLoadModel model(loads);
  const core::PlacementContext ctx{0.0, &model, core::kNoNode};
  const std::vector<core::NodeId> candidates = {0, 1};
  const auto jsq = core::make_placement(core::PlacementSpec::parse("jsq-pex"));
  EXPECT_EQ(jsq->place(ctx, candidates), 1u);
  const auto util =
      core::make_placement(core::PlacementSpec::parse("jsq-util"));
  EXPECT_EQ(util->place(ctx, candidates), 1u);
  const auto pod =
      core::make_placement(core::PlacementSpec::parse("pod:2"), 42);
  EXPECT_EQ(pod->place(ctx, candidates), 1u);
}

// --- FaultInjector ----------------------------------------------------------

struct InjectorFixture {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sched::Node>> nodes;

  explicit InjectorFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, sched::make_edf(),
          sched::make_no_abort()));
  }
};

TEST(FaultInjector, DrivesCrashRecoveryRenewalChains) {
  InjectorFixture f(4);
  fault::FaultInjector injector(f.sim, FaultSpec::parse("crash:50,5"),
                                f.nodes, 4, 12345, 2000.0);
  injector.start();
  f.sim.run(2000.0);
  // ~4 nodes * 2000 / (50 + 5) ≈ 145 expected cycles; assert loose bounds.
  EXPECT_GT(injector.crashes(), 40u);
  EXPECT_EQ(injector.link_outages(), 0u);
  EXPECT_LE(injector.recoveries(), injector.crashes());
  EXPECT_GE(injector.recoveries() + 4, injector.crashes());
  EXPECT_GT(injector.downtime(), 0.0);
  for (const auto& node : f.nodes)
    EXPECT_EQ(node->jobs_submitted(), 0u);  // outages alone touch no work
}

TEST(FaultInjector, IsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    InjectorFixture f(6);
    fault::FaultInjector injector(f.sim, FaultSpec::parse("crash:80,8"),
                                  f.nodes, 6, seed, 3000.0);
    injector.start();
    f.sim.run(3000.0);
    return std::tuple(injector.crashes(), injector.recoveries(),
                      injector.downtime());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(std::get<0>(run_once(7)), std::get<0>(run_once(8)));
}

TEST(FaultInjector, LinkComponentTargetsOnlyLinkNodes) {
  InjectorFixture f(6);  // 4 compute + 2 link
  fault::FaultInjector injector(f.sim, FaultSpec::parse("link:40,4"),
                                f.nodes, 4, 99, 2000.0);
  injector.start();
  f.sim.run(2000.0);
  EXPECT_EQ(injector.crashes(), 0u);
  EXPECT_GT(injector.link_outages(), 0u);
  EXPECT_TRUE(f.nodes[0]->up() || f.nodes[1]->up());
  // Compute nodes were never touched: their up flag only flips via fail().
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(f.nodes[i]->up());
}

TEST(FaultInjector, StraggleFactorMatchesItsLaw) {
  InjectorFixture f(1);
  fault::FaultInjector injector(f.sim,
                                FaultSpec::parse("exec_straggle:0.25,3"),
                                f.nodes, 1, 2024, 1000.0);
  std::uint64_t hits = 0;
  const std::uint64_t draws = 20000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const double factor = injector.straggle_factor();
    ASSERT_TRUE(factor == 1.0 || factor == 3.0);
    if (factor == 3.0) ++hits;
  }
  EXPECT_EQ(hits, injector.straggled());
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(draws), 0.25,
              0.02);
  // Without the component the factor is a draw-free constant 1.
  fault::FaultInjector plain(f.sim, FaultSpec::parse("retry:1"), f.nodes, 1,
                             2024, 1000.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(plain.straggle_factor(), 1.0);
}

// --- System level: the faulty golden ----------------------------------------

system::Config faulty_golden_config() {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 50000;
  cfg.ssp = core::serial_strategy_by_name("EQF");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  cfg.faults = FaultSpec::parse("crash:400,40;retry:2");
  return cfg;
}

TEST(FaultGolden, CrashRetryJsqPexRep0) {
  // The faulty counterpart of the test_golden_metrics pins: crash/recovery
  // renewal at mttf 400 / mttr 40 with budget-2 retries under jsq-pex
  // placement, replication 0, down to the last bit. Any drift in fault
  // event order, orphan disposal order, or retry placement shows up here.
  const system::RunMetrics m = system::simulate(faulty_golden_config(), 0);
  EXPECT_EQ(m.events, 262096u);
  EXPECT_EQ(m.local.generated, 112361u);
  EXPECT_EQ(m.global.generated, 9316u);
  // Locals die with their node; almost every global orphan is rescued by
  // the budget-2 retries (2 of ~11k crash victims exhaust it). Re-pinned
  // when an empty account's backlog became exactly 0, so idle nodes tie.
  EXPECT_EQ(m.local.failed, 10987u);
  EXPECT_EQ(m.global.failed, 2u);
  EXPECT_EQ(m.local.missed.trials(), 112357u);
  EXPECT_EQ(m.local.missed.hits(), 33337u);
  EXPECT_EQ(m.global.missed.trials(), 9316u);
  EXPECT_EQ(m.global.missed.hits(), 90u);
  EXPECT_EQ(m.local.response.mean(), 0x1.bb5a9811233bap+0);
  EXPECT_EQ(m.global.response.mean(), 0x1.0ce307967b74dp+2);
  EXPECT_EQ(m.mean_utilization, 0x1.d923685b96939p-2);
}

TEST(FaultGolden, RunsAreDeterministic) {
  const system::RunMetrics a = system::simulate(faulty_golden_config(), 0);
  const system::RunMetrics b = system::simulate(faulty_golden_config(), 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.failed, b.global.failed);
  EXPECT_EQ(a.local.missed.hits(), b.local.missed.hits());
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
}

TEST(FaultGolden, MergedMetricsIndependentOfJobs) {
  system::Config cfg = faulty_golden_config();
  cfg.horizon = 10000;
  cfg.probes = true;
  const auto serial = engine::run({{.config = cfg}}, 4, 1).front().result;
  const auto parallel = engine::run({{.config = cfg}}, 4, 4).front().result;
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].events, parallel.runs[i].events);
    EXPECT_EQ(serial.runs[i].global.failed, parallel.runs[i].global.failed);
    EXPECT_EQ(serial.runs[i].global.missed.hits(),
              parallel.runs[i].global.missed.hits());
    EXPECT_EQ(serial.runs[i].global.response.mean(),
              parallel.runs[i].global.response.mean());
  }
  EXPECT_EQ(serial.md_global.mean, parallel.md_global.mean);
  ASSERT_FALSE(serial.counters.empty());
  EXPECT_EQ(serial.counters.json(), parallel.counters.json());
}

TEST(FaultProbes, CountersAreHarvestedAndConsistent) {
  system::Config cfg = faulty_golden_config();
  cfg.horizon = 20000;
  cfg.probes = true;
  cfg.faults = FaultSpec::parse("crash:300,30;retry:2;shed:1.5");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_GT(m.counters.value_or("fault.crashes"), 0.0);
  EXPECT_GT(m.counters.value_or("fault.recoveries"), 0.0);
  EXPECT_GT(m.counters.value_or("fault.downtime"), 0.0);
  EXPECT_GT(m.counters.value_or("fault.orphans"), 0.0);
  EXPECT_GT(m.counters.value_or("fault.retries"), 0.0);
  // Every retry re-placed an orphan, so orphans bound retries from above.
  EXPECT_GE(m.counters.value_or("fault.orphans"),
            m.counters.value_or("fault.retries"));
  EXPECT_EQ(m.counters.value_or("fault.sheds"),
            static_cast<double>(m.local.shed + m.global.shed));
  EXPECT_EQ(m.counters.value_or("fault.link_outages"), 0.0);
}

TEST(FaultMetrics, DisposalsPartitionTheTrials) {
  // Every generated-and-resolved task is exactly one of completed, aborted,
  // failed, or shed — in both classes, including under shedding pressure.
  system::Config cfg = faulty_golden_config();
  cfg.horizon = 20000;
  cfg.load = 0.9;
  cfg.faults = FaultSpec::parse("crash:200,40;retry:1;shed:1.5");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_GT(m.local.shed + m.global.shed, 0u);
  EXPECT_GT(m.local.failed + m.global.failed, 0u);
  EXPECT_EQ(m.local.response.count() + m.local.aborted + m.local.failed +
                m.local.shed,
            m.local.missed.trials());
  EXPECT_EQ(m.global.response.count() + m.global.aborted + m.global.failed +
                m.global.shed,
            m.global.missed.trials());
}

// --- Miss attribution under faults ------------------------------------------

TEST(FaultAttribution, CausesStillPartitionMissesExactly) {
  system::Config cfg = faulty_golden_config();
  cfg.horizon = 30000;
  cfg.load = 0.8;
  cfg.faults = FaultSpec::parse("crash:250,25;retry:2;shed:1.5");
  obs::MissAttribution attribution(cfg.nodes);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&attribution);
  const system::RunMetrics m = run.run();

  // Trials and misses still partition exactly with the fault causes live.
  EXPECT_EQ(attribution.finished() + attribution.aborted() +
                attribution.failed() + attribution.shed(),
            m.global.missed.trials());
  EXPECT_EQ(attribution.misses(), m.global.missed.hits());
  std::uint64_t cause_sum = 0;
  for (std::size_t i = 0; i < obs::kMissCauseCount; ++i)
    cause_sum += attribution.cause_count(static_cast<obs::MissCause>(i));
  EXPECT_EQ(cause_sum, m.global.missed.hits());

  // The fault causes mirror the golden counters one for one.
  EXPECT_EQ(attribution.failed(), m.global.failed);
  EXPECT_EQ(attribution.shed(), m.global.shed);
  EXPECT_EQ(attribution.cause_count(obs::MissCause::Failed),
            m.global.failed);
  EXPECT_EQ(attribution.cause_count(obs::MissCause::Shed), m.global.shed);
  EXPECT_GT(attribution.cause_count(obs::MissCause::Failed), 0u);
  EXPECT_GT(attribution.cause_count(obs::MissCause::Shed), 0u);
  // Some tasks survived a crash through a retry and still missed.
  EXPECT_GT(attribution.cause_count(obs::MissCause::Retried), 0u);
  // Retried misses skip path decomposition by design, so chaining health
  // still holds for everything that was decomposed.
  EXPECT_EQ(attribution.unattributed(), 0u);
  EXPECT_EQ(attribution.table().rows(), obs::kMissCauseCount);
}

// --- Trace interplay --------------------------------------------------------

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultTrace, CaptureRecordsTheOfferedWorkloadNotTheFaultRealization) {
  // The capture hook sits upstream of the fault reactions (shed, straggle,
  // crash orphaning), and fault randomness lives on its own rng stream —
  // so the trace captured from a faulty run is byte-identical to the trace
  // of the fault-free run.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;

  const std::string plain_path = temp_path("fault_capture_plain.trace");
  {
    workload::TraceWriter writer(plain_path, cfg.nodes, cfg.link_nodes);
    system::SimulationRun run(cfg);
    run.set_trace_writer(&writer);
    run.run();
    writer.close();
  }

  system::Config faulty = cfg;
  faulty.faults =
      FaultSpec::parse("crash:100,10;exec_straggle:0.2,3;retry:1;shed");
  const std::string faulty_path = temp_path("fault_capture_faulty.trace");
  {
    workload::TraceWriter writer(faulty_path, faulty.nodes,
                                 faulty.link_nodes);
    system::SimulationRun run(faulty);
    run.set_trace_writer(&writer);
    run.run();
    writer.close();
  }

  const std::string plain = slurp(plain_path);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, slurp(faulty_path));
  std::remove(plain_path.c_str());
  std::remove(faulty_path.c_str());
}

TEST(FaultTrace, ReplayUnderFaultsIsDeterministic) {
  // A captured workload replays under a *different* fault scenario than it
  // was recorded with (or none at all) — and any such replay is bitwise
  // reproducible.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 5000;
  const std::string path = temp_path("fault_replay.trace");
  {
    workload::TraceWriter writer(path, cfg.nodes, cfg.link_nodes);
    system::SimulationRun run(cfg);
    run.set_trace_writer(&writer);
    run.run();
    writer.close();
  }

  system::Config replay = cfg;
  replay.trace = path;
  replay.faults = FaultSpec::parse("crash:150,15;retry:1");
  const system::RunMetrics a = system::simulate(replay, 0);
  const system::RunMetrics b = system::simulate(replay, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.local.failed, b.local.failed);
  EXPECT_EQ(a.global.failed, b.global.failed);
  EXPECT_EQ(a.global.missed.hits(), b.global.missed.hits());
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  // The crashes actually bit: the faulty replay lost work the plain replay
  // would have served.
  EXPECT_GT(a.local.failed + a.global.failed, 0u);
  std::remove(path.c_str());
}

// --- Degradation ------------------------------------------------------------

TEST(FaultDegradation, MissRatioRisesWithFaultIntensity) {
  // Graceful degradation, coarse-grained: MD_global grows monotonically as
  // the crash rate rises through an order of magnitude (the fine-grained
  // curve is the abl_faults manifest's job).
  system::Config cfg = faulty_golden_config();
  cfg.horizon = 20000;
  double last = -1.0;
  for (const char* spec : {"none", "crash:2000,40;retry:2",
                           "crash:200,40;retry:2"}) {
    cfg.faults = FaultSpec::parse(spec);
    const system::RunMetrics m = system::simulate(cfg, 0);
    const double md = static_cast<double>(m.global.missed.hits()) /
                      static_cast<double>(m.global.missed.trials());
    EXPECT_GT(md, last) << "faults=" << spec;
    last = md;
  }
}

}  // namespace
