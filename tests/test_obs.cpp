// dsrt::obs subsystem: metrics registry semantics, probe determinism and
// jobs-independence, deadline-miss attribution consistency against the
// golden metrics, and a Perfetto export round-trip through a JSON parser.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/probes.hpp"
#include "dsrt/obs/registry.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/obs/trace_export.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, ScalarKindsAndSnapshot) {
  obs::Registry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto p = reg.peak("p");
  reg.add(c, 2);
  reg.add(c, 3);
  reg.set(g, 7.5);
  reg.raise(p, 4);
  reg.raise(p, 2);  // lower: ignored
  EXPECT_EQ(reg.value(c), 5.0);
  EXPECT_EQ(reg.value(p), 4.0);

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.value_or("c"), 5.0);
  EXPECT_EQ(snap.value_or("g"), 7.5);
  EXPECT_EQ(snap.value_or("p"), 4.0);
  EXPECT_EQ(snap.value_or("missing", -1.0), -1.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsRegistry, SameNameSameKindIsSameId) {
  obs::Registry reg;
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  const auto h = reg.histogram("h", 1.0, 8);
  EXPECT_EQ(h, reg.histogram("h", 1.0, 8));
  EXPECT_THROW(reg.histogram("h", 2.0, 8), std::invalid_argument);
}

TEST(ObsRegistry, HistogramFlattensToDerivedMetrics) {
  obs::Registry reg;
  const auto h = reg.histogram("depth", 1.0, 16);
  for (double v : {1.0, 1.0, 2.0, 3.0}) reg.observe(h, v);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value_or("depth.count"), 4.0);
  EXPECT_DOUBLE_EQ(snap.value_or("depth.mean"), 1.75);
  EXPECT_GT(snap.value_or("depth.p99"), 0.0);
  EXPECT_GT(snap.value_or("depth.max"), 0.0);
}

TEST(ObsSnapshot, MergeByKind) {
  obs::Registry a, b;
  a.add(a.counter("n"), 10);
  a.set(a.gauge("lvl"), 1.0);
  a.raise(a.peak("hi"), 5);
  b.add(b.counter("n"), 4);
  b.set(b.gauge("lvl"), 3.0);
  b.raise(b.peak("hi"), 2);
  b.add(b.counter("only_b"), 1);

  obs::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.value_or("n"), 14.0);      // counters add
  EXPECT_EQ(merged.value_or("lvl"), 2.0);     // gauges average
  EXPECT_EQ(merged.value_or("hi"), 5.0);      // peaks max
  EXPECT_EQ(merged.value_or("only_b"), 1.0);  // one-sided kept
  EXPECT_EQ(merged.find("n")->weight, 2u);
}

TEST(ObsSnapshot, GaugeMergeIsWeightedByRuns) {
  // (1.0 over 2 runs) pooled with (4.0 over 1 run) -> (2*1 + 1*4)/3.
  obs::Registry a, b, c;
  a.set(a.gauge("g"), 0.0);
  b.set(b.gauge("g"), 2.0);
  c.set(c.gauge("g"), 4.0);
  obs::Snapshot pooled = a.snapshot();
  pooled.merge(b.snapshot());  // mean 1.0, weight 2
  pooled.merge(c.snapshot());
  EXPECT_DOUBLE_EQ(pooled.value_or("g"), 2.0);
  EXPECT_EQ(pooled.find("g")->weight, 3u);
}

// ------------------------------------------------------------------ probes

system::Config probed_fig2() {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.probes = true;
  return cfg;
}

TEST(ObsProbes, HarvestIsDeterministicAndConsistent) {
  const system::RunMetrics a = system::simulate(probed_fig2(), 0);
  const system::RunMetrics b = system::simulate(probed_fig2(), 0);
  ASSERT_FALSE(a.counters.empty());
  EXPECT_EQ(a.counters.json(), b.counters.json());

  // The harvested counters agree with the headline metrics they shadow.
  EXPECT_EQ(a.counters.value_or("sim.events"),
            static_cast<double>(a.events));
  // Compute nodes completed at least every counted local task plus every
  // global subtask that waited (exact equality would couple this test to
  // warmup-reset bookkeeping).
  EXPECT_GE(a.counters.value_or("node.completed"),
            static_cast<double>(a.local.missed.trials()));
  EXPECT_GT(a.counters.value_or("sim.queue.max_pending"), 0.0);
  EXPECT_GT(a.counters.value_or("pool.slots"), 0.0);
  // Paper-scale fig2 stays within the sorted-array event queue regime.
  EXPECT_EQ(a.counters.value_or("sim.queue.mode_flips"), 0.0);
}

TEST(ObsProbes, HistogramQuantilesStayInsideTheObservedRange) {
  // Fig. 2 and a light-load jsq-pex/exact run, where node.ready_depth is
  // all zeros: bin interpolation alone would report p50 = 0.5 over max 0.
  system::Config jsq = probed_fig2();
  jsq.load = 0.3;
  jsq.placement = core::PlacementSpec::parse("jsq-pex");
  jsq.load_model = core::LoadModelSpec::parse("exact");
  for (const system::Config& cfg : {probed_fig2(), jsq}) {
    const obs::Snapshot snap = system::simulate(cfg, 0).counters;
    std::size_t histograms = 0;
    for (const obs::MetricValue& m : snap.metrics()) {
      const std::string suffix = ".p50";
      if (m.name.size() <= suffix.size() ||
          m.name.compare(m.name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
        continue;
      const std::string hist = m.name.substr(0, m.name.size() - 4);
      SCOPED_TRACE(hist);
      ++histograms;
      const double p99 = snap.value_or(hist + ".p99", -1);
      EXPECT_LE(m.value, p99);
      EXPECT_LE(p99, snap.value_or(hist + ".max", -1));
    }
    EXPECT_GT(histograms, 0u);
  }
}

TEST(ObsProbes, ReadyDepthIsEachNodesTimeAverage) {
  // Fig. 2 at load 0.5: one sample per compute node, its time-average
  // ready depth over the observation window.
  system::Config cfg = probed_fig2();
  cfg.load = 0.5;
  system::SimulationRun run(cfg);
  const obs::Snapshot snap = run.run().counters;
  double sum = 0;
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    sum += run.nodes()[i]->mean_queue_length(run.simulator().now());
  EXPECT_EQ(snap.value_or("node.ready_depth.count"),
            static_cast<double>(cfg.nodes));
  EXPECT_NEAR(snap.value_or("node.ready_depth.mean"),
              sum / static_cast<double>(cfg.nodes), 1e-12);
  EXPECT_GT(snap.value_or("node.ready_depth.p50"), 0.0);
}

TEST(ObsProbes, ProbedRunMatchesUnprobedGolden) {
  // Config::probes must not perturb the trajectory: headline metrics of a
  // probed run equal the unprobed run bit for bit.
  system::Config cfg = probed_fig2();
  const system::RunMetrics probed = system::simulate(cfg, 0);
  cfg.probes = false;
  const system::RunMetrics plain = system::simulate(cfg, 0);
  EXPECT_EQ(probed.events, plain.events);
  EXPECT_EQ(probed.local.missed.hits(), plain.local.missed.hits());
  EXPECT_EQ(probed.global.missed.hits(), plain.global.missed.hits());
  EXPECT_EQ(probed.global.response.mean(), plain.global.response.mean());
  EXPECT_TRUE(plain.counters.empty());
}

TEST(ObsProbes, MergedCountersIndependentOfJobs) {
  // Counters ride RunMetrics through the engine's slot-ordered aggregation,
  // so the pooled snapshot is identical for any worker count.
  system::Config cfg = probed_fig2();
  cfg.horizon = 10000;
  const auto serial = engine::run({{.config = cfg}}, 4, 1).front().result;
  const auto parallel = engine::run({{.config = cfg}}, 4, 4).front().result;
  ASSERT_FALSE(serial.counters.empty());
  EXPECT_EQ(serial.counters.json(), parallel.counters.json());
}

TEST(ObsProbes, LoadModelAndPlacementCounters) {
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 10000;
  cfg.probes = true;
  cfg.ssp = core::make_eqs_load_aware();
  cfg.load_model = core::LoadModelSpec::parse("sampled:5");
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  const system::RunMetrics m = system::simulate(cfg, 0);
  EXPECT_GT(m.counters.value_or("load_model.reads"), 0.0);
  EXPECT_GT(m.counters.value_or("load_model.refreshes"), 0.0);
  // Snapshot age at read time is bounded by the sampling period.
  EXPECT_GE(m.counters.value_or("load_model.mean_read_age"), 0.0);
  EXPECT_LE(m.counters.value_or("load_model.mean_read_age"), 5.0);
  EXPECT_GT(m.counters.value_or("placement.decisions"), 0.0);
}

TEST(ObsProbes, JsqIndexCountersSplitTheDecisions) {
  // Exact jsq-pex over "any compute node" intervals: with no node ever
  // down, the index answers every decision, from its zero class or from
  // its tree. Idle nodes read exactly 0, so at load 0.5 an idle candidate
  // answers every decision; at 0.9 (~61k zero and ~10k tree answers) all
  // candidates are sometimes busy and the tree must answer and flush.
  // Harvesting the counters reads nothing from the board.
  system::Config cfg = system::baseline_combined();
  cfg.nodes = 64;
  cfg.load = 0.9;
  cfg.horizon = 5000;
  cfg.probes = true;
  cfg.placement = core::PlacementSpec::parse("jsq-pex");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  system::SimulationRun run(cfg, 0);
  const system::RunMetrics m = run.run();
  const double zero = m.counters.value_or("placement.index_zero_answers");
  const double tree = m.counters.value_or("placement.index_tree_answers");
  EXPECT_GT(zero, 0.0);
  EXPECT_GT(tree, 0.0);
  EXPECT_EQ(zero + tree, m.counters.value_or("placement.decisions"));
  EXPECT_GT(m.counters.value_or("placement.index_flushed_leaves"), 0.0);
  obs::Registry again;
  obs::probe_run(run, again);
  const obs::Snapshot second = again.snapshot();
  EXPECT_EQ(second.value_or("load_model.reads"),
            m.counters.value_or("load_model.reads"));
  EXPECT_EQ(second.value_or("placement.index_tree_answers"), tree);
}

// ------------------------------------------------------------- attribution

system::Config golden_comm_config() {
  // CombinedCommLoadAwareSampledRep0 from test_golden_metrics.cpp.
  system::Config cfg = system::baseline_combined();
  cfg.horizon = 150000;
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.25);
  cfg.ssp = core::make_eqs_load_aware();
  cfg.psp = core::parallel_strategy_by_name("DIVA");
  cfg.load_model = core::LoadModelSpec::parse("sampled:5");
  return cfg;
}

TEST(ObsAttribution, CausesSumToGoldenMissedDeadlines) {
  system::Config cfg = golden_comm_config();
  obs::MissAttribution attribution(cfg.nodes);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&attribution);
  const system::RunMetrics m = run.run();

  // The observed trajectory is the golden one: attaching the observer must
  // not move a single count.
  EXPECT_EQ(m.events, 875406u);
  EXPECT_EQ(m.global.missed.trials(), 18951u);
  EXPECT_EQ(m.global.missed.hits(), 4760u);

  // Trials and misses partition exactly.
  EXPECT_EQ(attribution.finished() + attribution.aborted(),
            m.global.missed.trials());
  EXPECT_EQ(attribution.misses(), m.global.missed.hits());
  std::uint64_t cause_sum = 0;
  for (std::size_t i = 0; i < obs::kMissCauseCount; ++i)
    cause_sum += attribution.cause_count(static_cast<obs::MissCause>(i));
  EXPECT_EQ(cause_sum, m.global.missed.hits());

  // Every missed completion's realized path chained back to its arrival.
  EXPECT_EQ(attribution.unattributed(), 0u);

  // Component identity: queueing + overrun + comm - slack == lateness,
  // summed over all missed completions (floating-point association only).
  const double lhs = attribution.queueing().sum() +
                     attribution.overrun().sum() + attribution.comm().sum() -
                     attribution.slack().sum();
  const double rhs = attribution.lateness().sum();
  EXPECT_NEAR(lhs, rhs, 1e-6 * std::max(1.0, std::abs(rhs)));

  // With real comm stages in the chain the comm component is measured on
  // every realized path — but at this load the compute queues are the
  // bottleneck (mean queueing ~7.9 vs mean comm ~0.02 per miss), so
  // queueing dominates every individual miss. Comm-dominant causes are
  // exercised by HeavyCommStagesYieldCommDominantMisses below.
  EXPECT_GT(attribution.cause_count(obs::MissCause::Queueing), 0u);
  EXPECT_GT(attribution.comm().sum(), 0.0);
  EXPECT_EQ(attribution.cause_count(obs::MissCause::Aborted), 0u);

  EXPECT_EQ(attribution.table().rows(), obs::kMissCauseCount);
}

TEST(ObsAttribution, HeavyCommStagesYieldCommDominantMisses) {
  // Same topology, but comm stages an order of magnitude heavier
  // (exp(2.0) vs the golden exp(0.25)): now the realized paths of many
  // misses spend more of their lateness on link nodes than in compute
  // queues, and the classifier must say so.
  system::Config cfg = golden_comm_config();
  cfg.horizon = 30000;
  cfg.comm_exec = sim::exponential(2.0);
  obs::MissAttribution attribution(cfg.nodes);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&attribution);
  const system::RunMetrics m = run.run();

  ASSERT_GT(m.global.missed.hits(), 0u);
  std::uint64_t cause_sum = 0;
  for (std::size_t i = 0; i < obs::kMissCauseCount; ++i)
    cause_sum += attribution.cause_count(static_cast<obs::MissCause>(i));
  EXPECT_EQ(cause_sum, m.global.missed.hits());
  EXPECT_EQ(attribution.unattributed(), 0u);
  EXPECT_GT(attribution.cause_count(obs::MissCause::Comm), 0u);
  EXPECT_GT(attribution.cause_count(obs::MissCause::Queueing), 0u);
}

TEST(ObsAttribution, AbortedTasksGetAbortedCause) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.load = 0.9;
  cfg.abort_policy = sched::abort_policy_by_name("AbortTardy");
  obs::MissAttribution attribution(cfg.nodes);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&attribution);
  const system::RunMetrics m = run.run();

  ASSERT_GT(m.global.aborted, 0u);
  EXPECT_EQ(attribution.aborted(), m.global.aborted);
  EXPECT_EQ(attribution.cause_count(obs::MissCause::Aborted),
            m.global.aborted);
  EXPECT_EQ(attribution.misses(), m.global.missed.hits());
  EXPECT_EQ(attribution.finished() + attribution.aborted(),
            m.global.missed.trials());
}

TEST(ObsAttribution, SnapshotIntoRegistry) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 10000;
  obs::MissAttribution attribution(cfg.nodes);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&attribution);
  run.run();

  obs::Registry reg;
  attribution.snapshot_into(reg);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value_or("attr.misses"),
            static_cast<double>(attribution.misses()));
  double cause_sum = 0;
  for (const char* name :
       {"attr.miss.queueing", "attr.miss.comm", "attr.miss.overrun",
        "attr.miss.infeasible", "attr.miss.aborted"})
    cause_sum += snap.value_or(name);
  EXPECT_EQ(cause_sum, snap.value_or("attr.misses"));
}

// ------------------------------------------------------- perfetto export

/// Minimal recursive-descent JSON parser — just enough structure checking
/// to prove the exporter emits well-formed JSON with the expected shape (no
/// third-party dependency by design).
class JsonParser {
 public:
  struct Value {
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    double number = 0;
    std::string string;
    std::vector<Value> items;                  // Array
    std::map<std::string, Value> members;      // Object
  };

  static Value parse(const std::string& text) {
    JsonParser p(text);
    Value v = p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': literal("true"); return make(Value::Bool, 1);
      case 'f': literal("false"); return make(Value::Bool, 0);
      case 'n': literal("null"); return make(Value::Null, 0);
      default: return number();
    }
  }
  static Value make(Value::Kind kind, double v) {
    Value out;
    out.kind = kind;
    out.number = v;
    return out;
  }
  void literal(const char* word) {
    for (const char* c = word; *c; ++c) expect(*c);
  }
  Value number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    Value out = make(Value::Number, 0);
    out.number = std::stod(text_.substr(start, pos_ - start));
    return out;
  }
  Value string_value() {
    expect('"');
    Value out;
    out.kind = Value::String;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        c = peek();
        ++pos_;
        if (c == 'n') c = '\n';
      }
      out.string += c;
    }
    ++pos_;
    return out;
  }
  Value array() {
    expect('[');
    Value out;
    out.kind = Value::Array;
    skip_ws();
    if (peek() == ']') { ++pos_; return out; }
    while (true) {
      out.items.push_back(value());
      skip_ws();
      if (peek() == ']') { ++pos_; return out; }
      expect(',');
    }
  }
  Value object() {
    expect('{');
    Value out;
    out.kind = Value::Object;
    skip_ws();
    if (peek() == '}') { ++pos_; return out; }
    while (true) {
      skip_ws();
      const std::string key = string_value().string;
      skip_ws();
      expect(':');
      out.members[key] = value();
      skip_ws();
      if (peek() == '}') { ++pos_; return out; }
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ObsPerfetto, ExportRoundTripsThroughJsonParser) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 2000;
  obs::PerfettoExporter::Options options;
  options.compute_nodes = cfg.nodes;
  obs::PerfettoExporter exporter(options);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&exporter);
  const system::RunMetrics m = run.run();
  ASSERT_GT(exporter.captured(), 0u);
  EXPECT_EQ(exporter.dropped(), 0u);

  std::ostringstream os;
  exporter.write(os);
  const JsonParser::Value doc = JsonParser::parse(os.str());

  ASSERT_EQ(doc.kind, JsonParser::Value::Object);
  ASSERT_EQ(doc.members.at("displayTimeUnit").string, "ms");
  const auto& events = doc.members.at("traceEvents");
  ASSERT_EQ(events.kind, JsonParser::Value::Array);
  ASSERT_GT(events.items.size(), exporter.captured());

  std::size_t slices = 0, spans_b = 0, spans_e = 0, instants = 0, meta = 0;
  std::size_t flow_s = 0, flow_f = 0;
  for (const auto& e : events.items) {
    ASSERT_EQ(e.kind, JsonParser::Value::Object);
    const std::string& ph = e.members.at("ph").string;
    if (ph == "X") {
      ++slices;
      EXPECT_GE(e.members.at("dur").number, 0.0);
      EXPECT_TRUE(std::isfinite(e.members.at("ts").number));
    } else if (ph == "b") {
      ++spans_b;
    } else if (ph == "e") {
      ++spans_e;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M") {
      ++meta;
    } else if (ph == "s") {
      ++flow_s;
    } else if (ph == "f") {
      ++flow_f;
    }
  }
  EXPECT_EQ(slices, exporter.captured());
  EXPECT_GT(spans_b, 0u);
  EXPECT_EQ(spans_b, spans_e);    // every async span is closed
  EXPECT_EQ(flow_s, flow_f);      // every flow chain terminates
  EXPECT_GE(meta, 2u);            // both process_name records
  // Misses happened in this window, so instants must be present.
  ASSERT_GT(m.global.missed.hits(), 0u);
  EXPECT_GT(instants, 0u);
}

TEST(ObsPerfetto, RespectsCaptureWindowAndCap) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 2000;
  obs::PerfettoExporter::Options options;
  options.from = 500;
  options.to = 1000;
  options.max_records = 100;
  obs::PerfettoExporter exporter(options);
  system::SimulationRun run(cfg, 0);
  run.set_observer(&exporter);
  run.run();
  EXPECT_LE(exporter.captured(), 100u);
  EXPECT_GT(exporter.dropped(), 0u);  // dense run overflows a 100-slice cap
}

TEST(ObsPerfetto, WriteFileFailsOnBadPath) {
  obs::PerfettoExporter exporter;
  EXPECT_THROW(exporter.write_file("/nonexistent_dir_zz/trace.json"),
               std::runtime_error);
}

// -------------------------------------------------------------------- tee

TEST(ObsTee, FansOutToAllSinksInOrder) {
  struct Counting final : system::Observer {
    int finished = 0;
    void on_global_finished(core::TaskId, sim::Time, bool) override {
      ++finished;
    }
  };
  Counting a, b;
  obs::ObserverTee tee;
  EXPECT_TRUE(tee.attach(&a));
  EXPECT_TRUE(tee.attach(&b));
  EXPECT_TRUE(tee.attach(nullptr));  // ignored
  EXPECT_EQ(tee.size(), 2u);
  tee.on_global_finished(1, 0.0, false);
  EXPECT_EQ(a.finished, 1);
  EXPECT_EQ(b.finished, 1);

  Counting extra[obs::ObserverTee::kMaxSinks];
  obs::ObserverTee full;
  for (auto& sink : extra) ASSERT_TRUE(full.attach(&sink));
  EXPECT_FALSE(full.attach(&a));  // at capacity
}

}  // namespace
