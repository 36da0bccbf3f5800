// Dispatch-time placement: PlacementSpec parsing/registry, the policy
// semantics (static = seed draw, jsq = minimal backlog with deterministic
// tie rotation), the TaskInstance placement engine (eligible sets,
// distinct-site constraint for parallel groups), shape-level RNG
// equivalence of deferred generation, fuzz over random trees x frozen load
// states, and system-level determinism/differential properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>
#include <span>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/engine/sweep.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/shapes.hpp"

namespace {

using namespace dsrt;
using namespace dsrt::core;
using dsrt::sim::Rng;

/// Test double: a frozen per-node load state (no accounts, no decay).
class FixedLoadModel final : public LoadModel {
 public:
  explicit FixedLoadModel(std::vector<NodeLoad> loads)
      : loads_(std::move(loads)) {}
  NodeLoad load(NodeId node, sim::Time) const override {
    return node < loads_.size() ? loads_[node] : NodeLoad{};
  }
  std::string_view name() const override { return "fixed"; }

 private:
  std::vector<NodeLoad> loads_;
};

FixedLoadModel backlogs(std::vector<double> queued) {
  std::vector<NodeLoad> loads(queued.size());
  for (std::size_t i = 0; i < queued.size(); ++i)
    loads[i].queued_pex = queued[i];
  return FixedLoadModel(std::move(loads));
}

// --- PlacementSpec / registry ---------------------------------------------

TEST(PlacementSpec, ParseRoundTripsAndRejectsJunk) {
  EXPECT_EQ(PlacementSpec::parse("static").kind, PlacementKind::Static);
  EXPECT_EQ(PlacementSpec::parse("jsq-pex").kind, PlacementKind::JsqPex);
  EXPECT_EQ(PlacementSpec::parse("jsq-util").kind, PlacementKind::JsqUtil);
  for (const auto name : placement_names()) {
    // Every registered name parses, and describe() round-trips through
    // parse to an equivalent spec (pod prints its d: "pod" -> "pod:2").
    const auto spec = PlacementSpec::parse(name);
    const auto again = PlacementSpec::parse(spec.describe());
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.d, spec.d);
    EXPECT_EQ(again.describe(), spec.describe());
  }
  EXPECT_THROW(PlacementSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("jsq"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("random"), std::invalid_argument);
  // Only pod is parameterized; a suffixed token elsewhere must not
  // half-apply.
  EXPECT_THROW(PlacementSpec::parse("jsq-pex:junk"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("static:1"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("jsq-pex:"), std::invalid_argument);
}

TEST(PlacementSpec, PodParsesItsSampleCountStrictly) {
  EXPECT_EQ(PlacementSpec::parse("pod").kind, PlacementKind::PowerOfD);
  EXPECT_EQ(PlacementSpec::parse("pod").d, 2u);  // Mitzenmacher default
  EXPECT_EQ(PlacementSpec::parse("pod:3").d, 3u);
  EXPECT_EQ(PlacementSpec::parse("pod:1").d, 1u);  // degenerate: random
  EXPECT_EQ(PlacementSpec::parse("pod:1024").d, 1024u);
  EXPECT_EQ(PlacementSpec::parse("pod:3").describe(), "pod:3");
  // Strict: a malformed d must never silently run with the default.
  EXPECT_THROW(PlacementSpec::parse("pod:"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:0"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:-2"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:junk"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:2.5"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:1025"), std::invalid_argument);
  EXPECT_THROW(PlacementSpec::parse("pod:1e9"), std::invalid_argument);
}

TEST(PlacementSpec, FactoryMatchesRegistryNames) {
  for (const auto name : placement_names()) {
    const auto policy = make_placement(PlacementSpec::parse(name));
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(LoadModelSpec, RejectsEmptyParameterAfterColon) {
  // Satellite hardening: a trailing colon must not silently run with the
  // default period.
  EXPECT_THROW(LoadModelSpec::parse("sampled:"), std::invalid_argument);
  EXPECT_THROW(LoadModelSpec::parse("stale:"), std::invalid_argument);
  EXPECT_THROW(LoadModelSpec::parse("exact:"), std::invalid_argument);
  EXPECT_THROW(LoadModelSpec::parse("none:"), std::invalid_argument);
}

// --- Policy semantics -----------------------------------------------------

TEST(StaticPlacement, ReturnsTheSeedHint) {
  const StaticPlacement policy;
  const std::vector<NodeId> candidates = {2, 4, 5};
  PlacementContext ctx;
  ctx.hint = 4;
  EXPECT_EQ(policy.place(ctx, candidates), 4u);
  // Hand-built specs without a usable hint fall back deterministically.
  ctx.hint = 9;
  EXPECT_EQ(policy.place(ctx, candidates), 2u);
  EXPECT_THROW(policy.place(ctx, {}), std::invalid_argument);
}

TEST(JsqPlacement, PicksMinimalBacklogNode) {
  const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
  const FixedLoadModel model = backlogs({5.0, 0.5, 3.0, 0.75});
  PlacementContext ctx;
  ctx.load = &model;
  const std::vector<NodeId> candidates = {0, 1, 2, 3};
  EXPECT_EQ(policy.place(ctx, candidates), 1u);
  // Excluding the minimum (a taken sibling) moves to the runner-up.
  const std::vector<NodeId> without_min = {0, 2, 3};
  EXPECT_EQ(policy.place(ctx, without_min), 3u);
}

TEST(JsqPlacement, UtilKeyReadsTheEwma) {
  const JsqPlacement policy(JsqPlacement::Key::Utilization);
  std::vector<NodeLoad> loads(3);
  loads[0] = {0.0, 0.9, 0};  // empty queue but hot server
  loads[1] = {9.0, 0.2, 4};  // deep queue, cool EWMA
  loads[2] = {1.0, 0.5, 1};
  const FixedLoadModel model(std::move(loads));
  PlacementContext ctx;
  ctx.load = &model;
  const std::vector<NodeId> candidates = {0, 1, 2};
  EXPECT_EQ(policy.place(ctx, candidates), 1u);
}

TEST(JsqPlacement, TiesRotateDeterministically) {
  // All keys equal (idle board / no board): placements must round-robin
  // through the tied candidates rather than pile onto the first.
  const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
  PlacementContext ctx;  // no load model: every key is zero
  const std::vector<NodeId> candidates = {3, 5, 7};
  std::vector<NodeId> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy.place(ctx, candidates));
  EXPECT_EQ(picks, (std::vector<NodeId>{3, 5, 7, 3, 5, 7}));
  EXPECT_EQ(policy.decisions(), 6u);
}

// --- pod:d (power-of-d-choices) -------------------------------------------

TEST(PodPlacement, FollowsTheDocumentedDrawOrderExactly) {
  // The draw-order contract is API: exactly d calls to rng.below(n - j)
  // (a partial Fisher-Yates over the identity permutation), argmin queued-pex among the d sampled candidates with
  // first-in-draw-order winning ties. A mirror rng replays the documented
  // sequence and must predict every single decision.
  const FixedLoadModel model = backlogs({5.0, 1.0, 4.0, 2.0, 9.0, 0.5, 7.0,
                                         3.0});
  PodPlacement policy(2, Rng(99, kPlacementRngStream));
  Rng mirror(99, kPlacementRngStream);
  PlacementContext ctx;
  ctx.load = &model;
  const std::vector<NodeId> candidates = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int decision = 0; decision < 500; ++decision) {
    std::vector<std::uint32_t> idx(candidates.size());
    for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    NodeId expected = candidates[0];
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t j = 0; j < 2; ++j) {
      const auto r = j + static_cast<std::uint32_t>(
                             mirror.below(candidates.size() - j));
      std::swap(idx[j], idx[r]);
      const NodeId node = candidates[idx[j]];
      const double key = model.load(node, 0.0).queued_pex;
      if (key < best) {
        best = key;
        expected = node;
      }
    }
    EXPECT_EQ(policy.place(ctx, candidates), expected) << decision;
  }
  EXPECT_EQ(policy.counters().decisions, 500u);
}

TEST(PodPlacement, SmallCandidateSetsAreExhaustiveAndDrawNothing) {
  // n <= d degenerates to a full argmin scan with ZERO rng draws — the
  // mirror below stays in lockstep across the small decisions, proving no
  // entropy was consumed by them.
  const FixedLoadModel model = backlogs({5.0, 1.0, 4.0, 2.0, 9.0, 0.5, 7.0,
                                         3.0});
  PodPlacement policy(4, Rng(31, kPlacementRngStream));
  Rng mirror(31, kPlacementRngStream);
  PlacementContext ctx;
  ctx.load = &model;
  const std::vector<NodeId> small = {0, 2, 3};  // n=3 <= d=4
  for (int i = 0; i < 10; ++i) EXPECT_EQ(policy.place(ctx, small), 3u);
  // Now a big set: the policy's first real draws must match a fresh mirror
  // of the documented sequence.
  const std::vector<NodeId> big = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::uint32_t> idx(big.size());
  for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  NodeId expected = big[0];
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t j = 0; j < 4; ++j) {
    const auto r =
        j + static_cast<std::uint32_t>(mirror.below(big.size() - j));
    std::swap(idx[j], idx[r]);
    const double key = model.load(big[idx[j]], 0.0).queued_pex;
    if (key < best) {
      best = key;
      expected = big[idx[j]];
    }
  }
  EXPECT_EQ(policy.place(ctx, big), expected);
}

TEST(PodPlacement, IdleBoardTiesKeepTheFirstSample) {
  // No load model: every key reads zero, so the first drawn candidate
  // wins every tie (deterministic given the rng stream).
  PodPlacement policy(3, Rng(12, kPlacementRngStream));
  Rng mirror(12, kPlacementRngStream);
  PlacementContext ctx;  // ctx.load == nullptr
  const std::vector<NodeId> candidates = {4, 5, 6, 7, 8};
  for (int i = 0; i < 100; ++i) {
    const auto first = static_cast<std::uint32_t>(mirror.below(5));
    mirror.below(4);  // remaining draws happen but cannot win a tie
    mirror.below(3);
    EXPECT_EQ(policy.place(ctx, candidates), candidates[first]) << i;
  }
  EXPECT_THROW(policy.place(ctx, {}), std::invalid_argument);
}

// --- Candidate views against a materialized reference ---------------------

/// Forwards load() only, like a tracing decorator: it exposes no index, so
/// jsq-pex takes the scan even over an interval.
class ForwardingLoadModel final : public LoadModel {
 public:
  explicit ForwardingLoadModel(const LoadModel& inner) : inner_(inner) {}
  NodeLoad load(NodeId node, sim::Time now) const override {
    return inner_.load(node, now);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  const LoadModel& inner_;
};

/// One random decision: a candidate view and its materialized twin.
struct RandomDecision {
  std::vector<NodeId> list;  ///< backing store of an explicit set
  EligibleSet set;
  std::vector<std::uint32_t> skipped;  ///< positions the view excludes
  std::vector<NodeId> reference;       ///< set minus skipped, as a list
  NodeId hint = 0;
};

RandomDecision random_decision(Rng& rng, std::size_t k) {
  RandomDecision d;
  if (rng.uniform01() < 0.7) {
    // An interval; it may run a little past the board, whose missing
    // nodes read as idle.
    const auto first = static_cast<NodeId>(rng.below(k));
    const auto count =
        static_cast<std::uint32_t>(1 + rng.below(k + 4 - first));
    d.set = EligibleSet::range(first, count);
  } else {
    d.list = workload::sample_distinct_nodes(
        k, 1 + rng.below(std::min<std::size_t>(k, 24)), rng);
    d.set = EligibleSet::list(d.list);
  }
  // Up to five taken positions, never the whole set.
  const std::size_t max_taken = std::min<std::size_t>(5, d.set.size() - 1);
  for (const NodeId p : workload::sample_distinct_nodes(
           d.set.size(), rng.below(max_taken + 1), rng))
    d.skipped.push_back(p);
  std::sort(d.skipped.begin(), d.skipped.end());
  for (std::uint32_t i = 0; i < d.set.size(); ++i)
    if (!std::binary_search(d.skipped.begin(), d.skipped.end(), i))
      d.reference.push_back(d.set[i]);
  d.hint = rng.uniform01() < 0.8
               ? d.set[rng.below(d.set.size())]
               : static_cast<NodeId>(rng.below(k + 4));
  return d;
}

/// Writes a few accounts, one kind of write each (so the index must follow
/// every kind). Backlogs move in a few exact steps and removals clamp at
/// zero, so exact ties and zeros abound; some nodes go down, and now and
/// then the whole board does (the +inf minimum the index leaves to the
/// scan).
/// Up to `max_writes` random account writes (or, rarely, every node down).
void scramble(LoadBoard& board, Rng& rng, sim::Time now,
              std::size_t max_writes = 6) {
  static constexpr double kSteps[] = {0.5, 1.0, 2.0};
  if (rng.uniform01() < 0.03) {
    for (std::size_t i = 0; i < board.size(); ++i) board[i].set_down(true);
    return;
  }
  const std::size_t writes = 1 + rng.below(max_writes);
  for (std::size_t w = 0; w < writes; ++w) {
    LoadAccount& acct = board[rng.below(board.size())];
    const double step = kSteps[rng.below(3)];
    switch (rng.below(4)) {
      case 0: acct.add_backlog(step); break;
      case 1:
      case 2: acct.remove_backlog(step); break;
      default: acct.set_down(rng.uniform01() < 0.3); break;
    }
    acct.set_busy(now, rng.uniform01() < 0.5);
  }
}

void expect_same_state(const PlacementPolicy& view,
                       const PlacementPolicy& ref) {
  EXPECT_EQ(view.counters().decisions, ref.counters().decisions);
  EXPECT_EQ(view.counters().exact_ties, ref.counters().exact_ties);
  EXPECT_EQ(view.counters().hint_fallbacks, ref.counters().hint_fallbacks);
  if (const auto* jsq = dynamic_cast<const JsqPlacement*>(&view))
    EXPECT_EQ(jsq->decisions(),
              dynamic_cast<const JsqPlacement&>(ref).decisions());
  if (const auto* pod = dynamic_cast<const PodPlacement*>(&view)) {
    Rng a = pod->rng();
    Rng b = dynamic_cast<const PodPlacement&>(ref).rng();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b());
  }
}

TEST(CandidateView, EveryPolicyMatchesTheMaterializedReference) {
  // The view path (interval / list minus skipped positions; jsq-pex via the
  // board's index when the model exposes one) must choose the node the
  // plain span path chooses, and leave the same counters and rng state.
  enum Model { kExact, kForwarding, kNone };
  std::uint64_t indexed = 0, zero_answers = 0, tree_answers = 0;
  for (const std::size_t k : {1u, 2u, 7u, 64u, 300u, 1024u}) {
    for (const char* name :
         {"static", "jsq-pex", "jsq-util", "pod:1", "pod:2", "pod:3",
          "pod:8"}) {
      for (const Model variant : {kExact, kForwarding, kNone}) {
        SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k) +
                     " model=" + std::to_string(variant));
        Rng rng(k * 131 + variant);
        LoadBoard board(k);
        for (std::size_t i = 0; i < k; ++i) board[i].configure(5.0, 0.0);
        const ExactLoadModel exact(board);
        const ForwardingLoadModel forwarding(exact);
        const LoadModel* model = nullptr;
        if (variant == kExact) model = &exact;
        if (variant == kForwarding) model = &forwarding;
        const auto spec = PlacementSpec::parse(name);
        const PlacementPolicyPtr view = make_placement(spec, 17);
        const PlacementPolicyPtr ref = make_placement(spec, 17);
        for (int step = 0; step < 400; ++step) {
          const sim::Time now = step;
          // Every 20th step is a burst of up to 200 writes, so the
          // index meets many dirty leaves between two decisions.
          scramble(board, rng, now, step % 20 == 19 ? 200 : 6);
          const RandomDecision d = random_decision(rng, k);
          PlacementContext ctx;
          ctx.now = now;
          ctx.load = model;
          ctx.hint = d.hint;
          const std::uint64_t reads0 = exact.reads();
          const NodeId got =
              view->place_among(ctx, Candidates(d.set, d.skipped));
          const std::uint64_t reads1 = exact.reads();
          const NodeId want = ref->place(ctx, d.reference);
          ASSERT_EQ(got, want) << "step " << step;
          if (variant == kExact && reads1 - reads0 == 1 &&
              exact.reads() - reads1 > 1)
            ++indexed;
          expect_same_state(*view, *ref);
        }
        if (const auto* jsq = dynamic_cast<const JsqPlacement*>(view.get())) {
          zero_answers += jsq->index_counters().zero_answers;
          tree_answers += jsq->index_counters().tree_answers;
        }
      }
    }
  }
  // The index path really ran (jsq-pex over intervals of the exact model),
  // and both its zero class and its tree answered.
  EXPECT_GT(indexed, 200u);
  EXPECT_GE(zero_answers + tree_answers, indexed);
  EXPECT_GT(zero_answers, 100u);
  EXPECT_GT(tree_answers, 100u);
}

TEST(CandidateView, IndexesSkipAndContainPositions) {
  const std::vector<std::uint32_t> skipped = {0, 2, 3};
  const Candidates range(EligibleSet::range(10, 6), skipped);
  EXPECT_EQ(range.size(), 3u);
  EXPECT_EQ(std::vector<NodeId>(range.begin(), range.end()),
            (std::vector<NodeId>{11, 14, 15}));
  for (std::size_t i = 0; i < range.size(); ++i)
    EXPECT_EQ(range[i], (std::vector<NodeId>{11, 14, 15})[i]);
  EXPECT_TRUE(range.contains(14));
  EXPECT_FALSE(range.contains(12));
  EXPECT_FALSE(range.contains(16));
  const std::vector<NodeId> ids = {8, 3, 5, 1};
  const std::vector<std::uint32_t> skip_second = {1};
  const Candidates list(EligibleSet::list(ids), skip_second);
  EXPECT_EQ(std::vector<NodeId>(list.begin(), list.end()),
            (std::vector<NodeId>{8, 5, 1}));
  EXPECT_EQ(list[2], 1u);
  EXPECT_FALSE(list.contains(3));
  EXPECT_TRUE(list.contains(8));
}

/// Reference: a dense partial Fisher-Yates over an iota of all nodes.
std::vector<NodeId> dense_sample(std::size_t nodes, std::size_t count,
                                 Rng& rng) {
  std::vector<NodeId> all(nodes);
  for (std::size_t i = 0; i < nodes; ++i) all[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(nodes - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

TEST(SampleDistinctNodes, SparseShuffleMatchesTheDenseReference) {
  std::vector<NodeId> out;
  for (const std::size_t nodes : {1u, 2u, 3u, 6u, 17u, 64u, 1000u, 4096u}) {
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{5},
          nodes / 2, nodes}) {
      if (count > nodes) continue;
      for (const std::uint64_t seed : {1ull, 9ull, 90210ull}) {
        Rng sparse(seed), dense(seed);
        workload::sample_distinct_nodes_into(nodes, count, sparse, out);
        EXPECT_EQ(out, dense_sample(nodes, count, dense))
            << nodes << " " << count << " " << seed;
        EXPECT_EQ(sparse(), dense());  // the same draws were consumed
      }
    }
  }
}

// --- TaskSpec eligible sets -----------------------------------------------

TEST(TaskSpecPlacement, SimpleAmongValidatesAndPrints) {
  const TaskSpec leaf = TaskSpec::simple_among(2, {0, 1, 2, 3}, 1.5, 1.25);
  EXPECT_TRUE(leaf.placeable());
  EXPECT_EQ(leaf.node(), 2u);
  EXPECT_EQ(leaf.eligible().size(), 4u);
  EXPECT_DOUBLE_EQ(leaf.exec(), 1.5);
  EXPECT_DOUBLE_EQ(leaf.pex(), 1.25);
  EXPECT_EQ(leaf.to_string(), "T@2*");
  // Bound leaves are the degenerate case.
  const TaskSpec bound = TaskSpec::simple(2, 1.5);
  EXPECT_FALSE(bound.placeable());
  EXPECT_TRUE(bound.eligible().empty());
  EXPECT_EQ(bound.to_string(), "T@2");
  EXPECT_THROW(TaskSpec::simple_among(2, {}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(TaskSpec::simple_among(9, {0, 1}, 1.0, 1.0),
               std::invalid_argument);
}

// --- Deferred generation: seed-stream equivalence -------------------------

std::vector<NodeId> to_vec(const dsrt::core::EligibleSet& s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

void expect_same_structure(const SpecView bound, const SpecView deferred,
                           bool expect_placeable) {
  ASSERT_EQ(bound.kind(), deferred.kind());
  if (bound.is_simple()) {
    // The deferred arm consumes the *same* RNG draws: identical hint node,
    // execution time, and prediction, bit for bit.
    EXPECT_EQ(bound.node(), deferred.node());
    EXPECT_EQ(bound.exec(), deferred.exec());
    EXPECT_EQ(bound.pex(), deferred.pex());
    EXPECT_EQ(deferred.placeable(), expect_placeable);
    return;
  }
  ASSERT_EQ(bound.children().size(), deferred.children().size());
  for (std::size_t i = 0; i < bound.children().size(); ++i)
    expect_same_structure(bound.children()[i], deferred.children()[i],
                          expect_placeable);
}

TEST(DeferredShapes, SerialDeferMatchesSeedDrawBitForBit) {
  const auto dist = sim::exponential(1.0);
  const auto pex = workload::make_perfect_prediction();
  for (std::uint64_t seed : {1ull, 42ull, 20260730ull}) {
    Rng bound_rng(seed), deferred_rng(seed);
    const TaskSpec bound =
        workload::make_serial_task(5, 6, *dist, *pex, bound_rng);
    const TaskSpec deferred =
        workload::make_serial_task(5, 6, *dist, *pex, deferred_rng, true);
    expect_same_structure(bound.root(), deferred.root(), true);
    // Serial stages may run anywhere: eligible = all compute nodes.
    for (const SpecView leaf : deferred.children())
      EXPECT_EQ(to_vec(leaf.eligible()),
                (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
    // The generators left both streams in the same state.
    EXPECT_EQ(bound_rng(), deferred_rng());
  }
}

TEST(DeferredShapes, ParallelAndCommShapesCarryTheRightEligibleSets) {
  const auto dist = sim::exponential(1.0);
  const auto comm = sim::exponential(0.25);
  const auto pex = workload::make_perfect_prediction();
  Rng a(7), b(7);
  const TaskSpec bound = workload::make_parallel_task(4, 6, *dist, *pex, a);
  const TaskSpec deferred =
      workload::make_parallel_task(4, 6, *dist, *pex, b, true);
  expect_same_structure(bound.root(), deferred.root(), true);
  // Hints keep the generator's distinct draw.
  std::set<NodeId> hints;
  for (const SpecView leaf : deferred.children()) hints.insert(leaf.node());
  EXPECT_EQ(hints.size(), 4u);

  Rng c(7), d(7);
  const TaskSpec sp_bound = workload::make_serial_parallel_task_with_comm(
      {}, 6, 2, *dist, *comm, *pex, c);
  const TaskSpec sp_deferred = workload::make_serial_parallel_task_with_comm(
      {}, 6, 2, *dist, *comm, *pex, d, true);
  expect_same_structure(sp_bound.root(), sp_deferred.root(), true);
  // Transmission stages are placeable among the link nodes only.
  for (const SpecView stage : sp_deferred.children()) {
    if (stage.is_simple() && stage.node() >= 6)
      EXPECT_EQ(to_vec(stage.eligible()), (std::vector<NodeId>{6, 7}));
  }
}

// --- TaskInstance placement engine ----------------------------------------

std::vector<LeafSubmission> drain_instance(TaskInstance& inst) {
  std::vector<LeafSubmission> all, ready;
  inst.start(0.0, ready);
  double now = 0;
  while (!ready.empty()) {
    const LeafSubmission sub = ready.front();
    ready.erase(ready.begin());
    all.push_back(sub);
    now += 0.25;
    std::vector<LeafSubmission> next;
    inst.on_leaf_complete(sub.leaf, now, next);
    ready.insert(ready.end(), next.begin(), next.end());
  }
  return all;
}

TEST(TaskInstancePlacement, SerialStagesLandOnTheArgminBacklog) {
  // Frozen board: node 3 is the unique minimum among {0..5}.
  const FixedLoadModel model = backlogs({4.0, 2.0, 3.0, 0.5, 6.0, 1.0});
  const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
  std::vector<TaskSpec> stages;
  for (int i = 0; i < 3; ++i)
    stages.push_back(TaskSpec::simple_among(0, {0, 1, 2, 3, 4, 5}, 1.0, 1.0));
  TaskSpec spec = TaskSpec::serial(std::move(stages));
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud(),
                    &model, &policy);
  const auto subs = drain_instance(inst);
  ASSERT_EQ(subs.size(), 3u);
  // Serial stages place alone — each lands on the global minimum.
  for (const auto& sub : subs) EXPECT_EQ(sub.node, 3u);
}

TEST(TaskInstancePlacement, ParallelGroupTakesTheSmallestBacklogsDistinctly) {
  const FixedLoadModel model = backlogs({4.0, 2.0, 3.0, 0.5, 6.0, 1.0});
  const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
  std::vector<TaskSpec> group;
  for (int i = 0; i < 3; ++i)
    group.push_back(TaskSpec::simple_among(0, {0, 1, 2, 3, 4, 5}, 1.0, 1.0));
  TaskSpec spec = TaskSpec::parallel(std::move(group));
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud(),
                    &model, &policy);
  std::vector<LeafSubmission> ready;
  inst.start(0.0, ready);
  ASSERT_EQ(ready.size(), 3u);
  std::set<NodeId> nodes;
  for (const auto& sub : ready) nodes.insert(sub.node);
  // Distinct sites, and exactly the three shortest queues {3, 5, 1}.
  EXPECT_EQ(nodes, (std::set<NodeId>{1, 3, 5}));
}

TEST(TaskInstancePlacement, MixedGroupExcludesBoundSiblings) {
  // A bound sibling pins node 3 (the global minimum); the placeable
  // sibling must settle for the runner-up.
  const FixedLoadModel model = backlogs({4.0, 2.0, 3.0, 0.5, 6.0, 1.0});
  const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
  std::vector<TaskSpec> group;
  group.push_back(TaskSpec::simple(3, 1.0));
  group.push_back(TaskSpec::simple_among(0, {0, 1, 2, 3, 4, 5}, 1.0, 1.0));
  TaskSpec spec = TaskSpec::parallel(std::move(group));
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud(),
                    &model, &policy);
  std::vector<LeafSubmission> ready;
  inst.start(0.0, ready);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].node, 3u);
  EXPECT_EQ(ready[1].node, 5u);
}

TEST(TaskInstancePlacement, NoPolicyKeepsTheHint) {
  TaskSpec spec = TaskSpec::serial(
      {TaskSpec::simple_among(4, {0, 1, 2, 3, 4, 5}, 1.0, 1.0),
       TaskSpec::simple_among(2, {0, 1, 2, 3, 4, 5}, 1.0, 1.0)});
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud());
  const auto subs = drain_instance(inst);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].node, 4u);
  EXPECT_EQ(subs[1].node, 2u);
}

// --- Costs that must not grow with k ----------------------------------------

TEST(PlacementCost, DeferredK4096SpecsKeepAnEmptyEligiblePool) {
  const auto dist = sim::exponential(1.0);
  const auto pex = workload::make_perfect_prediction();
  workload::SerialParallelShape shape;
  shape.parallel_prob = 1.0;
  shape.parallel_width = 8;
  Rng rng(5);
  const TaskSpec spec = workload::make_serial_parallel_task(
      shape, 4096, *dist, *pex, rng, true);
  EXPECT_TRUE(spec.eligible_pool().empty());
  for (const SpecVertex& vx : spec.vertices()) {
    if (vx.kind != SpecKind::Simple) continue;
    EXPECT_TRUE(spec.eligible_of(vx).is_range());
    EXPECT_EQ(spec.eligible_of(vx).size(), 4096u);
  }
}

TEST(PlacementCost, ExactBoardReadsPerDecisionDoNotGrowWithK) {
  // N decisions over all 4096 nodes of an exact board: jsq-pex asks its
  // index once per decision, pod:2 reads its two samples.
  constexpr std::size_t kNodes = 4096;
  constexpr std::uint32_t kStages = 64;
  LoadBoard board(kNodes);
  Rng rng(3);
  for (std::size_t i = 0; i < kNodes; ++i) {
    board[i].configure(5.0, 0.0);
    board[i].add_backlog(static_cast<double>(rng.below(4)));
  }
  const ExactLoadModel exact(board);
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.begin_serial();
  for (std::uint32_t i = 0; i < kStages; ++i)
    b.leaf_among(static_cast<NodeId>(i), 0, kNodes, 1.0, 1.0);
  b.end();
  b.finish();
  for (const auto& [name, per_decision] :
       {std::pair<const char*, std::uint64_t>{"jsq-pex", 1},
        std::pair<const char*, std::uint64_t>{"pod:2", 2}}) {
    SCOPED_TRACE(name);
    const PlacementPolicyPtr policy =
        make_placement(PlacementSpec::parse(name), 11);
    TaskInstance inst(1, spec, 0.0, 1e9, make_ud(), make_parallel_ud(),
                      &exact, policy.get());
    const std::uint64_t before = exact.reads();
    EXPECT_EQ(drain_instance(inst).size(), kStages);
    EXPECT_EQ(exact.reads() - before, per_decision * kStages);
    EXPECT_EQ(policy->counters().decisions, kStages);
  }
}

// --- Fuzz: random trees x frozen load states ------------------------------

/// Random serial-parallel tree whose leaves are a mix of bound and
/// placeable (eligible = all of [0, nodes)). Hints mirror the generator's
/// invariant: direct leaf children of a parallel group get *distinct*
/// hints (the shapes draw them via sample_distinct_nodes), so static
/// placement of a deferred tree can always honor every hint.
TaskSpec random_placeable_tree(Rng& rng, int max_depth, std::size_t nodes,
                               NodeId hint) {
  if (max_depth <= 1 || rng.uniform01() < 0.4) {
    const double exec = rng.exponential(1.0);
    if (rng.uniform01() < 0.7) {
      std::vector<NodeId> eligible(nodes);
      for (std::size_t i = 0; i < nodes; ++i)
        eligible[i] = static_cast<NodeId>(i);
      return TaskSpec::simple_among(hint, std::move(eligible), exec, exec);
    }
    return TaskSpec::simple(hint, exec);
  }
  const std::size_t width = 2 + rng.below(3);
  const bool parallel = rng.uniform01() < 0.5;
  // Parallel groups hand distinct hints to their children (only used when
  // the child turns out to be a leaf); serial stages draw freely.
  const std::vector<NodeId> hints =
      parallel ? workload::sample_distinct_nodes(nodes, width, rng)
               : std::vector<NodeId>{};
  std::vector<TaskSpec> children;
  children.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    const NodeId child_hint =
        parallel ? hints[i] : static_cast<NodeId>(rng.below(nodes));
    children.push_back(
        random_placeable_tree(rng, max_depth - 1, nodes, child_hint));
  }
  return parallel ? TaskSpec::parallel(std::move(children))
                  : TaskSpec::serial(std::move(children));
}

TaskSpec random_placeable_tree(Rng& rng, int max_depth, std::size_t nodes) {
  return random_placeable_tree(rng, max_depth, nodes,
                               static_cast<NodeId>(rng.below(nodes)));
}

/// Collects the hint node of every leaf, depth-first (submission id order).
void collect_hints(const SpecView spec, std::vector<NodeId>& out) {
  if (spec.is_simple()) {
    out.push_back(spec.node());
    return;
  }
  for (const SpecView child : spec.children()) collect_hints(child, out);
}

TEST(PlacementFuzz, RandomTreesRespectEligibilityAndDistinctSites) {
  Rng rng(20260730);
  const std::size_t nodes = 8;
  for (int trial = 0; trial < 400; ++trial) {
    const TaskSpec spec = random_placeable_tree(rng, 4, nodes);
    std::vector<NodeLoad> loads(nodes);
    for (auto& load : loads) {
      load.queued_pex = rng.uniform01() < 0.25 ? 0.0 : rng.exponential(4.0);
      load.utilization = rng.uniform01();
    }
    const FixedLoadModel model(loads);
    const JsqPlacement policy(trial % 2 == 0
                                  ? JsqPlacement::Key::QueuedPex
                                  : JsqPlacement::Key::Utilization);
    TaskInstance inst(static_cast<TaskId>(trial), spec, 0.0,
                      spec.critical_path_exec() + 5.0, make_eqs(),
                      parallel_strategy_by_name("DIV1"), &model, &policy);

    std::vector<LeafSubmission> ready;
    inst.start(0.0, ready);
    double now = 0;
    std::size_t completions = 0;
    while (!ready.empty()) {
      // Every resolved binding is a real node, and all deadlines stay
      // finite however skewed the frozen board is.
      for (const auto& sub : ready) {
        EXPECT_LT(sub.node, nodes);
        EXPECT_TRUE(std::isfinite(sub.deadline));
      }
      const LeafSubmission sub = ready.front();
      ready.erase(ready.begin());
      now += rng.exponential(0.3);
      std::vector<LeafSubmission> next;
      inst.on_leaf_complete(sub.leaf, now, next);
      ++completions;
      ready.insert(ready.end(), next.begin(), next.end());
    }
    EXPECT_EQ(completions, spec.leaf_count());
    EXPECT_EQ(inst.state(), InstanceState::Completed);
  }
}

TEST(PlacementFuzz, ParallelGroupsOfPlaceableLeavesAreDistinct) {
  // Direct check of the distinct-site constraint: pure parallel groups of
  // placeable leaves over random frozen boards.
  Rng rng(424242);
  const std::size_t nodes = 8;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t width = 2 + rng.below(6);  // up to 7 <= 8 nodes
    std::vector<TaskSpec> group;
    for (std::size_t i = 0; i < width; ++i) {
      std::vector<NodeId> eligible(nodes);
      for (std::size_t n = 0; n < nodes; ++n)
        eligible[n] = static_cast<NodeId>(n);
      group.push_back(TaskSpec::simple_among(
          static_cast<NodeId>(rng.below(nodes)), std::move(eligible),
          rng.exponential(1.0), rng.exponential(1.0)));
    }
    std::vector<NodeLoad> loads(nodes);
    for (auto& load : loads) load.queued_pex = rng.exponential(3.0);
    const FixedLoadModel model(loads);
    const JsqPlacement policy(JsqPlacement::Key::QueuedPex);
    TaskSpec spec = TaskSpec::parallel(std::move(group));
    TaskInstance inst(1, spec, 0.0, 100.0, make_ud(), make_parallel_ud(),
                      &model, &policy);
    std::vector<LeafSubmission> ready;
    inst.start(0.0, ready);
    ASSERT_EQ(ready.size(), width);
    std::set<NodeId> sites;
    double worst_taken = 0;
    for (const auto& sub : ready) {
      sites.insert(sub.node);
      worst_taken = std::max(worst_taken,
                             model.load(sub.node, 0.0).queued_pex);
    }
    EXPECT_EQ(sites.size(), width) << "distinct-site violation";
    // jsq takes the `width` smallest backlogs: every unused node's backlog
    // is >= the worst one taken.
    for (std::size_t n = 0; n < nodes; ++n) {
      if (sites.count(static_cast<NodeId>(n))) continue;
      EXPECT_GE(model.load(static_cast<NodeId>(n), 0.0).queued_pex,
                worst_taken);
    }
  }
}

TEST(PlacementFuzz, StaticPolicyReproducesTheSeedDrawBitForBit) {
  // The wired `static` run never builds deferred specs; this pins the
  // engine-level contract that makes that shortcut safe: pushing a
  // deferred tree through StaticPlacement binds every leaf to exactly the
  // generator's hint, so submissions match the bound tree's one for one.
  Rng rng(31337);
  const StaticPlacement policy;
  for (int trial = 0; trial < 300; ++trial) {
    const TaskSpec spec = random_placeable_tree(rng, 4, 8);
    std::vector<NodeId> hints;
    collect_hints(spec.root(), hints);

    TaskInstance placed(1, spec, 0.0, spec.critical_path_exec() + 5.0,
                        make_eqf(), parallel_strategy_by_name("DIV2"),
                        nullptr, &policy);
    TaskInstance bound(1, spec, 0.0, spec.critical_path_exec() + 5.0,
                       make_eqf(), parallel_strategy_by_name("DIV2"));
    const auto a = drain_instance(placed);
    const auto b = drain_instance(bound);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].leaf, b[i].leaf);
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].deadline, b[i].deadline);
    }
  }
}

// --- Sweep axis -----------------------------------------------------------

TEST(PlacementSweep, ByFieldMutatesTheConfig) {
  const auto axis =
      engine::SweepAxis::by_field("placement", {"static", "jsq-pex"});
  system::Config cfg = system::baseline_ssp();
  axis.apply[1](cfg);
  EXPECT_EQ(cfg.placement.kind, PlacementKind::JsqPex);
  axis.apply[0](cfg);
  EXPECT_EQ(cfg.placement.kind, PlacementKind::Static);
  EXPECT_THROW(engine::SweepAxis::by_field("placement", {"nope"}),
               std::invalid_argument);
}

// --- System level ---------------------------------------------------------

TEST(PlacementSystem, JsqChangesSchedulingAndIsReproducible) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.load = 0.8;
  const auto stat = system::simulate(cfg, 0);
  cfg.placement = PlacementSpec::parse("jsq-pex");
  cfg.load_model = LoadModelSpec::parse("exact");
  const auto jsq_a = system::simulate(cfg, 0);
  const auto jsq_b = system::simulate(cfg, 0);
  // Deterministic: same (config, replication) => same run.
  EXPECT_EQ(jsq_a.events, jsq_b.events);
  EXPECT_EQ(jsq_a.global.response.mean(), jsq_b.global.response.mean());
  // And visibly different from the generation-time binding.
  EXPECT_NE(jsq_a.global.response.mean(), stat.global.response.mean());
}

TEST(PlacementSystem, JobsOneEqualsJobsEightForEveryPlacementCombo) {
  std::vector<system::Config> combos;
  for (const char* placement : {"jsq-pex", "jsq-util", "pod:2", "pod:3"}) {
    for (const char* lm : {"exact", "sampled:2", "none"}) {
      system::Config cfg = system::baseline_ssp();
      cfg.horizon = 4000;
      cfg.load = 0.7;
      cfg.placement = PlacementSpec::parse(placement);
      cfg.load_model = LoadModelSpec::parse(lm);
      combos.push_back(cfg);
    }
  }
  {
    // Parallel shape: distinct-site placement under the DIV family.
    system::Config cfg = system::baseline_psp();
    cfg.horizon = 4000;
    cfg.load = 0.7;
    cfg.placement = PlacementSpec::parse("jsq-pex");
    cfg.load_model = LoadModelSpec::parse("exact");
    combos.push_back(cfg);
  }
  {
    // Comm stages: transmissions routed over the link-node range.
    system::Config cfg = system::baseline_combined();
    cfg.horizon = 4000;
    cfg.load = 0.7;
    cfg.link_nodes = 2;
    cfg.comm_exec = sim::exponential(0.25);
    cfg.placement = PlacementSpec::parse("jsq-pex");
    cfg.load_model = LoadModelSpec::parse("stale:2");
    combos.push_back(cfg);
  }
  for (const auto& cfg : combos) {
    SCOPED_TRACE(cfg.describe());
    const auto serial = engine::Runner(1).run_replications(cfg, 4);
    const auto parallel = engine::Runner(8).run_replications(cfg, 4);
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t r = 0; r < serial.runs.size(); ++r) {
      SCOPED_TRACE(r);
      EXPECT_EQ(serial.runs[r].events, parallel.runs[r].events);
      EXPECT_EQ(serial.runs[r].global.response.mean(),
                parallel.runs[r].global.response.mean());
      EXPECT_EQ(serial.runs[r].mean_utilization,
                parallel.runs[r].mean_utilization);
    }
  }
}

TEST(PlacementSystem, IdleBoardJsqMatchesStaticAtDistributionLevel) {
  // With no load model the jsq keys are all zero and placement degenerates
  // to deterministic round-robin — a *different* sequence of nodes than
  // the static uniform draw, but the same distribution over them. The
  // aggregate metrics must agree at distribution level (round-robin is in
  // fact slightly better: it never collides).
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 100000;
  cfg.load = 0.5;
  const auto stat = system::simulate(cfg, 0);
  cfg.placement = PlacementSpec::parse("jsq-pex");
  const auto rr = system::simulate(cfg, 0);
  const double stat_md =
      static_cast<double>(stat.local.missed.hits() +
                          stat.global.missed.hits()) /
      static_cast<double>(stat.local.missed.trials() +
                          stat.global.missed.trials());
  const double rr_md =
      static_cast<double>(rr.local.missed.hits() + rr.global.missed.hits()) /
      static_cast<double>(rr.local.missed.trials() +
                          rr.global.missed.trials());
  EXPECT_NEAR(rr_md, stat_md, 0.03);
  EXPECT_NEAR(rr.local.response.mean(), stat.local.response.mean(),
              0.1 * stat.local.response.mean());
  EXPECT_NEAR(rr.global.response.mean(), stat.global.response.mean(),
              0.12 * stat.global.response.mean());
  // Same offered work either way.
  EXPECT_EQ(rr.local.generated, stat.local.generated);
  EXPECT_EQ(rr.global.generated, stat.global.generated);
  EXPECT_NEAR(rr.mean_utilization, stat.mean_utilization, 0.01);
}

TEST(PlacementSystem, LightLoadJsqTiesAcrossIdleNodes) {
  // At load 0.3 on k=6 most decisions see two or more idle nodes
  // (P(>= 2 of 6 idle) is ~0.99 for independent nodes at utilization 0.3).
  // Idle nodes read a backlog of exactly 0, so those decisions are exact
  // ties that the rotation breaks, and the index's zero bitset answers
  // nearly every one of them.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 50000;
  cfg.load = 0.3;
  cfg.probes = true;
  cfg.placement = PlacementSpec::parse("jsq-pex");
  cfg.load_model = LoadModelSpec::parse("exact");
  const system::RunMetrics m = system::simulate(cfg, 0);
  const double decisions = m.counters.value_or("placement.decisions");
  ASSERT_GT(decisions, 10000.0);
  EXPECT_GE(m.counters.value_or("placement.exact_ties") / decisions, 0.9);
  EXPECT_GE(m.counters.value_or("placement.index_zero_answers") / decisions,
            0.99);
}

TEST(PlacementSystem, JsqBeatsStaticTowardSaturation) {
  // Routing to the shortest pex queue lowers the pooled miss ratio at
  // load 0.85 (deterministic seeds; a regression guard at test scale, the
  // abl_placement manifest explores the full grid).
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 100000;
  cfg.load = 0.85;
  const auto stat = system::simulate(cfg, 0);
  cfg.placement = PlacementSpec::parse("jsq-pex");
  cfg.load_model = LoadModelSpec::parse("exact");
  const auto jsq = system::simulate(cfg, 0);
  const auto md = [](const system::RunMetrics& m) {
    return static_cast<double>(m.local.missed.hits() +
                               m.global.missed.hits()) /
           static_cast<double>(m.local.missed.trials() +
                               m.global.missed.trials());
  };
  EXPECT_LT(md(jsq), md(stat));
}

TEST(PlacementSystem, PodBeatsStaticTowardSaturation) {
  // Mitzenmacher's two-choices property at test scale: sampling just d=2
  // queues captures most of jsq's miss-ratio gain over the static draw —
  // at O(d) per decision, with no board index. Deterministic seeds; the
  // abl_scale_quick manifest explores the crossover at real k.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 100000;
  cfg.load = 0.85;
  const auto stat = system::simulate(cfg, 0);
  cfg.placement = PlacementSpec::parse("pod:2");
  cfg.load_model = LoadModelSpec::parse("exact");
  const auto pod = system::simulate(cfg, 0);
  const auto md = [](const system::RunMetrics& m) {
    return static_cast<double>(m.local.missed.hits() +
                               m.global.missed.hits()) /
           static_cast<double>(m.local.missed.trials() +
                               m.global.missed.trials());
  };
  EXPECT_LT(md(pod), md(stat));
}

TEST(PlacementSystem, PodIsReproduciblePerReplication) {
  // The sampling rng is seeded from the replication seed (stream
  // kPlacementRngStream): same (config, replication) => bit-identical run;
  // different replications draw independent placement streams.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.load = 0.8;
  cfg.placement = PlacementSpec::parse("pod:2");
  cfg.load_model = LoadModelSpec::parse("exact");
  const auto a = system::simulate(cfg, 0);
  const auto b = system::simulate(cfg, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  const auto other = system::simulate(cfg, 1);
  EXPECT_NE(a.global.response.mean(), other.global.response.mean());
}

// --- Downstream-aware serial strategies (EQS-LD / EQF-LD) -----------------

TEST(DownstreamLoadAware, ZeroDownstreamReducesToTheCurrentStageVariant) {
  const auto eqs_l = make_eqs_load_aware();
  const auto eqs_ld = make_eqs_load_aware_downstream();
  const auto eqf_l = make_eqf_load_aware();
  const auto eqf_ld = make_eqf_load_aware_downstream();
  EXPECT_FALSE(eqs_l->wants_downstream_load());
  EXPECT_TRUE(eqs_ld->wants_downstream_load());
  EXPECT_EQ(eqs_ld->name(), "EQS-LD");
  EXPECT_EQ(eqf_ld->name(), "EQF-LD");
  Rng rng(555);
  for (int trial = 0; trial < 1000; ++trial) {
    SerialContext ctx;
    ctx.count = 1 + rng.below(6);
    ctx.index = rng.below(ctx.count);
    ctx.group_arrival = rng.uniform(0, 20);
    ctx.now = ctx.group_arrival + rng.uniform(0, 5);
    ctx.pex_self = rng.exponential(1.0);
    ctx.pex_remaining = ctx.pex_self + rng.exponential(1.0);
    ctx.pex_group_total = ctx.pex_remaining;
    ctx.group_deadline = ctx.now + ctx.pex_remaining + rng.uniform(0, 20);
    ctx.node = 0;
    const FixedLoadModel model = backlogs({rng.exponential(2.0)});
    ctx.load = &model;
    ctx.queued_downstream = 0;  // nothing queued behind later stages
    EXPECT_EQ(eqs_ld->assign(ctx), eqs_l->assign(ctx)) << trial;
    EXPECT_EQ(eqf_ld->assign(ctx), eqf_l->assign(ctx)) << trial;
  }
}

TEST(DownstreamLoadAware, MoreDownstreamBacklogMeansEarlierDeadlines) {
  // Time the later stages must queue is not shareable slack: as it grows,
  // the current stage's deadline tightens (monotone non-increasing) and
  // stays inside the group window.
  const auto eqs_ld = make_eqs_load_aware_downstream();
  const auto eqf_ld = make_eqf_load_aware_downstream();
  Rng rng(987);
  for (int trial = 0; trial < 1000; ++trial) {
    SerialContext ctx;
    ctx.count = 2 + rng.below(5);
    ctx.index = rng.below(ctx.count - 1);  // at least one later stage
    ctx.group_arrival = rng.uniform(0, 20);
    ctx.now = ctx.group_arrival + rng.uniform(0, 5);
    ctx.pex_self = rng.exponential(1.0);
    ctx.pex_remaining = ctx.pex_self + rng.exponential(1.0);
    ctx.pex_group_total = ctx.pex_remaining;
    ctx.group_deadline = ctx.now + ctx.pex_remaining + rng.uniform(0, 25);
    ctx.node = 0;
    const FixedLoadModel model = backlogs({rng.exponential(1.0)});
    ctx.load = &model;
    double prev_eqs = 1e300, prev_eqf = 1e300;
    double q_down = 0;
    for (int step = 0; step < 8; ++step) {
      ctx.queued_downstream = q_down;
      const double dl_eqs = eqs_ld->assign(ctx);
      const double dl_eqf = eqf_ld->assign(ctx);
      EXPECT_LE(dl_eqs, prev_eqs + 1e-9) << "q_down=" << q_down;
      EXPECT_LE(dl_eqf, prev_eqf + 1e-9) << "q_down=" << q_down;
      EXPECT_LE(dl_eqs, ctx.group_deadline);
      EXPECT_LE(dl_eqf, ctx.group_deadline);
      EXPECT_TRUE(std::isfinite(dl_eqs));
      EXPECT_TRUE(std::isfinite(dl_eqf));
      prev_eqs = dl_eqs;
      prev_eqf = dl_eqf;
      q_down += rng.exponential(2.0);
    }
  }
}

TEST(DownstreamLoadAware, EndToEndDiffersFromCurrentStageOnlyUnderLoad) {
  // The downstream charge must actually change scheduling when the board
  // is live (otherwise the flag would be dead wiring).
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.load = 0.8;
  cfg.load_model = LoadModelSpec::parse("exact");
  cfg.ssp = serial_strategy_by_name("EQS-L");
  const auto current_only = system::simulate(cfg, 0);
  cfg.ssp = serial_strategy_by_name("EQS-LD");
  const auto downstream = system::simulate(cfg, 0);
  EXPECT_NE(current_only.global.response.mean(),
            downstream.global.response.mean());
  // Same generated workload either way (the strategies only move virtual
  // deadlines).
  EXPECT_EQ(current_only.global.generated, downstream.global.generated);
}

TEST(Cli, PlacementFlagAndRegistryDrivenVocabulary) {
  std::vector<const char*> argv = {"prog", "--placement=jsq-util",
                                   "--load_model=exact"};
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  const auto cfg = system::config_from_flags(flags);
  EXPECT_EQ(cfg.placement.kind, PlacementKind::JsqUtil);
  // Usage lists every registered placement name.
  const std::string usage = system::cli_usage();
  for (const auto name : placement_names())
    EXPECT_NE(usage.find(std::string(name)), std::string::npos) << name;
  // Errors enumerate the same registry.
  try {
    PlacementSpec::parse("WAT");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const auto name : placement_names())
      EXPECT_NE(message.find(std::string(name)), std::string::npos) << name;
  }
}

}  // namespace
