// Load-aware deadline assignment: LoadAccount/LoadModel semantics, the
// differential properties that pin the new strategies to their static
// counterparts (zero load => bit-identical assignments), the online DIV-x
// autotuner's adaptation law, and engine determinism (--jobs invariance)
// for every new strategy/load-model combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;
using dsrt::sim::Rng;

// --- LoadAccount ----------------------------------------------------------

TEST(LoadAccount, BacklogTracksArrivalsAndDepartures) {
  core::LoadAccount acct;
  acct.configure(10.0, 0.0);
  acct.add_backlog(2.0);
  acct.add_backlog(1.5);
  acct.set_queue_length(1);
  core::NodeLoad load = acct.read(0.0);
  EXPECT_DOUBLE_EQ(load.queued_pex, 3.5);
  EXPECT_EQ(load.queue_length, 1u);
  acct.remove_backlog(2.0);
  EXPECT_DOUBLE_EQ(acct.read(0.0).queued_pex, 1.5);
  // Rounding drift must never yield negative work.
  acct.remove_backlog(99.0);
  EXPECT_DOUBLE_EQ(acct.read(0.0).queued_pex, 0.0);
}

TEST(LoadAccount, EmptyAccountReadsExactlyZeroWhateverTheOrder) {
  // Every order of adding and removing 0.1, 0.2 and 0.7: while a job is
  // held the key is the running double (add, subtract, clamp at 0), and
  // the last job out leaves exactly 0, set in the index's zero bitset,
  // where the running double leaves rounding residue for 20 of the 36.
  std::vector<double> adds = {0.1, 0.2, 0.7};
  core::LoadBoard board(1);
  board[0].configure(10.0, 0.0);
  const core::BacklogIndex& index = board.backlog_index();
  std::size_t residue_orders = 0;
  do {
    std::vector<double> removes = adds;
    do {
      double running = 0;
      for (const double pex : adds) {
        board[0].add_backlog(pex);
        running += pex;
        ASSERT_EQ(board[0].pex_key(), running);
      }
      for (std::size_t r = 0; r < removes.size(); ++r) {
        board[0].remove_backlog(removes[r]);
        running = std::max(running - removes[r], 0.0);
        if (r + 1 < removes.size()) ASSERT_EQ(board[0].pex_key(), running);
      }
      residue_orders += running != 0.0;
      EXPECT_EQ(board[0].pex_key(), 0.0);
      EXPECT_EQ(board[0].read(0.0).queued_pex, 0.0);
      EXPECT_TRUE(index.is_zero(0));
    } while (std::next_permutation(removes.begin(), removes.end()));
  } while (std::next_permutation(adds.begin(), adds.end()));
  EXPECT_GT(residue_orders, 0u);
}

TEST(LoadAccount, RemoveOnAnEmptyAccountKeepsTheJobCountAtZero) {
  // A remove with no job held must not wrap the job count: the account
  // would then read 0 one job too early.
  core::LoadAccount acct;
  acct.configure(10.0, 0.0);
  acct.remove_backlog(99.0);
  EXPECT_EQ(acct.pex_key(), 0.0);
  acct.add_backlog(1.5);
  acct.add_backlog(2.0);
  acct.remove_backlog(2.0);
  EXPECT_EQ(acct.pex_key(), 1.5);
  acct.remove_backlog(1.5);
  EXPECT_EQ(acct.pex_key(), 0.0);
}

TEST(LoadAccount, UtilizationEwmaDecaysInSimulatedTime) {
  core::LoadAccount acct;
  acct.configure(/*tau=*/10.0, 0.0);
  acct.set_busy(0.0, true);
  // Held busy for one time constant: ewma = 1 - e^-1.
  const double one_tau = acct.read(10.0).utilization;
  EXPECT_NEAR(one_tau, 1.0 - std::exp(-1.0), 1e-12);
  // Reads are pure: same question, same answer.
  EXPECT_DOUBLE_EQ(acct.read(10.0).utilization, one_tau);
  // Monotone toward the held state, bounded by it.
  EXPECT_GT(acct.read(20.0).utilization, one_tau);
  EXPECT_LT(acct.read(1000.0).utilization, 1.0 + 1e-12);
  // Going idle folds the busy interval in, then decays toward zero.
  acct.set_busy(10.0, false);
  const double after_idle = acct.read(30.0).utilization;
  EXPECT_LT(after_idle, one_tau);
  EXPECT_GT(after_idle, 0.0);
}

// --- LoadModels -----------------------------------------------------------

TEST(LoadBoard, ShardedSlotsKeepStableAddressesAcrossGrowth) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::LoadAccount* first = &board[0];
  board[0].add_backlog(2.0);
  // Growing the board appends shards; existing accounts never move (the
  // nodes hold raw pointers into the board for the life of a run).
  board.resize(4096);
  EXPECT_EQ(&board[0], first);
  EXPECT_DOUBLE_EQ(board[0].read(0.0).queued_pex, 2.0);
  board[4095].configure(5.0, 0.0);
  board[4095].add_backlog(7.0);
  std::size_t seen = 0;
  double sum = 0.0;
  board.for_each([&](std::size_t i, const core::LoadAccount& acct) {
    ++seen;
    sum += acct.read(0.0).queued_pex;
    (void)i;
  });
  EXPECT_EQ(seen, 4096u);
  EXPECT_DOUBLE_EQ(sum, 9.0);
}

/// Brute-force (min, nodes attaining it) over keys[lo, hi).
std::pair<double, std::vector<std::size_t>> brute_minima(
    const std::vector<double>& keys, std::size_t lo, std::size_t hi) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> minima;
  for (std::size_t j = lo; j < hi; ++j) {
    if (keys[j] < best) {
      best = keys[j];
      minima.clear();
    }
    if (keys[j] == best) minima.push_back(j);
  }
  return {best, minima};
}

/// Checks every index answer over [lo, hi) against brute force; returns
/// whether the range held an exactly-zero key.
bool expect_range_matches(const core::BacklogIndex& index,
                          const std::vector<double>& keys, std::size_t lo,
                          std::size_t hi) {
  const auto [best, minima] = brute_minima(keys, lo, hi);
  std::size_t zeros = 0;
  for (std::size_t j = lo; j < hi; ++j) zeros += keys[j] == 0;
  EXPECT_EQ(index.zeros_in(lo, hi), zeros) << "[" << lo << ", " << hi << ")";
  const core::BacklogIndex::Min m = index.min_over(lo, hi);
  EXPECT_EQ(m.key, best) << "[" << lo << ", " << hi << ")";
  EXPECT_EQ(m.count, minima.size()) << "[" << lo << ", " << hi << ")";
  if (m.count != minima.size()) return zeros > 0;
  for (std::size_t s = 0; s < minima.size(); ++s)
    EXPECT_EQ(index.nth_min(lo, hi, best, s), minima[s])
        << "[" << lo << ", " << hi << ") s=" << s;
  return zeros > 0;
}

/// Flushes `index`, then requires every vertex to equal a fresh build's.
void expect_flushed_tree_matches(const core::BacklogIndex& index,
                                 const std::vector<double>& keys) {
  index.flush();
  const core::BacklogIndex rebuilt(keys);
  ASSERT_EQ(index.leaves(), rebuilt.leaves());
  for (std::size_t v = 1; v < 2 * index.leaves(); ++v) {
    ASSERT_EQ(index.vertex(v).key, rebuilt.vertex(v).key) << "vertex " << v;
    ASSERT_EQ(index.vertex(v).count, rebuilt.vertex(v).count)
        << "vertex " << v;
  }
}

TEST(BacklogIndex, EveryWriteMatchesARebuildAndBruteForce) {
  // Differential check of the deferred tree (bursts of writes, then a
  // flush with early exits in arbitrary order) and of the zero bitset
  // against a from-scratch build and brute force. Keys come from a
  // handful of values, so ties are constant; exact zeros of either sign
  // (idle nodes), +inf (down nodes) and rewrites of the current key are
  // all frequent. Short ranges often hold no zero and go to the tree.
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1, 5, 37, 64, 1000, 4096}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng rng(91, k);
    const auto draw = [&](double current) {
      const double u = rng.uniform01();
      if (u < 0.15) return current;
      if (u < 0.25) return 0.0;
      if (u < 0.30) return -0.0;
      if (u < 0.40) return inf;
      return 0.5 * std::floor(1.0 + rng.uniform01() * 4.0);
    };
    std::vector<double> keys(k);
    for (double& key : keys) key = draw(0.0);
    core::BacklogIndex index(keys);
    std::size_t with_zero = 0, without_zero = 0;
    const int rounds = k > 1000 ? 150 : 400;
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::size_t burst = 1 + rng.below(200);
      for (std::size_t w = 0; w < burst; ++w) {
        const std::size_t i = rng.below(k);
        keys[i] = draw(keys[i]);
        index.set(i, keys[i]);
      }
      for (int q = 0; q < 6; ++q) {
        std::size_t lo = rng.below(k);
        std::size_t hi = q % 2 == 0 ? rng.below(k)
                                    : std::min(k - 1, lo + rng.below(4));
        if (lo > hi) std::swap(lo, hi);
        ++hi;
        (expect_range_matches(index, keys, lo, hi) ? with_zero
                                                   : without_zero) += 1;
      }
      expect_range_matches(index, keys, 0, k);
      expect_flushed_tree_matches(index, keys);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(with_zero, 100u);
    EXPECT_GT(without_zero, 100u);
  }
}

TEST(BacklogIndex, NegativeKeysSendEveryQueryToTheTree) {
  // A negative key sits below the zero class: while one exists the tree
  // holds the zeros too. Entering and leaving that mode rebuild it; every
  // answer in between (and after) must match brute force.
  for (const std::size_t k : {5, 64, 1000}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng rng(7, k);
    std::vector<double> keys(k, 0.0);
    core::BacklogIndex index(keys);
    std::size_t negative_rounds = 0, zero_rounds = 0, mode_changes = 0;
    for (int round = 0; round < 800; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Phases of 100 rounds: odd ones introduce negative keys, even ones
      // overwrite them until none is left.
      const bool introduce = round / 100 % 2 == 1;
      std::size_t i = rng.below(k);
      if (!introduce)
        for (std::size_t j = 0; j < k; ++j)
          if (keys[j] < 0) {
            i = j;
            break;
          }
      const double u = rng.uniform01();
      const bool was_least = index.zeros_least();
      keys[i] = introduce && u < 0.1
                    ? -0.5 * static_cast<double>(1 + rng.below(2))
                : u < 0.55 ? 0.0
                           : 0.5 * static_cast<double>(rng.below(4));
      index.set(i, keys[i]);
      std::size_t negatives = 0;
      for (const double key : keys) negatives += key < 0;
      ASSERT_EQ(index.zeros_least(), negatives == 0);
      mode_changes += index.zeros_least() != was_least;
      (negatives > 0 ? negative_rounds : zero_rounds) += 1;
      std::size_t lo = rng.below(k);
      std::size_t hi = rng.below(k);
      if (lo > hi) std::swap(lo, hi);
      expect_range_matches(index, keys, lo, hi + 1);
      expect_range_matches(index, keys, 0, k);
      if (round % 16 == 0) expect_flushed_tree_matches(index, keys);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(negative_rounds, 100u);
    EXPECT_GT(zero_rounds, 100u);
    EXPECT_GE(mode_changes, 6u);
  }
}

TEST(BacklogIndex, NanKeysAreRejectedWithoutChangingAnything) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::BacklogIndex(std::vector<double>{0.0, nan}),
               std::invalid_argument);
  std::vector<double> keys = {1.0, 0.0, 2.0, 0.0, 1.0};
  core::BacklogIndex index(keys);
  index.set(0, 3.0);
  keys[0] = 3.0;
  for (const std::size_t i : {0, 1, 4}) {
    EXPECT_THROW(index.set(i, nan), std::invalid_argument);
    for (std::size_t lo = 0; lo < keys.size(); ++lo)
      for (std::size_t hi = lo + 1; hi <= keys.size(); ++hi)
        expect_range_matches(index, keys, lo, hi);
    expect_flushed_tree_matches(index, keys);
  }
}

TEST(BacklogIndex, RangesHoldingAZeroNeverFlush) {
  // The performance property of the split: with an exactly-zero key in
  // every queried range, writes only mark leaves dirty — 10k of them,
  // interleaved with queries, leave every written leaf still unflushed.
  constexpr std::size_t k = 1024;
  Rng rng(3);
  // Every 8th node stays idle; the others hold and take non-zero keys.
  std::vector<double> keys(k);
  for (std::size_t i = 0; i < k; ++i) keys[i] = i % 8 == 0 ? 0.0 : 1.0;
  core::BacklogIndex index(keys);
  std::vector<bool> changed(k, false);
  for (int w = 0; w < 10000; ++w) {
    const std::size_t i = 8 * rng.below(k / 8) + 1 + rng.below(7);
    const double key = 0.5 * static_cast<double>(1 + rng.below(6));
    if (key != keys[i]) changed[i] = true;
    keys[i] = key;
    index.set(i, key);
    const std::size_t lo = rng.below(k - 8);
    const std::size_t hi = lo + 8 + rng.below(k - 8 - lo + 1);
    const core::BacklogIndex::Min m = index.min_over(lo, hi);
    ASSERT_EQ(m.key, 0.0);
    ASSERT_EQ(index.nth_min(lo, hi, m.key, rng.below(m.count)) % 8, 0u);
  }
  std::size_t distinct = 0;
  for (const bool b : changed) distinct += b;
  EXPECT_EQ(index.flush(), distinct);
  expect_flushed_tree_matches(index, keys);
}

TEST(LoadModel, ExactReadsLiveAccounts) {
  core::LoadBoard board(2);
  for (std::size_t i = 0; i < 2; ++i) board[i].configure(5.0, 0.0);
  core::ExactLoadModel model(board);
  board[1].add_backlog(4.0);
  EXPECT_DOUBLE_EQ(model.load(1, 0.0).queued_pex, 4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 0.0).queued_pex, 0.0);
  // Out-of-range nodes read as idle rather than faulting.
  EXPECT_DOUBLE_EQ(model.load(99, 0.0).queued_pex, 0.0);
}

TEST(LoadModel, SampledServesTheLastSnapshotNotLiveState) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::SnapshotLoadModel model(board, /*period=*/2.0,
                                core::SnapshotLoadModel::Serve::Latest);
  board[0].add_backlog(3.0);
  // Cold start: nothing sampled yet.
  EXPECT_DOUBLE_EQ(model.load(0, 1.0).queued_pex, 0.0);
  model.refresh(2.0);
  EXPECT_DOUBLE_EQ(model.load(0, 2.5).queued_pex, 3.0);
  board[0].add_backlog(5.0);  // live change invisible until the next sample
  EXPECT_DOUBLE_EQ(model.load(0, 3.9).queued_pex, 3.0);
  model.refresh(4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 4.1).queued_pex, 8.0);
}

TEST(LoadModel, StaleServesThePreviousSnapshot) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::SnapshotLoadModel model(board, /*period=*/2.0,
                                core::SnapshotLoadModel::Serve::Previous);
  board[0].add_backlog(3.0);
  model.refresh(2.0);
  // One snapshot taken: the *previous* one is still the cold zero state.
  EXPECT_DOUBLE_EQ(model.load(0, 2.5).queued_pex, 0.0);
  model.refresh(4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 4.5).queued_pex, 3.0);
}

TEST(LoadModelSpec, ParseRoundTripsAndRejectsJunk) {
  EXPECT_EQ(core::LoadModelSpec::parse("none").kind,
            core::LoadModelKind::None);
  EXPECT_EQ(core::LoadModelSpec::parse("exact").kind,
            core::LoadModelKind::Exact);
  const auto sampled = core::LoadModelSpec::parse("sampled:2.5");
  EXPECT_EQ(sampled.kind, core::LoadModelKind::Sampled);
  EXPECT_DOUBLE_EQ(sampled.period, 2.5);
  EXPECT_EQ(sampled.describe(), "sampled:2.5");
  const auto stale = core::LoadModelSpec::parse("stale");
  EXPECT_EQ(stale.kind, core::LoadModelKind::Stale);
  EXPECT_THROW(core::LoadModelSpec::parse("psychic"), std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("exact:3"), std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("sampled:zero"),
               std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("sampled:-1"),
               std::invalid_argument);
}

// --- Differential properties ---------------------------------------------

/// Random serial context with a non-negative remaining window (the regime
/// in which the static strategies themselves respect the group deadline,
/// so the load-aware clamp is inert and equality can be bit-for-bit).
core::SerialContext random_serial_context(Rng& rng) {
  core::SerialContext ctx;
  ctx.count = 1 + rng.below(6);
  ctx.index = rng.below(ctx.count);
  ctx.group_arrival = rng.uniform(0, 50);
  ctx.now = ctx.group_arrival + rng.uniform(0, 10);
  const bool degenerate = rng.uniform01() < 0.1;
  ctx.pex_self = degenerate ? 0.0 : rng.exponential(1.0);
  double later = 0;
  for (std::size_t j = ctx.index + 1; j < ctx.count; ++j)
    later += degenerate ? 0.0 : rng.exponential(1.0);
  ctx.pex_remaining = ctx.pex_self + later;
  double earlier = 0;
  for (std::size_t j = 0; j < ctx.index; ++j)
    earlier += rng.exponential(1.0);
  ctx.pex_group_total = ctx.pex_remaining + earlier;
  ctx.group_deadline = ctx.now + ctx.pex_remaining + rng.uniform(0, 20);
  ctx.node = static_cast<core::NodeId>(rng.below(4));
  return ctx;
}

TEST(LoadAwareDifferential, IdleLoadReproducesStaticAssignmentsExactly) {
  const core::IdleLoadModel idle;
  const auto eqs = core::make_eqs();
  const auto eqs_l = core::make_eqs_load_aware();
  const auto eqf = core::make_eqf();
  const auto eqf_l = core::make_eqf_load_aware();
  Rng rng(20260730);
  int compared = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    core::SerialContext ctx = random_serial_context(rng);
    // The differential property is over contexts where the static strategy
    // itself stays inside the group window. (Outside it — which rounding
    // can enter by one ulp even with non-negative slack — the load-aware
    // clamp to dl(T) is the *intended* difference.)
    if (eqs->assign(ctx) > ctx.group_deadline ||
        eqf->assign(ctx) > ctx.group_deadline)
      continue;
    ++compared;
    // Both "no model wired" and "model reports an idle system" must reduce.
    ctx.load = (trial % 2 == 0) ? &idle : nullptr;
    EXPECT_EQ(eqs_l->assign(ctx), eqs->assign(ctx)) << "trial " << trial;
    EXPECT_EQ(eqf_l->assign(ctx), eqf->assign(ctx)) << "trial " << trial;
  }
  EXPECT_GT(compared, 1500);  // the corpus is not degenerate
}

TEST(LoadAwareDifferential, AdaptationDisabledDivaMatchesStaticDivX) {
  core::AdaptiveDivX::Options options;
  options.x0 = 2.0;
  options.adapt = false;
  const auto diva = core::make_adaptive_div_x(options);
  const auto divx = core::make_div_x(2.0);
  // Feedback with adaptation disabled must be a no-op.
  const auto* feedback =
      dynamic_cast<const core::SubtaskFeedback*>(diva.get());
  ASSERT_NE(feedback, nullptr);
  Rng rng(777);
  for (int trial = 0; trial < 2000; ++trial) {
    core::ParallelContext ctx;
    ctx.group_arrival = rng.uniform(0, 50);
    ctx.now = ctx.group_arrival;
    ctx.group_deadline = ctx.group_arrival + rng.uniform(0, 30);
    ctx.count = 1 + rng.below(6);
    ctx.index = rng.below(ctx.count);
    ctx.pex_self = rng.exponential(1.0);
    ctx.pex_max = ctx.pex_self + rng.exponential(1.0);
    const auto a = diva->assign(ctx);
    const auto b = divx->assign(ctx);
    EXPECT_EQ(a.deadline, b.deadline) << "trial " << trial;
    EXPECT_EQ(a.priority, b.priority);
    feedback->on_subtask_disposed(rng.uniform(-5, 5), trial % 3 != 0);
  }
}

TEST(LoadAwareDifferential, AdaptationDisabledDivaMatchesDivXEndToEnd) {
  // Whole-simulation differential: same seeds, same formula, same numbers.
  system::Config cfg = system::baseline_psp();
  cfg.horizon = 20000;
  cfg.psp = core::make_div_x(2.0);
  const system::RunMetrics a = system::simulate(cfg, 0);
  core::AdaptiveDivX::Options options;
  options.x0 = 2.0;
  options.adapt = false;
  cfg.psp = core::make_adaptive_div_x(options);
  const system::RunMetrics b = system::simulate(cfg, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.missed.hits(), b.global.missed.hits());
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  EXPECT_EQ(a.local.response.mean(), b.local.response.mean());
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
}

// --- DIVA adaptation law --------------------------------------------------

TEST(AdaptiveDivX, PromotionRisesUnderMissesAndDecaysWhenOnTime) {
  core::AdaptiveDivX::Options options;
  options.batch = 8;
  options.gain = 0.5;
  options.x_max = 4.0;
  core::AdaptiveDivX diva(options);
  EXPECT_DOUBLE_EQ(diva.x(), 1.0);
  // One full batch of misses: x *= 1.5.
  for (int i = 0; i < 8; ++i) diva.on_subtask_disposed(1.0, true);
  EXPECT_DOUBLE_EQ(diva.x(), 1.5);
  // Aborts count as misses too.
  for (int i = 0; i < 8; ++i) diva.on_subtask_disposed(-1.0, false);
  EXPECT_DOUBLE_EQ(diva.x(), 2.25);
  // Saturates at x_max.
  for (int i = 0; i < 8 * 10; ++i) diva.on_subtask_disposed(2.0, true);
  EXPECT_DOUBLE_EQ(diva.x(), 4.0);
  // On-time batches decay back toward (and never below) 1.
  for (int i = 0; i < 8 * 100; ++i) diva.on_subtask_disposed(-0.5, true);
  EXPECT_DOUBLE_EQ(diva.x(), 1.0);
}

TEST(AdaptiveDivX, CloneForRunResetsAdaptationState) {
  core::AdaptiveDivX::Options options;
  options.batch = 4;
  const auto original = core::make_adaptive_div_x(options);
  const auto* feedback =
      dynamic_cast<const core::SubtaskFeedback*>(original.get());
  for (int i = 0; i < 4; ++i) feedback->on_subtask_disposed(1.0, true);
  const auto* adapted =
      dynamic_cast<const core::AdaptiveDivX*>(original.get());
  EXPECT_GT(adapted->x(), 1.0);
  const auto clone = original->clone_for_run();
  ASSERT_NE(clone, nullptr);
  const auto* fresh = dynamic_cast<const core::AdaptiveDivX*>(clone.get());
  ASSERT_NE(fresh, nullptr);
  EXPECT_DOUBLE_EQ(fresh->x(), options.x0);
  EXPECT_THROW(
      {
        core::AdaptiveDivX::Options bad;
        bad.x0 = 0.5;
        core::AdaptiveDivX probe(bad);
        (void)probe;
      },
      std::invalid_argument);
}

// --- Engine determinism for the new strategies ----------------------------

void expect_bit_identical(const std::vector<system::RunMetrics>& a,
                          const std::vector<system::RunMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(a[r].events, b[r].events);
    EXPECT_EQ(a[r].global.missed.hits(), b[r].global.missed.hits());
    EXPECT_EQ(a[r].local.missed.hits(), b[r].local.missed.hits());
    EXPECT_EQ(a[r].global.response.mean(), b[r].global.response.mean());
    EXPECT_EQ(a[r].local.response.mean(), b[r].local.response.mean());
    EXPECT_EQ(a[r].mean_utilization, b[r].mean_utilization);
  }
}

TEST(LoadAwareDeterminism, JobsOneEqualsJobsEightForEveryNewCombination) {
  std::vector<system::Config> combos;
  for (const char* ssp : {"EQS-L", "EQF-L"}) {
    for (const char* lm : {"exact", "sampled:2", "stale:2"}) {
      system::Config cfg = system::baseline_ssp();
      cfg.horizon = 4000;
      cfg.load = 0.7;
      cfg.ssp = core::serial_strategy_by_name(ssp);
      cfg.load_model = core::LoadModelSpec::parse(lm);
      combos.push_back(cfg);
    }
  }
  {
    // The autotuner adapts per run; cloning must keep runs independent of
    // worker interleaving.
    system::Config cfg = system::baseline_psp();
    cfg.horizon = 4000;
    cfg.load = 0.7;
    cfg.psp = core::parallel_strategy_by_name("DIVA");
    cfg.load_model = core::LoadModelSpec::parse("exact");
    combos.push_back(cfg);
  }
  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE(combos[i].describe());
    const auto serial = engine::Runner(1).run_replications(combos[i], 4);
    const auto parallel = engine::Runner(8).run_replications(combos[i], 4);
    expect_bit_identical(serial.runs, parallel.runs);
  }
}

TEST(LoadAwareDeterminism, LoadAwareRunIsReproducible) {
  // Same (config, replication) => same metrics, with live load feedback on.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 10000;
  cfg.load = 0.8;
  cfg.ssp = core::make_eqs_load_aware();
  cfg.load_model = core::LoadModelSpec::parse("exact");
  const auto a = system::simulate(cfg, 0);
  const auto b = system::simulate(cfg, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  // The load model visibly changes scheduling relative to static EQS.
  cfg.ssp = core::make_eqs();
  cfg.load_model = core::LoadModelSpec{};
  const auto c = system::simulate(cfg, 0);
  EXPECT_NE(a.global.response.mean(), c.global.response.mean());
}

}  // namespace
