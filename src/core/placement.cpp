#include "dsrt/core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dsrt/core/load_model.hpp"
#include "dsrt/sim/sparse_shuffle.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::core {

NodeId PlacementPolicy::place_among(const PlacementContext& ctx,
                                    const Candidates& candidates) const {
  materialized_.assign(candidates.begin(), candidates.end());
  return place(ctx, materialized_);
}

NodeId StaticPlacement::place_among(const PlacementContext& ctx,
                                    const Candidates& candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("StaticPlacement: empty candidate set");
  ++counters_.decisions;
  if (candidates.contains(ctx.hint)) return ctx.hint;
  ++counters_.hint_fallbacks;
  return candidates[0];
}

NodeId JsqPlacement::place_among(const PlacementContext& ctx,
                                 const Candidates& candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("JsqPlacement: empty candidate set");
  ++counters_.decisions;
  if (const NodeId node = place_indexed(ctx, candidates); node != kNoNode)
    return node;
  // The scan, and the reference the index path reproduces. One model read
  // per candidate; the keys are kept in a high-water-reserved scratch so
  // the tie-indexing pass below never re-queries the board.
  keys_.clear();
  double best = 0;
  std::size_t ties = 0;
  for (const NodeId node : candidates) {
    double key = 0;
    if (ctx.load) {
      const NodeLoad load = ctx.load->load(node, ctx.now);
      // A crashed node is infinitely loaded: only chosen when every
      // candidate the model knows of is down (fail-fast + retry then deal
      // with the loser). Stale views un-mark it with the same delay as any
      // other load change.
      key = load.down ? std::numeric_limits<double>::infinity()
            : key_ == Key::QueuedPex ? load.queued_pex
                                     : load.utilization;
    }
    keys_.push_back(key);
    if (ties == 0 || key < best) {
      best = key;
      ties = 1;
    } else if (key == best) {
      ++ties;
    }
  }
  // Exact ties rotate through the per-run sequence counter: deterministic,
  // and uniform over the tied set on an idle board.
  if (ties > 1) ++counters_.exact_ties;
  std::size_t skip = static_cast<std::size_t>(seq_++ % ties);
  std::size_t i = 0;
  for (const NodeId node : candidates) {
    if (keys_[i++] == best) {
      if (skip == 0) return node;
      --skip;
    }
  }
  return candidates[0];  // unreachable
}

NodeId JsqPlacement::place_indexed(const PlacementContext& ctx,
                                   const Candidates& candidates) const {
  const EligibleSet& set = candidates.eligible();
  if (key_ != Key::QueuedPex || !ctx.load || !set.is_range()) return kNoNode;
  const BacklogIndex* index = ctx.load->backlog_index();
  const std::size_t first = set.first();
  const std::size_t end = first + set.size();
  if (!index || end > index->size()) return kNoNode;
  // The interval minus the taken positions is a handful of sub-ranges;
  // visit each as [lo, hi) in node order.
  const auto for_each_piece = [&](auto&& fn) {
    std::size_t lo = first;
    for (const std::uint32_t p : candidates.skipped()) {
      const std::size_t hi = first + p;
      if (lo < hi) fn(lo, hi);
      lo = hi + 1;
    }
    if (lo < end) fn(lo, end);
  };
  // Exact zeros are counted over the whole decision first: when any
  // candidate holds one, the minimum is (0, zeros) and the pick is the
  // rotated zero in node order, all from the bitset — the tree is not
  // flushed. Asking piece by piece would flush whenever one small piece
  // between two taken nodes held none.
  std::size_t zeros = 0;
  if (index->zeros_least()) {
    zeros = index->zeros_in(first, end);
    for (const std::uint32_t p : candidates.skipped())
      zeros -= index->is_zero(first + p);
  }
  if (zeros > 0) {
    ++index_counters_.zero_answers;
    if (zeros > 1) ++counters_.exact_ties;
    std::size_t skip = static_cast<std::size_t>(seq_++ % zeros);
    NodeId chosen = kNoNode;
    for_each_piece([&](std::size_t lo, std::size_t hi) {
      if (chosen != kNoNode) return;
      const std::size_t z = index->zeros_in(lo, hi);
      if (skip < z) {
        chosen = static_cast<NodeId>(index->nth_zero(lo, hi, skip));
      } else {
        skip -= z;
      }
    });
    return chosen;
  }
  // No zero among the candidates: the tree answers. Each piece's
  // (min, count) is read from it once; the second walk finds the piece
  // holding the rotated minimum from the stored pairs.
  index_counters_.flushed_leaves += index->flush();
  piece_mins_.clear();
  BacklogIndex::Min best;
  for_each_piece([&](std::size_t lo, std::size_t hi) {
    piece_mins_.push_back(index->min_over(lo, hi));
    best = BacklogIndex::Min::merge(best, piece_mins_.back());
  });
  // Every candidate down: let the scan pick among the +inf keys.
  if (best.key == std::numeric_limits<double>::infinity()) return kNoNode;
  ++index_counters_.tree_answers;
  if (best.count > 1) ++counters_.exact_ties;
  std::size_t skip = static_cast<std::size_t>(seq_++ % best.count);
  NodeId chosen = kNoNode;
  std::size_t piece = 0;
  for_each_piece([&](std::size_t lo, std::size_t hi) {
    const BacklogIndex::Min m = piece_mins_[piece++];
    if (chosen != kNoNode || m.key != best.key) return;
    if (skip < m.count) {
      chosen = static_cast<NodeId>(index->nth_min(lo, hi, best.key, skip));
    } else {
      skip -= m.count;
    }
  });
  return chosen;
}

PodPlacement::PodPlacement(std::uint32_t d, sim::Rng rng)
    : d_(d),
      rng_(rng),
      shuffle_table_(sim::SparseShuffle::table_words(d)) {}

NodeId PodPlacement::place_among(const PlacementContext& ctx,
                                 const Candidates& candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("PodPlacement: empty candidate set");
  ++counters_.decisions;
  const std::size_t n = candidates.size();
  const auto key_of = [&](NodeId node) {
    if (!ctx.load) return 0.0;
    const NodeLoad load = ctx.load->load(node, ctx.now);
    // Down = infinitely loaded, as in JsqPlacement.
    return load.down ? std::numeric_limits<double>::infinity()
                     : load.queued_pex;
  };
  NodeId best_node = kNoNode;
  double best = 0;
  std::size_t ties = 0;
  const auto consider = [&](NodeId node) {
    const double key = key_of(node);
    if (ties == 0 || key < best) {
      best = key;
      best_node = node;
      ties = 1;
    } else if (key == best) {
      // First minimum in draw order wins; the random sample itself
      // provides the idle-board spread jsq gets from tie rotation.
      ++ties;
    }
  };
  if (n <= d_) {
    // Exhaustive fallback: a set this small is cheaper to scan than to
    // sample, and — per the documented draw-order contract — it consumes
    // NO rng draws, so narrow distinct-site leftovers never shift the
    // stream seen by the wide decisions around them.
    for (const NodeId node : candidates) consider(node);
  } else {
    // Partial Fisher-Yates over the candidate positions: exactly d_ draws
    // of rng.below(n - j), each picking one not-yet-sampled candidate
    // uniformly (sampling without replacement).
    sim::SparseShuffle shuffle(n, shuffle_table_);
    for (std::uint32_t j = 0; j < d_; ++j)
      consider(candidates[shuffle.next(rng_)]);
  }
  if (ties > 1) ++counters_.exact_ties;
  return best_node;
}

namespace {

/// Single source of truth for name-addressable placement policies: lookup,
/// error messages, and the CLI help vocabulary all read this table.
struct PlacementRegistryEntry {
  std::string_view name;
  PlacementKind kind;
};

constexpr PlacementRegistryEntry kPlacementRegistry[] = {
    {"static", PlacementKind::Static},
    {"jsq-pex", PlacementKind::JsqPex},
    {"jsq-util", PlacementKind::JsqUtil},
    {"pod", PlacementKind::PowerOfD},
};

std::string vocabulary() {
  std::string out;
  for (const auto& entry : kPlacementRegistry) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

}  // namespace

PlacementSpec PlacementSpec::parse(std::string_view text) {
  std::string_view kind = text;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    const std::string_view param = text.substr(colon + 1);
    if (kind == "pod") {
      // The only parameterized kind: pod:<d>, d an integer in
      // [1, kMaxPodD]. A trailing colon, zero, huge, or non-integral d is
      // a malformed spec, not a request for the default — rejecting keeps
      // a typo from silently sampling a different number of choices.
      if (param.empty())
        throw std::invalid_argument("PlacementSpec: empty parameter in '" +
                                    std::string(text) + "'");
      const auto value = util::parse_double(param);
      if (!value || *value != std::floor(*value))
        throw std::invalid_argument("PlacementSpec: bad pod sample size '" +
                                    std::string(param) +
                                    "' (want an integer)");
      if (*value < 1.0)
        throw std::invalid_argument(
            "PlacementSpec: pod sample size must be >= 1 (got '" +
            std::string(param) + "')");
      if (*value > static_cast<double>(PlacementSpec::kMaxPodD))
        throw std::invalid_argument(
            "PlacementSpec: pod sample size " + std::string(param) +
            " exceeds the maximum " + std::to_string(PlacementSpec::kMaxPodD));
      PlacementSpec spec;
      spec.kind = PlacementKind::PowerOfD;
      spec.d = static_cast<std::uint32_t>(*value);
      return spec;
    }
    // No other placement kind is parameterized; rejecting the whole token
    // (rather than silently ignoring the suffix) keeps "jsq-pex:junk" from
    // running as a half-parsed jsq-pex.
    for (const auto& entry : kPlacementRegistry) {
      if (kind == entry.name)
        throw std::invalid_argument("PlacementSpec: '" + std::string(kind) +
                                    "' takes no parameter (got '" +
                                    std::string(text) + "')");
    }
  }
  for (const auto& entry : kPlacementRegistry) {
    if (text == entry.name) {
      PlacementSpec spec;
      spec.kind = entry.kind;  // bare "pod" keeps the default d = 2
      return spec;
    }
  }
  throw std::invalid_argument("PlacementSpec: unknown placement '" +
                              std::string(text) + "' (want " + vocabulary() +
                              ")");
}

std::string PlacementSpec::describe() const {
  if (kind == PlacementKind::PowerOfD) return "pod:" + std::to_string(d);
  for (const auto& entry : kPlacementRegistry)
    if (entry.kind == kind) return std::string(entry.name);
  return "static";  // unreachable
}

PlacementPolicyPtr make_placement(const PlacementSpec& spec,
                                  std::uint64_t seed) {
  switch (spec.kind) {
    case PlacementKind::Static:
      return std::make_shared<StaticPlacement>();
    case PlacementKind::JsqPex:
      return std::make_shared<JsqPlacement>(JsqPlacement::Key::QueuedPex);
    case PlacementKind::JsqUtil:
      return std::make_shared<JsqPlacement>(JsqPlacement::Key::Utilization);
    case PlacementKind::PowerOfD:
      if (spec.d < 1 || spec.d > PlacementSpec::kMaxPodD)
        throw std::invalid_argument("make_placement: pod sample size " +
                                    std::to_string(spec.d) +
                                    " outside [1, " +
                                    std::to_string(PlacementSpec::kMaxPodD) +
                                    "]");
      return std::make_shared<PodPlacement>(
          spec.d, sim::Rng(seed, kPlacementRngStream));
  }
  throw std::logic_error("make_placement: bad kind");
}

std::vector<std::string_view> placement_names() {
  std::vector<std::string_view> names;
  for (const auto& entry : kPlacementRegistry) names.push_back(entry.name);
  return names;
}

}  // namespace dsrt::core
