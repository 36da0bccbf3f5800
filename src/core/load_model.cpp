#include "dsrt/core/load_model.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "dsrt/util/flags.hpp"

namespace dsrt::core {

BacklogIndex::BacklogIndex(const std::vector<double>& keys)
    : size_(keys.size()), leaves_(1) {
  while (leaves_ < size_) leaves_ *= 2;
  tree_.assign(2 * leaves_, Min{});
  for (std::size_t i = 0; i < size_; ++i) tree_[leaves_ + i] = {keys[i], 1};
  for (std::size_t v = leaves_; v-- > 1;)
    tree_[v] = Min::merge(tree_[2 * v], tree_[2 * v + 1]);
}

BacklogIndex::Min BacklogIndex::min_over(std::size_t lo,
                                         std::size_t hi) const {
  Min acc;
  for (std::size_t l = lo + leaves_, r = hi + leaves_; l < r; l /= 2, r /= 2) {
    if (l & 1) acc = Min::merge(acc, tree_[l++]);
    if (r & 1) acc = Min::merge(acc, tree_[--r]);
  }
  return acc;
}

std::size_t BacklogIndex::nth_min(std::size_t lo, std::size_t hi, double key,
                                  std::size_t s) const {
  // The canonical cover of [lo, hi): left-side vertices arrive in node
  // order, right-side ones in reverse; at most one of each per level.
  std::size_t left[64], right[64];
  std::size_t nl = 0, nr = 0;
  for (std::size_t l = lo + leaves_, r = hi + leaves_; l < r; l /= 2, r /= 2) {
    if (l & 1) left[nl++] = l++;
    if (r & 1) right[nr++] = --r;
  }
  const auto descend = [&](std::size_t v) {
    while (v < leaves_) {
      const std::size_t l = 2 * v;
      if (tree_[l].key == key) {
        if (s < tree_[l].count) {
          v = l;
          continue;
        }
        s -= tree_[l].count;
      }
      v = l + 1;
    }
    return v - leaves_;
  };
  for (std::size_t i = 0; i < nl + nr; ++i) {
    const std::size_t v = i < nl ? left[i] : right[nr - 1 - (i - nl)];
    if (tree_[v].key != key) continue;
    if (s < tree_[v].count) return descend(v);
    s -= tree_[v].count;
  }
  throw std::logic_error("BacklogIndex::nth_min: fewer minima than asked");
}

void LoadBoard::resize(std::size_t n) {
  detach_index();
  while (shards_.size() * kShardSize < n)
    shards_.push_back(std::make_unique<Shard>());
  size_ = n;
}

const BacklogIndex& LoadBoard::backlog_index() const {
  if (!index_) {
    std::vector<double> keys(size_);
    for_each([&](std::size_t i, const LoadAccount& acct) {
      keys[i] = acct.pex_key();
    });
    index_ = std::make_unique<BacklogIndex>(keys);
    for_each([&](std::size_t i, const LoadAccount& acct) {
      acct.index_ = index_.get();
      acct.slot_ = static_cast<std::uint32_t>(i);
    });
  }
  return *index_;
}

void LoadBoard::detach_index() {
  if (!index_) return;
  for_each([](std::size_t, const LoadAccount& acct) { acct.index_ = nullptr; });
  index_.reset();
}

void LoadAccount::configure(double tau, sim::Time now) {
  if (tau <= 0) throw std::invalid_argument("LoadAccount: tau <= 0");
  tau_ = tau;
  last_update_ = now;
}

double LoadAccount::ewma_at(sim::Time now) const {
  const double dt = now - last_update_;
  if (dt <= 0) return util_ewma_;
  const double a = 1.0 - std::exp(-dt / tau_);
  return util_ewma_ + a * ((busy_ ? 1.0 : 0.0) - util_ewma_);
}

void LoadAccount::set_busy(sim::Time now, bool busy) {
  util_ewma_ = ewma_at(now);
  last_update_ = now;
  busy_ = busy;
}

NodeLoad LoadAccount::read(sim::Time now) const {
  NodeLoad load;
  load.queued_pex = backlog_;
  load.utilization = ewma_at(now);
  load.queue_length = queue_length_;
  load.down = down_;
  return load;
}

NodeLoad ExactLoadModel::load(NodeId node, sim::Time now) const {
  ++reads_;
  if (node >= accounts_.size()) return {};
  return accounts_[node].read(now);
}

const BacklogIndex* ExactLoadModel::backlog_index() const {
  ++reads_;
  return &accounts_.backlog_index();
}

SnapshotLoadModel::SnapshotLoadModel(const LoadBoard& accounts,
                                     sim::Time period, Serve serve)
    : accounts_(accounts),
      period_(period),
      serve_(serve),
      current_(accounts.size()),
      previous_(accounts.size()) {
  if (period <= 0)
    throw std::invalid_argument("SnapshotLoadModel: period <= 0");
}

void SnapshotLoadModel::refresh(sim::Time now) {
  previous_.swap(current_);
  previous_at_ = current_at_;
  current_at_ = now;
  ++refreshes_;
  // Shard-wise sweep over the board: each block is cache-resident and
  // independent of the lines the nodes are writing concurrently-in-sim-
  // time, so the k=4096 refresh stays a tight streaming loop.
  accounts_.for_each(
      [&](std::size_t i, const LoadAccount& acct) {
        current_[i] = acct.read(now);
      });
}

NodeLoad SnapshotLoadModel::load(NodeId node, sim::Time now) const {
  ++reads_;
  age_sum_ += now - (serve_ == Serve::Latest ? current_at_ : previous_at_);
  const auto& served = serve_ == Serve::Latest ? current_ : previous_;
  if (node >= served.size()) return {};
  return served[node];
}

LoadModelSpec LoadModelSpec::parse(std::string_view text) {
  LoadModelSpec spec;
  std::string_view kind = text;
  std::string_view param;
  bool has_param = false;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    param = text.substr(colon + 1);
    has_param = true;
    // A trailing colon ("sampled:") is a malformed spec, not a request for
    // the default period — rejecting it keeps a typo from silently running
    // with different freshness than the caller intended.
    if (param.empty())
      throw std::invalid_argument("LoadModelSpec: empty parameter in '" +
                                  std::string(text) + "'");
  }
  if (kind == "none") {
    spec.kind = LoadModelKind::None;
  } else if (kind == "exact") {
    spec.kind = LoadModelKind::Exact;
  } else if (kind == "sampled") {
    spec.kind = LoadModelKind::Sampled;
  } else if (kind == "stale") {
    spec.kind = LoadModelKind::Stale;
  } else {
    throw std::invalid_argument("LoadModelSpec: unknown load model '" +
                                std::string(text) +
                                "' (want none|exact|sampled[:p]|stale[:d])");
  }
  if (has_param) {
    if (spec.kind == LoadModelKind::None || spec.kind == LoadModelKind::Exact)
      throw std::invalid_argument(
          "LoadModelSpec: '" + std::string(kind) + "' takes no parameter");
    const auto period = util::parse_double(param);
    if (!period)
      throw std::invalid_argument("LoadModelSpec: bad period '" +
                                  std::string(param) + "'");
    spec.period = *period;
  }
  spec.validate();
  return spec;
}

std::string LoadModelSpec::describe() const {
  std::ostringstream os;
  switch (kind) {
    case LoadModelKind::None: return "none";
    case LoadModelKind::Exact: return "exact";
    case LoadModelKind::Sampled: os << "sampled:" << period; break;
    case LoadModelKind::Stale: os << "stale:" << period; break;
  }
  return os.str();
}

void LoadModelSpec::validate() const {
  // tau is checked even with kind None so a bad --lm_tau fails fast
  // instead of lying dormant until a load model is switched on.
  if (!(ewma_tau > 0))
    throw std::invalid_argument("LoadModelSpec: ewma_tau <= 0");
  if (kind == LoadModelKind::None) return;
  if (!(period > 0))
    throw std::invalid_argument("LoadModelSpec: period <= 0");
}

}  // namespace dsrt::core
