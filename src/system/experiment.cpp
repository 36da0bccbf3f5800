#include "dsrt/system/experiment.hpp"

#include <stdexcept>

namespace dsrt::system {

ExperimentResult aggregate_runs(std::vector<RunMetrics> runs,
                                double confidence) {
  if (runs.empty())
    throw std::invalid_argument("aggregate_runs: no replications");
  ExperimentResult result;

  std::vector<double> md_local, md_global, md_overall;
  std::vector<double> resp_local, resp_global, util;
  for (const RunMetrics& m : runs) {
    md_local.push_back(m.local.missed.value());
    md_global.push_back(m.global.missed.value());
    const auto trials = m.local.missed.trials() + m.global.missed.trials();
    const auto hits = m.local.missed.hits() + m.global.missed.hits();
    md_overall.push_back(
        trials == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(trials));
    resp_local.push_back(m.local.response.mean());
    resp_global.push_back(m.global.response.mean());
    util.push_back(m.mean_utilization);
  }
  result.runs = std::move(runs);
  for (const RunMetrics& m : result.runs) result.counters.merge(m.counters);

  result.md_local = stats::replication_estimate(md_local, confidence);
  result.md_global = stats::replication_estimate(md_global, confidence);
  result.md_overall = stats::replication_estimate(md_overall, confidence);
  result.response_local = stats::replication_estimate(resp_local, confidence);
  result.response_global =
      stats::replication_estimate(resp_global, confidence);
  result.utilization = stats::replication_estimate(util, confidence);
  return result;
}

}  // namespace dsrt::system
