#include "dsrt/system/metrics.hpp"

#include <algorithm>

namespace dsrt::system {

void ClassMetrics::reset() { *this = ClassMetrics{}; }

void ClassMetrics::record_completed(double response_time,
                                    double lateness_value) {
  missed.add(lateness_value > 0);
  response.add(response_time);
  lateness.add(lateness_value);
  tardiness.add(std::max(0.0, lateness_value));
  response_hist.add(response_time);
}

void ClassMetrics::record_aborted() {
  missed.add(true);
  ++aborted;
}

void ClassMetrics::record_failed() {
  missed.add(true);
  ++failed;
}

void ClassMetrics::record_shed() {
  missed.add(true);
  ++shed;
}

void ClassMetrics::merge(const ClassMetrics& other) {
  missed.merge(other.missed);
  response.merge(other.response);
  lateness.merge(other.lateness);
  tardiness.merge(other.tardiness);
  response_hist.merge(other.response_hist);
  generated += other.generated;
  aborted += other.aborted;
  failed += other.failed;
  shed += other.shed;
}

void StageMetrics::merge(const StageMetrics& other) {
  window.merge(other.window);
  wait.merge(other.wait);
  virtual_miss.merge(other.virtual_miss);
}

void RunMetrics::merge(const RunMetrics& other) {
  local.merge(other.local);
  global.merge(other.global);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    global_missed_by_width[i].merge(other.global_missed_by_width[i]);
    stages[i].merge(other.stages[i]);
  }
  subtask_wait.merge(other.subtask_wait);
  local_wait.merge(other.local_wait);
  const double span = observed_span + other.observed_span;
  if (span > 0) {
    mean_utilization = (mean_utilization * observed_span +
                        other.mean_utilization * other.observed_span) /
                       span;
    mean_link_utilization =
        (mean_link_utilization * observed_span +
         other.mean_link_utilization * other.observed_span) /
        span;
  }
  events += other.events;
  observed_span = span;
  counters.merge(other.counters);
}

void RunMetrics::reset() {
  local.reset();
  global.reset();
  global_missed_by_width = {};
  stages = {};
  subtask_wait.reset();
  local_wait.reset();
  mean_utilization = 0;
  mean_link_utilization = 0;
  events = 0;
  observed_span = 0;
  counters.clear();
}

}  // namespace dsrt::system
