// Tests for the observer hooks and the trace recorder.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/trace/recorder.hpp"

namespace {

using namespace dsrt;

system::Config tiny_config() {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 2000;
  return cfg;
}

TEST(Recorder, CapturesFullLifecycles) {
  trace::Recorder recorder(1u << 20);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  const auto metrics = run.run();

  std::size_t arrivals = 0, submits = 0, finishes = 0;
  for (const auto& e : recorder.events()) {
    switch (e.kind) {
      case trace::TraceKind::GlobalArrival: ++arrivals; break;
      case trace::TraceKind::SubtaskSubmit: ++submits; break;
      case trace::TraceKind::GlobalFinish:
      case trace::TraceKind::GlobalMiss: ++finishes; break;
      default: break;
    }
  }
  EXPECT_EQ(arrivals, metrics.global.generated);
  EXPECT_EQ(finishes, metrics.global.missed.trials());
  // Every completed 4-stage task contributes 4 submissions; in-flight tasks
  // at the horizon contribute 1..4.
  EXPECT_GE(submits, 4 * finishes);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(Recorder, TimelineIsChronological) {
  trace::Recorder recorder(1u << 20);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.run();
  double last = 0;
  for (const auto& e : recorder.events()) {
    EXPECT_GE(e.at, last);
    last = e.at;
  }
}

TEST(Recorder, TaskTimelineOrdered) {
  trace::Recorder recorder(1u << 20);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.run();
  const auto timeline = recorder.task_timeline(1);
  ASSERT_GE(timeline.size(), 3u);  // arrival + >=1 submit + finish
  EXPECT_EQ(timeline.front().kind, trace::TraceKind::GlobalArrival);
  // Stages of a serial task appear in order 0,1,2,3.
  std::size_t expected_stage = 0;
  for (const auto& e : timeline) {
    if (e.kind == trace::TraceKind::SubtaskSubmit)
      EXPECT_EQ(e.stage, expected_stage++);
  }
}

TEST(Recorder, CapacityBoundsMemory) {
  trace::Recorder recorder(10);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.run();
  EXPECT_EQ(recorder.events().size(), 10u);
  EXPECT_GT(recorder.dropped(), 0u);
  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(Recorder, KeepTailRingKeepsMostRecent) {
  trace::Recorder head(10);  // default KeepHead
  trace::Recorder tail(10, trace::Overflow::KeepTail);
  obs::ObserverTee tee;
  tee.attach(&head);
  tee.attach(&tail);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&tee);
  run.run();

  ASSERT_EQ(head.events().size(), 10u);
  ASSERT_EQ(tail.events().size(), 10u);
  EXPECT_EQ(head.dropped(), tail.dropped());
  EXPECT_GT(tail.dropped(), 0u);

  // KeepHead holds the run's first events, KeepTail its last: the ring's
  // earliest kept timestamp is later than everything the head kept.
  const auto ordered = tail.ordered();
  ASSERT_EQ(ordered.size(), 10u);
  EXPECT_GT(ordered.front().at, head.events().back().at);
  double last = ordered.front().at;
  for (const auto& e : ordered) {
    EXPECT_GE(e.at, last);  // chronological despite the rotated storage
    last = e.at;
  }

  std::ostringstream os;
  tail.print(os, 100);
  EXPECT_NE(os.str().find("overwritten"), std::string::npos);

  tail.clear();
  EXPECT_TRUE(tail.events().empty());
  EXPECT_EQ(tail.dropped(), 0u);
}

void expect_same_event(const trace::TraceEvent& a, const trace::TraceEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.at, b.at);
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.stage, b.stage);
}

TEST(Recorder, KeepTailRingHoldsTheRunsLastEvents) {
  // Whatever its capacity, a ring that wrapped many times keeps exactly
  // the last `capacity` events an unbounded recorder saw on the same tee,
  // field by field and in order.
  const std::size_t capacities[] = {1, 7, 4096};
  trace::Recorder all(std::size_t{1} << 22);
  std::vector<std::unique_ptr<trace::Recorder>> rings;
  obs::ObserverTee tee;
  tee.attach(&all);
  for (std::size_t c : capacities) {
    rings.push_back(
        std::make_unique<trace::Recorder>(c, trace::Overflow::KeepTail));
    tee.attach(rings.back().get());
  }
  system::Config cfg = tiny_config();
  cfg.horizon = 20000;
  system::SimulationRun run(cfg, 0);
  run.set_observer(&tee);
  run.run();

  const std::vector<trace::TraceEvent>& seen = all.events();
  ASSERT_EQ(all.dropped(), 0u);
  ASSERT_GT(seen.size(), 10 * capacities[2]);  // the largest ring wraps 10+
  for (const auto& ring : rings) {
    const std::size_t c = ring->events().size();
    SCOPED_TRACE(c);
    ASSERT_EQ(ring->dropped(), seen.size() - c);
    const std::vector<trace::TraceEvent> kept = ring->ordered();
    ASSERT_EQ(kept.size(), c);
    const std::size_t first = seen.size() - c;
    for (std::size_t i = 0; i < c; ++i)
      expect_same_event(kept[i], seen[first + i]);

    // A task's timeline is its events among the kept tail, in order.
    for (const trace::TraceEvent& probe : {kept.front(), kept.back()}) {
      std::vector<trace::TraceEvent> expected;
      for (std::size_t i = first; i < seen.size(); ++i)
        if (seen[i].task == probe.task) expected.push_back(seen[i]);
      const std::vector<trace::TraceEvent> timeline =
          ring->task_timeline(probe.task);
      ASSERT_EQ(timeline.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        expect_same_event(timeline[i], expected[i]);
    }
  }
  EXPECT_EQ(rings[0]->events().size(), 1u);
  EXPECT_EQ(rings[1]->events().size(), 7u);
  EXPECT_EQ(rings[2]->events().size(), 4096u);
}

TEST(Recorder, PrintSurfacesDroppedCount) {
  trace::Recorder recorder(10);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.run();
  ASSERT_GT(recorder.dropped(), 0u);
  std::ostringstream os;
  recorder.print(os, 100);
  EXPECT_NE(os.str().find("dropped"), std::string::npos);
  EXPECT_NE(os.str().find(std::to_string(recorder.dropped())),
            std::string::npos);
}

TEST(Recorder, PrintProducesOutput) {
  trace::Recorder recorder(100);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.run();
  std::ostringstream os;
  recorder.print(os, 100);
  // Locals dominate the arrival stream, so at minimum their submissions
  // appear; the truncation marker shows when events overflow the limit.
  EXPECT_NE(os.str().find("local-submit"), std::string::npos);
  std::ostringstream truncated;
  recorder.print(truncated, 5);
  EXPECT_NE(truncated.str().find("more)"), std::string::npos);
}

TEST(Recorder, EveryEndedGlobalTaskHasOneTerminalEvent) {
  // Crashes with a retry budget and admission shedding: tasks also end
  // failed or shed, and those must close their timelines too.
  system::Config cfg = tiny_config();
  cfg.horizon = 20000;
  cfg.load = 0.85;
  system::config_setter("faults", "crash:200,20;retry:2;shed:1.5")(cfg);
  trace::Recorder recorder(std::numeric_limits<std::size_t>::max());
  system::SimulationRun run(cfg, 0);
  run.set_observer(&recorder);
  const auto metrics = run.run();
  ASSERT_GT(metrics.global.failed, 0u);
  ASSERT_GT(metrics.global.shed, 0u);
  ASSERT_EQ(recorder.dropped(), 0u);

  std::map<core::TaskId, int> terminals;  // per arrived task
  for (const trace::TraceEvent& e : recorder.events()) {
    switch (e.kind) {
      case trace::TraceKind::GlobalArrival:
        terminals.emplace(e.task, 0);
        break;
      case trace::TraceKind::LocalSubmit:
      case trace::TraceKind::SubtaskSubmit:
      case trace::TraceKind::JobComplete:
      case trace::TraceKind::JobAbort:
        break;
      default:
        ++terminals.at(e.task);
    }
  }
  ASSERT_EQ(terminals.size(), metrics.global.generated);
  std::uint64_t live = 0;
  for (const auto& [task, count] : terminals) {
    EXPECT_LE(count, 1) << "task " << task;
    if (count == 0) ++live;
  }
  // Tasks without one are exactly those still in flight at the horizon.
  EXPECT_EQ(live, metrics.global.generated - metrics.global.missed.trials());
}

TEST(Observer, DetachWorks) {
  trace::Recorder recorder(100);
  system::SimulationRun run(tiny_config(), 0);
  run.set_observer(&recorder);
  run.set_observer(nullptr);
  run.run();
  EXPECT_TRUE(recorder.events().empty());
}

}  // namespace
