// Unit tests for the task attributes (Section 3.1) and serial-parallel
// task trees.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/core/task_spec.hpp"

namespace {

using namespace dsrt::core;

TEST(TaskAttributes, DeadlineIdentity) {
  // dl(X) = ar(X) + ex(X) + sl(X).
  const auto a = TaskAttributes::from_slack(/*arrival=*/10.0, /*exec=*/3.0,
                                            /*slack=*/2.0);
  EXPECT_DOUBLE_EQ(a.deadline, 15.0);
  EXPECT_DOUBLE_EQ(a.slack(), 2.0);
  EXPECT_DOUBLE_EQ(a.predicted_exec, 3.0);
}

TEST(TaskAttributes, Flexibility) {
  // fl(X) = sl(X)/ex(X).
  const auto a = TaskAttributes::from_slack(0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(a.flexibility(), 0.5);
}

TEST(TaskAttributes, FlexibilityZeroExec) {
  TaskAttributes a;
  a.arrival = 0;
  a.exec = 0;
  a.deadline = 1;  // slack 1, exec 0
  EXPECT_TRUE(std::isinf(a.flexibility()));
  a.deadline = 0;
  EXPECT_DOUBLE_EQ(a.flexibility(), 0.0);
}

TEST(TaskSpec, SimpleLeaf) {
  const auto leaf = TaskSpec::simple(3, 2.0, 1.8);
  EXPECT_TRUE(leaf.is_simple());
  EXPECT_EQ(leaf.node(), 3u);
  EXPECT_DOUBLE_EQ(leaf.exec(), 2.0);
  EXPECT_DOUBLE_EQ(leaf.pex(), 1.8);
  EXPECT_DOUBLE_EQ(leaf.predicted_duration(), 1.8);
  EXPECT_DOUBLE_EQ(leaf.critical_path_exec(), 2.0);
  EXPECT_EQ(leaf.leaf_count(), 1u);
  EXPECT_EQ(leaf.depth(), 1u);
}

TEST(TaskSpec, PerfectPredictionDefault) {
  const auto leaf = TaskSpec::simple(0, 2.5);
  EXPECT_DOUBLE_EQ(leaf.pex(), 2.5);
}

TEST(TaskSpec, RejectsNegativeTimes) {
  EXPECT_THROW(TaskSpec::simple(0, -1.0), std::invalid_argument);
  EXPECT_THROW(TaskSpec::simple(0, 1.0, -0.5), std::invalid_argument);
}

TEST(TaskSpec, RejectsEmptyCompositions) {
  EXPECT_THROW(TaskSpec::serial({}), std::invalid_argument);
  EXPECT_THROW(TaskSpec::parallel({}), std::invalid_argument);
}

TEST(TaskSpec, ComplexAccessorsThrowOnLeafQueries) {
  const auto t = TaskSpec::serial({TaskSpec::simple(0, 1.0)});
  EXPECT_THROW(t.node(), std::logic_error);
  EXPECT_THROW(t.exec(), std::logic_error);
  EXPECT_THROW(t.pex(), std::logic_error);
}

TEST(TaskSpec, SerialAggregation) {
  // T = [T1 T2 T3]: duration sums.
  const auto t = TaskSpec::serial({TaskSpec::simple(0, 1.0),
                                   TaskSpec::simple(1, 2.0),
                                   TaskSpec::simple(2, 3.0)});
  EXPECT_EQ(t.kind(), SpecKind::Serial);
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 6.0);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 6.0);
  EXPECT_DOUBLE_EQ(t.total_exec(), 6.0);
  EXPECT_EQ(t.leaf_count(), 3u);
  EXPECT_EQ(t.depth(), 2u);
}

TEST(TaskSpec, ParallelAggregation) {
  // T = [T1 || T2 || T3]: duration is the max, work is the sum.
  const auto t = TaskSpec::parallel({TaskSpec::simple(0, 1.0),
                                     TaskSpec::simple(1, 5.0),
                                     TaskSpec::simple(2, 3.0)});
  EXPECT_EQ(t.kind(), SpecKind::Parallel);
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 5.0);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 5.0);
  EXPECT_DOUBLE_EQ(t.total_exec(), 9.0);
  EXPECT_EQ(t.leaf_count(), 3u);
}

TEST(TaskSpec, NestedSerialParallel) {
  // T = [A [B || C] D] with A=1, B=2, C=4, D=1.
  const auto t = TaskSpec::serial({
      TaskSpec::simple(0, 1.0),
      TaskSpec::parallel({TaskSpec::simple(1, 2.0), TaskSpec::simple(2, 4.0)}),
      TaskSpec::simple(0, 1.0),
  });
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 6.0);  // 1 + max(2,4) + 1
  EXPECT_DOUBLE_EQ(t.total_exec(), 8.0);
  EXPECT_EQ(t.leaf_count(), 4u);
  EXPECT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.to_string(), "[T@0 [T@1 || T@2] T@0]");
}

TEST(TaskSpec, PexDivergesFromExecInAggregates) {
  // Predicted durations use pex, critical path uses ex.
  const auto t = TaskSpec::serial({TaskSpec::simple(0, 2.0, 1.0),
                                   TaskSpec::simple(1, 2.0, 1.5)});
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 2.5);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 4.0);
}

TEST(TaskSpec, DeepNesting) {
  auto t = TaskSpec::simple(0, 1.0);
  for (int i = 0; i < 20; ++i)
    t = TaskSpec::serial({t, TaskSpec::simple(0, 1.0)});
  EXPECT_EQ(t.leaf_count(), 21u);
  EXPECT_EQ(t.depth(), 21u);
  EXPECT_DOUBLE_EQ(t.total_exec(), 21.0);
}

TEST(TaskSpecEligible, RangesAreIntervalsAndListsArePooled) {
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  b.begin_parallel();
  b.leaf_among(5, 4, 4096, 1.0, 1.0);
  const std::vector<NodeId> list = {9, 2, 7};
  b.leaf_among(2, list, 1.0, 1.0);
  b.end();
  b.finish();
  const EligibleSet range = spec.root().child(0).eligible();
  EXPECT_TRUE(range.is_range());
  EXPECT_EQ(range.size(), 4096u);
  EXPECT_EQ(range[0], 4u);
  EXPECT_EQ(range[4095], 4099u);
  EXPECT_TRUE(range.contains(4099));
  EXPECT_FALSE(range.contains(3));
  EXPECT_FALSE(range.contains(4100));
  // Only the explicit list occupies the pool, in its given order.
  EXPECT_EQ(spec.eligible_pool().size(), 3u);
  const EligibleSet pooled = spec.root().child(1).eligible();
  EXPECT_FALSE(pooled.is_range());
  EXPECT_EQ(std::vector<NodeId>(pooled.begin(), pooled.end()), list);
  EXPECT_EQ(pooled.position(7), 2u);
  EXPECT_EQ(pooled.position(8), 3u);

  // Re-emitting through the EligibleSet overload keeps each form.
  TaskSpec copy;
  b.reset(copy);
  b.begin_parallel();
  b.leaf_among(5, range, 1.0, 1.0);
  b.leaf_among(2, pooled, 1.0, 1.0);
  b.end();
  b.finish();
  EXPECT_EQ(copy.to_string(), spec.to_string());
  EXPECT_TRUE(copy.root().child(0).eligible().is_range());
  EXPECT_EQ(copy.eligible_pool().size(), 3u);
}

TEST(TaskSpecEligible, RejectsDuplicatesOverflowAndReservedIds) {
  TaskSpec spec;
  TaskSpecBuilder b;
  const auto attempt = [&](auto&& emit) {
    b.reset(spec);
    emit();
  };
  EXPECT_THROW(attempt([&] {
                 b.leaf_among(1, std::vector<NodeId>{1, 1, 2}, 1.0, 1.0);
               }),
               std::invalid_argument);
  EXPECT_THROW(attempt([&] {
                 b.leaf_among(0, std::vector<NodeId>{0, kNoNode}, 1.0, 1.0);
               }),
               std::invalid_argument);
  // first + count wraps past 2^32, or takes in the reserved kNoNode.
  EXPECT_THROW(attempt([&] { b.leaf_among(10, 10, kNoNode, 1.0, 1.0); }),
               std::invalid_argument);
  EXPECT_THROW(attempt([&] { b.leaf_among(1, 1, kNoNode, 1.0, 1.0); }),
               std::invalid_argument);
  // The widest legal interval: every id below kNoNode.
  attempt([&] { b.leaf_among(3, 0, kNoNode, 1.0, 1.0); });
  b.finish();
  EXPECT_EQ(spec.eligible().size(), std::size_t{kNoNode});
}

}  // namespace
