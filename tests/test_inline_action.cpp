// Unit tests for the kernel's allocation-free callable.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>

#include "dsrt/sim/inline_action.hpp"

namespace {

using dsrt::sim::InlineAction;

TEST(InlineAction, DefaultIsEmpty) {
  InlineAction a;
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineAction, InvokesCapturedState) {
  int hits = 0;
  InlineAction a = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, MoveTransfersOwnership) {
  int hits = 0;
  InlineAction a = [&hits] { ++hits; };
  InlineAction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, MoveAssignReplacesAndDestroysOldCallable) {
  auto token = std::make_shared<int>(7);
  InlineAction a = [token] { };  // non-trivial capture
  EXPECT_EQ(token.use_count(), 2);
  InlineAction b = [] {};
  a = std::move(b);  // must destroy the shared_ptr capture
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(b));
  EXPECT_TRUE(static_cast<bool>(a));
}

TEST(InlineAction, NonTrivialCaptureSurvivesMoveChain) {
  auto counter = std::make_shared<int>(0);
  InlineAction a = [counter] { ++*counter; };
  InlineAction b = std::move(a);
  InlineAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 2);  // exactly one live copy inside c
  c = [] {};
  EXPECT_EQ(counter.use_count(), 1);  // released on replacement
}

TEST(InlineAction, MoveOnlyCallable) {
  auto owned = std::make_unique<int>(41);
  int result = 0;
  InlineAction a = [p = std::move(owned), &result] { result = *p + 1; };
  InlineAction b = std::move(a);
  b();
  EXPECT_EQ(result, 42);
}

TEST(InlineAction, AssignFromCallableInPlace) {
  int x = 0;
  InlineAction a;
  a = [&x] { x = 5; };
  a();
  EXPECT_EQ(x, 5);
}

TEST(InlineAction, CapacityFitsSixPointers) {
  // The kernel's contract: up to 48 bytes of captures, checked at compile
  // time with no heap fallback.
  struct Big {
    void* p[6];
  };
  Big big{};
  InlineAction a = [big] { (void)big; };
  EXPECT_TRUE(static_cast<bool>(a));
  static_assert(sizeof(void* [6]) == InlineAction::kCapacity);
}

TEST(InlineAction, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(1);
  {
    InlineAction a = [token] {};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineAction, TargetHintIsTheFirstCapturedPointer) {
  int object = 0;
  int* p = &object;
  InlineAction a = [p] { ++*p; };
  EXPECT_EQ(a.target_hint(), static_cast<const void*>(p));
  InlineAction b = std::move(a);  // relocation keeps it
  EXPECT_EQ(b.target_hint(), static_cast<const void*>(p));
}

TEST(InlineAction, TargetHintIsNullBelowPointerSize) {
  int fired = 0;
  static int* sink;
  sink = &fired;
  InlineAction none = [] { ++*sink; };
  InlineAction small = [n = 3] { *sink += n; };
  InlineAction tiny = [c = 'x'] { *sink += c; };
  static_assert(sizeof(int) < sizeof(void*));
  EXPECT_EQ(none.target_hint(), nullptr);
  EXPECT_EQ(small.target_hint(), nullptr);
  EXPECT_EQ(tiny.target_hint(), nullptr);
  InlineAction moved = std::move(small);
  EXPECT_EQ(moved.target_hint(), nullptr);
  // The callables still run from behind the null word.
  none();
  moved();
  tiny();
  EXPECT_EQ(fired, 1 + 3 + 'x');
}

// The kernel's scheduling paths require these properties.
static_assert(std::is_nothrow_move_constructible_v<InlineAction>);
static_assert(std::is_nothrow_move_assignable_v<InlineAction>);
static_assert(!std::is_copy_constructible_v<InlineAction>);

}  // namespace
