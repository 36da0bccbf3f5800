// Tests for the DIV-x auto-tuner.
#include <gtest/gtest.h>

#include "dsrt/engine/tuning.hpp"
#include "dsrt/system/baseline.hpp"

namespace {

using namespace dsrt::system;
using dsrt::engine::tune_div_x;

Config tune_config() {
  Config cfg = baseline_psp();
  cfg.horizon = 30000;
  return cfg;
}

TEST(TuneDivX, FindsFairPromotionAtBaseline) {
  const auto result = tune_div_x(tune_config(), /*replications=*/1);
  EXPECT_GT(result.x, 0.0);
  EXPECT_GE(result.evaluations, 2u);
  // The tuned point is fairer than plain UD, whose gap at this load is
  // large (~15pp); allow tolerance for the short horizon.
  EXPECT_LT(std::abs(result.gap), 0.06);
  EXPECT_EQ(result.probes.size(), result.evaluations);
}

TEST(TuneDivX, GapShrinksVersusEndpoints) {
  const auto result = tune_div_x(tune_config(), 1, 0.125, 16.0, 8);
  // Every recorded probe's |gap| >= the adopted one (adopt keeps the best).
  for (const auto& [x, gap] : result.probes) {
    (void)x;
    EXPECT_GE(std::abs(gap) + 1e-12, std::abs(result.gap));
  }
}

TEST(TuneDivX, RespectsProbeBudget) {
  const auto result = tune_div_x(tune_config(), 1, 0.125, 16.0,
                                 /*max_probes=*/4, /*tolerance=*/0.0);
  EXPECT_LE(result.evaluations, 4u);
}

TEST(TuneDivX, ReturnsBoundWhenRootOutsideRange) {
  // With an absurdly narrow upper bound, promotion can't catch up; the
  // tuner returns the bound instead of diverging.
  const auto result = tune_div_x(tune_config(), 1, 0.01, 0.02, 6);
  EXPECT_NEAR(result.x, 0.02, 1e-12);
  EXPECT_GT(result.gap, 0.0);  // globals still behind
}

TEST(TuneDivX, ValidatesArguments) {
  EXPECT_THROW(tune_div_x(tune_config(), 0), std::invalid_argument);
  EXPECT_THROW(tune_div_x(tune_config(), 1, -1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(tune_div_x(tune_config(), 1, 2.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(tune_div_x(tune_config(), 1, 0.5, 2.0, 1),
               std::invalid_argument);
}

}  // namespace
