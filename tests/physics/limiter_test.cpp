#include "physics/limiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace ab {
namespace {

const std::vector<LimiterKind> kTvdLimiters = {
    LimiterKind::MinMod, LimiterKind::VanLeer, LimiterKind::MC};

class TvdLimiterTest : public ::testing::TestWithParam<LimiterKind> {};

TEST_P(TvdLimiterTest, ZeroAtExtrema) {
  // Opposite-sign one-sided differences mark a local extremum: slope must
  // vanish (the TVD property that prevents new oscillations).
  const LimiterKind k = GetParam();
  EXPECT_EQ(limited_slope(k, 1.0, -2.0), 0.0);
  EXPECT_EQ(limited_slope(k, -0.5, 0.5), 0.0);
  EXPECT_EQ(limited_slope(k, 0.0, 3.0), 0.0);
  EXPECT_EQ(limited_slope(k, 3.0, 0.0), 0.0);
}

TEST_P(TvdLimiterTest, ExactOnUniformSlope) {
  const LimiterKind k = GetParam();
  EXPECT_DOUBLE_EQ(limited_slope(k, 2.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(limited_slope(k, -1.5, -1.5), -1.5);
}

TEST_P(TvdLimiterTest, SymmetricUnderNegation) {
  const LimiterKind k = GetParam();
  for (double dm : {0.5, 1.0, 2.0})
    for (double dp : {0.25, 1.0, 3.0})
      EXPECT_DOUBLE_EQ(limited_slope(k, dm, dp), -limited_slope(k, -dm, -dp));
}

TEST_P(TvdLimiterTest, SymmetricUnderArgumentSwap) {
  // All three classical limiters are symmetric in (dm, dp).
  const LimiterKind k = GetParam();
  for (double dm : {0.5, 1.0, 2.0})
    for (double dp : {0.25, 1.0, 3.0})
      EXPECT_DOUBLE_EQ(limited_slope(k, dm, dp), limited_slope(k, dp, dm));
}

TEST_P(TvdLimiterTest, BoundedByTwiceEachDifference) {
  const LimiterKind k = GetParam();
  for (double dm : {0.1, 0.5, 1.0, 4.0})
    for (double dp : {0.1, 0.5, 1.0, 4.0}) {
      const double s = limited_slope(k, dm, dp);
      EXPECT_LE(std::fabs(s), 2.0 * std::min(dm, dp) + 1e-15);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTvd, TvdLimiterTest,
                         ::testing::ValuesIn(kTvdLimiters));

TEST(Limiter, MinModPicksSmaller) {
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::MinMod, 1.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::MinMod, -3.0, -1.0), -1.0);
}

TEST(Limiter, VanLeerIsHarmonicMean) {
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::VanLeer, 1.0, 3.0),
                   2.0 * 1.0 * 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::VanLeer, 2.0, 2.0), 2.0);
}

TEST(Limiter, McIsMonotonizedCentral) {
  // Central slope when gentle...
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::MC, 1.0, 2.0), 1.5);
  // ...clipped to 2*min difference when steep.
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::MC, 0.5, 10.0), 1.0);
}

TEST(Limiter, NoneIsUnlimitedCentral) {
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::None, 1.0, -3.0), -1.0);
  EXPECT_DOUBLE_EQ(limited_slope(LimiterKind::None, 2.0, 4.0), 3.0);
}

TEST(Limiter, OrderingMinModMostDissipative) {
  // |minmod| <= |vanleer| <= |MC| for same-sign inputs.
  for (double dm : {0.2, 1.0, 2.5})
    for (double dp : {0.4, 1.0, 3.0}) {
      const double m = limited_slope(LimiterKind::MinMod, dm, dp);
      const double v = limited_slope(LimiterKind::VanLeer, dm, dp);
      const double c = limited_slope(LimiterKind::MC, dm, dp);
      EXPECT_LE(std::fabs(m), std::fabs(v) + 1e-14);
      EXPECT_LE(std::fabs(v), std::fabs(c) + 1e-14);
    }
}

}  // namespace
}  // namespace ab
