#include "physics/limiter.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "support/rng.hpp"

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

/// One cell value for the slope-row fuzz: a special (signed zero,
/// subnormal, infinity, NaN, huge), a dyadic grid value (whose differences
/// are exact, so dm = dp occurs), a mirror of the cell two back (dm = -dp
/// at the cell between), a linear continuation (dm = dp), or a plain
/// random value.
double fuzz_cell(const std::vector<double>& u, testing::SplitMix64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSpecials[] = {
      0.0,     -0.0,     4.9e-324, -4.9e-324, 1e-310, -2e-310,
      kInf,    -kInf,    std::numeric_limits<double>::quiet_NaN(),
      1e308,   -1e308,   1.0,      -1.0};
  const std::size_t n = u.size();
  switch (rng.below(6)) {
    case 0:
      return kSpecials[rng.below(std::size(kSpecials))];
    case 1:
      return static_cast<double>(rng.below(33)) / 8.0 - 2.0;
    case 2:
      if (n >= 2) return u[n - 2];
      break;
    case 3:
      if (n >= 2) return 2.0 * u[n - 1] - u[n - 2];
      break;
    default:
      break;
  }
  return rng.uniform(-2.0, 2.0);
}

TEST(Limiter, RowMatchesPerValueBitwise) {
  // Coverage of the special difference pairs the row must reproduce.
  enum { kSignedZero, kSubnormal, kInfinite, kNan, kEqual, kOpposite, kNum };
  const char* names[kNum] = {"signed zero", "subnormal", "infinity",
                             "NaN",         "dm = dp",   "dm = -dp"};
  std::array<std::int64_t, kNum> seen{};
  testing::SplitMix64 rng(testing::splitmix64(60));
  for (LimiterKind k : {LimiterKind::MinMod, LimiterKind::VanLeer,
                        LimiterKind::MC, LimiterKind::None}) {
    for (int n : {0, 1, 2, 3, 8, 9, 10}) {
      for (int start : {0, 1}) {  // start 1: unaligned pairs
        for (int trial = 0; trial < 300; ++trial) {
          // Cells start-1 .. start+n; the row limits cells start .. start+n-1
          // with the neighbour rows offset by one, as the dim-0 sweep does.
          std::vector<double> u;
          for (int c = 0; c < n + 2; ++c) u.push_back(fuzz_cell(u, rng));
          std::vector<double> cells(start, 0.0);
          cells.insert(cells.end(), u.begin(), u.end());
          const double* uc = cells.data() + start + 1;
          std::vector<double> row(n + 4, -1234.5), expect(n + 4, -1234.5);
          limited_slope_row(k, uc - 1, uc, uc + 1, row.data() + start, n);
          for (int i = 0; i < n; ++i) {
            const double dm = uc[i] - uc[i - 1], dp = uc[i + 1] - uc[i];
            expect[start + i] = limited_slope(k, dm, dp);
            if ((dm == 0.0 && std::signbit(dm)) ||
                (dp == 0.0 && std::signbit(dp)))
              ++seen[kSignedZero];
            if (std::fpclassify(dm) == FP_SUBNORMAL ||
                std::fpclassify(dp) == FP_SUBNORMAL)
              ++seen[kSubnormal];
            if (std::isinf(dm) || std::isinf(dp)) ++seen[kInfinite];
            if (std::isnan(dm) || std::isnan(dp)) ++seen[kNan];
            if (dm == dp && dm != 0.0) ++seen[kEqual];
            if (dm == -dp && dm != 0.0) ++seen[kOpposite];
          }
          for (int i = 0; i < n + 4; ++i) {
            // A NaN's sign and payload follow the operand order of the
            // operation that propagated it, and the compiler may commute
            // dm + dp; so a NaN must stay a NaN, and every other value
            // must match bit for bit.
            if (std::isnan(row[i]) && std::isnan(expect[i])) continue;
            ASSERT_EQ(0, std::memcmp(&row[i], &expect[i], sizeof(double)))
                << "limiter=" << static_cast<int>(k) << " n=" << n
                << " start=" << start << " trial=" << trial << " index=" << i
                << ": " << row[i] << " vs " << expect[i];
          }
        }
      }
    }
  }
  for (int c = 0; c < kNum; ++c)
    EXPECT_GT(seen[c], 0) << "no cell had " << names[c] << " differences";
}

}  // namespace
}  // namespace ab
