#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ccf::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.37) * 10;
    (i < 50 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(MeanOf, RangeSemantics) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean_of(v, 0, 4), 2.5);
  EXPECT_DOUBLE_EQ(mean_of(v, 1, 3), 2.5);
  EXPECT_DOUBLE_EQ(mean_of(v, 2, 100), 3.5);  // clamps
  EXPECT_DOUBLE_EQ(mean_of(v, 3, 3), 0.0);    // empty
}

TEST(SettleIndex, FlatSeriesSettlesAtZero) {
  std::vector<double> flat(100, 5.0);
  EXPECT_EQ(settle_index(flat, 10, 0.05), 0u);
}

TEST(SettleIndex, StepDecayFindsKnee) {
  std::vector<double> series;
  for (int i = 0; i < 50; ++i) series.push_back(10.0);
  for (int i = 0; i < 50; ++i) series.push_back(2.0);
  const std::size_t knee = settle_index(series, 5, 0.05);
  EXPECT_GE(knee, 46u);
  EXPECT_LE(knee, 51u);
}

TEST(SettleIndex, NeverSettlingReturnsNearEnd) {
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(100.0 - i);  // linear decay
  const std::size_t knee = settle_index(series, 5, 0.01);
  EXPECT_GT(knee, 90u);
}

TEST(SettleIndex, ShortSeries) {
  std::vector<double> s{1.0, 2.0};
  EXPECT_EQ(settle_index(s, 10, 0.05), 2u);  // shorter than window
  EXPECT_EQ(settle_index(s, 0, 0.05), 2u);   // zero window
}

}  // namespace
}  // namespace ccf::util
