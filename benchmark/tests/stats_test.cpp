#include "harness/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace xbar::bench {
namespace {

std::vector<double> iota(std::size_t n, double first = 1.0) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(Quantile, NearestRankOnSortedSample) {
  const std::vector<double> v = iota(100);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted(std::vector<double>{}, 0.5), 0.0);
}

TEST(Quantile, SortsAnUnsortedSample) {
  EXPECT_EQ(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5), 3.0);
  EXPECT_EQ(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.8), 4.0);
}

TEST(Median, AveragesTheMiddlePairOfAnEvenSample) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Windows, AsManyWindowsOfAtLeastTheMinimumAsFit) {
  EXPECT_TRUE(window_sizes(0).empty());
  EXPECT_EQ(window_sizes(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(window_sizes(999), (std::vector<std::size_t>{999}));
  EXPECT_EQ(window_sizes(1999), (std::vector<std::size_t>{1999}));
  EXPECT_EQ(window_sizes(2000), (std::vector<std::size_t>{1000, 1000}));
  EXPECT_EQ(window_sizes(3001),
            (std::vector<std::size_t>{1001, 1000, 1000}));
  for (std::size_t n = kMinWindow; n < 200000; n += 997) {
    const std::vector<std::size_t> sizes = window_sizes(n);
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), n);
    for (const std::size_t s : sizes) {
      EXPECT_GE(s, kMinWindow);
      EXPECT_LT(s, 2 * kMinWindow);
      EXPECT_LE(sizes.front() - s, 1u);
    }
  }
}

TEST(Windows, P99IsTheHighestNinesPercentileWithTenBeyond) {
  // In every window size the harness uses, p99 leaves at least ten samples
  // beyond it and p99.9 would leave fewer than ten.
  for (std::size_t n = kMinWindow; n < 2 * kMinWindow; ++n) {
    const std::vector<double> v = iota(n);
    const auto p99 = static_cast<std::size_t>(quantile_sorted(v, 0.99));
    const auto p999 = static_cast<std::size_t>(quantile_sorted(v, 0.999));
    ASSERT_GE(n - p99, 10u) << n;
    ASSERT_LT(n - p999, 10u) << n;
  }
}

TEST(Windows, WindowedP99IsTheMedianOfWindowP99s) {
  // Two windows: 1..1000 and 1001..2000.
  EXPECT_EQ(windowed_p99(iota(2000)), 0.5 * (990.0 + 1990.0));
  // Three windows; the middle one's p99 is the median.
  std::vector<double> w = iota(1000, 0.0);
  const std::vector<double> high = iota(1000, 1e6);
  const std::vector<double> mid = iota(1000, 1e3);
  w.insert(w.end(), high.begin(), high.end());
  w.insert(w.end(), mid.begin(), mid.end());
  EXPECT_EQ(windowed_p99(w), quantile(mid, 0.99));
}

TEST(Windows, OneStalledWindowDoesNotMoveTheMedian) {
  std::vector<double> v(9000, 1.0);
  for (std::size_t i = 0; i < 1000; ++i) {
    v[i] = 1.0 + static_cast<double>(i % 100) * 0.01;
  }
  const double calm = windowed_p99(v);
  std::fill(v.begin() + 4000, v.begin() + 5000, 50.0);  // a stall
  EXPECT_EQ(windowed_p99(v), calm);
}

}  // namespace
}  // namespace xbar::bench
