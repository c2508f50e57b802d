// Tests for the benchmark's own statistics (perfbench/stats.h).
//
//   cmake --build .bench_build/perfbench --target stats_test
//   ctest --test-dir .bench_build/perfbench
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

// Reference values from Python: statistics.quantiles(v, n=4) and
// statistics.median(v).
TEST(QuartileTest, MatchesPythonExclusiveMethod) {
  const std::vector<double> ten = {7, 1, 3, 9, 5, 2, 8, 4, 10, 6};
  EXPECT_DOUBLE_EQ(Quartile(ten, 1), 2.75);
  EXPECT_DOUBLE_EQ(Quartile(ten, 2), 5.5);
  EXPECT_DOUBLE_EQ(Quartile(ten, 3), 8.25);
  EXPECT_DOUBLE_EQ(Median(ten), 5.5);

  const std::vector<double> five = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Quartile(five, 1), 15.0);
  EXPECT_DOUBLE_EQ(Quartile(five, 2), 30.0);
  EXPECT_DOUBLE_EQ(Quartile(five, 3), 45.0);
}

TEST(QuartileTest, SmallAndDegenerateSamples) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 6.0}), 5.0);
  // Python: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the benchmark
  // clamps to the sample range instead of extrapolating.
  EXPECT_DOUBLE_EQ(Quartile({1.0, 2.0}, 1), 1.0);
  EXPECT_DOUBLE_EQ(Quartile({1.0, 2.0}, 3), 2.0);
}

TEST(QuartileTest, RelativeIqr) {
  const std::vector<double> ten = {7, 1, 3, 9, 5, 2, 8, 4, 10, 6};
  EXPECT_DOUBLE_EQ(RelativeIqr(ten), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(RelativeIqr({3.0, 3.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(RelativeIqr({0.0, 0.0}), 0.0);
}

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentileTest, CapsAtP99WhenTheSampleSupportsIt) {
  // 2000 samples: p99 leaves 20 beyond it.
  const TailPercentile tail = HighestSupportedPercentile(OneTo(2000));
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 1980.0);
  EXPECT_EQ(tail.samples, 2000u);
  EXPECT_EQ(tail.beyond, 20u);
}

TEST(TailPercentileTest, KeepsTenSamplesBeyondOnSmallSamples) {
  // 200 samples support p95: exactly 10 beyond the reported rank.
  const TailPercentile tail = HighestSupportedPercentile(OneTo(200));
  EXPECT_DOUBLE_EQ(tail.percentile, 95.0);
  EXPECT_DOUBLE_EQ(tail.value, 190.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 200u);

  // 1000 samples: exactly p99 with 10 beyond.
  const TailPercentile edge = HighestSupportedPercentile(OneTo(1000));
  EXPECT_DOUBLE_EQ(edge.percentile, 99.0);
  EXPECT_EQ(edge.beyond, 10u);

  // 999 samples fall just short of p99.
  const TailPercentile below = HighestSupportedPercentile(OneTo(999));
  EXPECT_LT(below.percentile, 99.0);
  EXPECT_GE(below.beyond, 10u);
}

TEST(TailPercentileTest, TooFewSamplesSupportNoTail) {
  const TailPercentile tail = HighestSupportedPercentile(OneTo(10));
  EXPECT_DOUBLE_EQ(tail.percentile, 0.0);
  EXPECT_DOUBLE_EQ(tail.value, 5.5);
  EXPECT_EQ(tail.samples, 10u);

  const TailPercentile none = HighestSupportedPercentile({});
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
}

TEST(PercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 99.0), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 100.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 99.0), 5.0);
}

TEST(QuietestWindowsTest, KeepsTheWindowsWithTheLowestTail) {
  // Windows 1 and 3 caught a stall; of four windows the quieter two stay.
  const std::vector<std::vector<double>> four = {
      {1, 2, 3}, {1, 2, 40}, {1, 2, 4}, {1, 2, 50}};
  EXPECT_EQ(QuietestWindows(four, 99.0, 2), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(Pool(four, {0, 2}), (std::vector<double>{1, 2, 3, 1, 2, 4}));

  // An odd count keeps the larger half: ceil(5/2) = 3.
  const std::vector<std::vector<double>> five = {{9}, {1}, {8}, {2}, {3}};
  EXPECT_EQ(QuietestWindows(five, 99.0, 2), (std::vector<size_t>{1, 3, 4}));
  // A quarter of five: ceil(5/4) = 2.
  EXPECT_EQ(QuietestWindows(five, 99.0, 4), (std::vector<size_t>{1, 3}));
}

TEST(QuietestWindowsTest, TiesKeepTheEarlierWindowAndEmptyOnesAreSkipped) {
  const std::vector<std::vector<double>> tied = {{5}, {5}, {5}, {5}};
  EXPECT_EQ(QuietestWindows(tied, 99.0, 2), (std::vector<size_t>{0, 1}));

  const std::vector<std::vector<double>> gaps = {{}, {7}, {}, {6}};
  EXPECT_EQ(QuietestWindows(gaps, 99.0, 2), (std::vector<size_t>{1, 3}));
  EXPECT_TRUE(QuietestWindows({}, 99.0, 2).empty());
}

TEST(QuietestWindowsTest, PooledTailIgnoresAMinorityOfStalledWindows) {
  // Sixteen windows of 1..1000 ms; eleven also caught a stall of 20
  // samples at 5 s and beyond. The pooled p99 of the quietest quarter is
  // that of the clean windows.
  std::vector<std::vector<double>> windows(16, OneTo(1000));
  for (size_t k = 0; k < windows.size(); ++k) {
    if (k == 0 || k == 2 || k == 3 || k == 5 || k == 9) continue;
    for (int s = 0; s < 20; ++s) windows[k].push_back(5000.0 + s);
  }
  const std::vector<size_t> quiet = QuietestWindows(windows, 99.0, 4);
  EXPECT_EQ(quiet, (std::vector<size_t>{0, 2, 3, 5}));
  const TailPercentile tail = HighestSupportedPercentile(Pool(windows, quiet));
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 4000u);
  EXPECT_EQ(tail.beyond, 40u);
}

TEST(TracingOverheadTest, PositiveMeansTracedRunDidWorse) {
  // Throughput falls from 1000 to 900 pairs/s: 10% overhead.
  EXPECT_DOUBLE_EQ(TracingOverheadShare(1000.0, 900.0, true), 0.1);
  // Latency rises from 2 ms to 2.5 ms: 25% overhead.
  EXPECT_DOUBLE_EQ(TracingOverheadShare(2.0, 2.5, false), 0.25);
  // A traced run that happened to read better gives a negative share.
  EXPECT_DOUBLE_EQ(TracingOverheadShare(2.0, 1.5, false), -0.25);
  EXPECT_DOUBLE_EQ(TracingOverheadShare(0.0, 1.0, true), 0.0);
}

}  // namespace
}  // namespace perfbench
