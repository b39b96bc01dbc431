// Pins the benchmark's statistics rules (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(quantile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(quantile(one_to(100), 1.0), 100.0);
  EXPECT_EQ(quantile(one_to(1), 0.99), 1.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(200, 0.95));
  EXPECT_FALSE(tail_supported(199, 0.95));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  // The samples counted as beyond are exactly those above the quantile.
  const std::vector<double> v = one_to(1000);
  const double p99 = quantile(v, 0.99);
  std::size_t above = 0;
  for (double x : v) above += x > p99 ? 1 : 0;
  EXPECT_EQ(above, samples_beyond(v.size(), 0.99));
}

TEST(SlicedQuantile, OneDisturbedSliceDoesNotMoveIt) {
  // Five slices of 100 samples; the third is a burst of interference.
  std::vector<double> v;
  for (int s = 0; s < 5; ++s) {
    for (int i = 1; i <= 100; ++i) v.push_back(s == 2 ? 1000.0 + i : i);
  }
  EXPECT_EQ(sliced_quantile(v, 0.5, 5), 50.0);
  EXPECT_EQ(sliced_quantile(v, 0.9, 5), 90.0);
  // Over the whole sample the burst owns the tail.
  EXPECT_GT(quantile(v, 0.9), 1000.0);
  // Samples past the last whole slice are dropped; empty slices read 0.
  v.push_back(1e9);
  EXPECT_EQ(sliced_quantile(v, 0.9, 5), 90.0);
  EXPECT_EQ(sliced_quantile({1.0, 2.0}, 0.5, 5), 0.0);
}

TEST(DueTime, LatencyCountsTheGeneratorsLateness) {
  // Due at 10 ms, sent late at 15 ms, answered at 18 ms: the user waited
  // 8 ms, not the 3 ms the system saw.
  const double due = 10.0, answered = 18.0;
  EXPECT_DOUBLE_EQ(due_latency_ms(due, answered), 8.0);
}

TEST(DeadlineTally, RefusedRequestsAreMisses) {
  DeadlineTally t;
  t.answered(true);
  t.answered(false);
  t.refused();
  t.refused();
  EXPECT_EQ(t.sent(), 4u);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_DOUBLE_EQ(t.hit_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(DeadlineTally().hit_ratio(), 0.0);
}

TEST(PairedRatio, MedianOfPerInputRatios) {
  // Per-input ratios 1, 5, 1 -> median 1; the ratio of the medians (10/2)
  // would read 5.
  EXPECT_DOUBLE_EQ(paired_ratio_median({1.0, 10.0, 30.0}, {1.0, 2.0, 30.0}),
                   1.0);
  // Drift that scales both sides of a pair leaves the ratio alone.
  EXPECT_DOUBLE_EQ(paired_ratio_median({4.0, 8.0, 40.0}, {1.0, 2.0, 10.0}),
                   4.0);
}

TEST(PairedRatio, RejectsUnpairedOrEmptySamples) {
  EXPECT_THROW(paired_ratio_median({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(paired_ratio_median({}, {}), std::invalid_argument);
  EXPECT_THROW(paired_ratio_median({1.0}, {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
