#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ehpc {
namespace {

TEST(WeightedMean, MatchesHandComputation) {
  WeightedMean wm;
  wm.add(10.0, 1.0);
  wm.add(20.0, 3.0);
  EXPECT_DOUBLE_EQ(wm.value(), (10.0 + 60.0) / 4.0);
  EXPECT_DOUBLE_EQ(wm.total_weight(), 4.0);
}

TEST(WeightedMean, ZeroWeightSamplesIgnoredInValue) {
  WeightedMean wm;
  wm.add(100.0, 0.0);
  EXPECT_DOUBLE_EQ(wm.value(), 0.0);
  wm.add(10.0, 2.0);
  EXPECT_DOUBLE_EQ(wm.value(), 10.0);
}

TEST(WeightedMean, NegativeWeightThrows) {
  WeightedMean wm;
  EXPECT_THROW(wm.add(1.0, -0.5), PreconditionError);
}

TEST(Percentile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  // Sorted: 0, 10. p75 = 7.5.
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.75), 7.5);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({4.2}, 0.9), 4.2);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 0.5), PreconditionError);
}

TEST(TimeWeightedAverage, ConstantFunction) {
  EXPECT_DOUBLE_EQ(time_weighted_average({{0.0, 5.0}}, 10.0), 5.0);
}

TEST(TimeWeightedAverage, StepFunction) {
  // 1.0 on [0,2), 3.0 on [2,4): average = (2*1 + 2*3)/4 = 2.
  EXPECT_DOUBLE_EQ(time_weighted_average({{0.0, 1.0}, {2.0, 3.0}}, 4.0), 2.0);
}

TEST(TimeWeightedAverage, UnevenSegments) {
  // 0 on [0,9), 10 on [9,10): average = 1.
  EXPECT_DOUBLE_EQ(time_weighted_average({{0.0, 0.0}, {9.0, 10.0}}, 10.0), 1.0);
}

TEST(TimeWeightedAverage, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(time_weighted_average({}, 5.0), 0.0);
}

TEST(TimeWeightedAverage, ZeroSpanReturnsLastValue) {
  EXPECT_DOUBLE_EQ(time_weighted_average({{2.0, 7.0}}, 2.0), 7.0);
}

TEST(TimeWeightedAverage, EndTimeBeforeStartThrows) {
  EXPECT_THROW(time_weighted_average({{2.0, 7.0}}, 1.0), PreconditionError);
}

using StepSeries = std::vector<std::pair<double, double>>;

TEST(StepAverage, EmptySeriesReadsZero) {
  EXPECT_DOUBLE_EQ(step_average({}, 1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(step_average({}, 0.0, 10.0), 0.0);
}

TEST(StepAverage, ZeroWidthWindowFollowsStepFunction) {
  const StepSeries s{{0.0, 1.0}, {10.0, 2.0}};
  EXPECT_DOUBLE_EQ(step_average(s, 0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(step_average(s, 5.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(step_average(s, 10.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(step_average(s, 99.0, 99.0), 2.0);
}

TEST(StepAverage, ValueBeforeFirstSampleIsZero) {
  const StepSeries s{{5.0, 3.0}};
  EXPECT_DOUBLE_EQ(step_average(s, 1.0, 1.0), 0.0);
  // 0 on [0,5), 3 on [5,10]: a window straddling the first sample.
  EXPECT_DOUBLE_EQ(step_average(s, 0.0, 10.0), 1.5);
}

TEST(StepAverage, AverageOfStepSeries) {
  EXPECT_DOUBLE_EQ(step_average({{0.0, 0.0}, {5.0, 1.0}}, 0.0, 10.0), 0.5);
}

TEST(StepAverage, AverageOverSubWindow) {
  // 2 on [5,10), 4 on [10,15]; samples after the window are ignored.
  EXPECT_DOUBLE_EQ(
      step_average({{0.0, 2.0}, {10.0, 4.0}, {20.0, 8.0}}, 5.0, 15.0), 3.0);
}

TEST(StepAverage, RejectsTimeTravel) {
  EXPECT_THROW(step_average({{5.0, 1.0}, {4.0, 1.0}}, 0.0, 10.0),
               PreconditionError);
  EXPECT_THROW(step_average({{5.0, 1.0}}, 2.0, 1.0), PreconditionError);
}

TEST(Percentile, OutOfRangeQuantileThrows) {
  EXPECT_THROW(percentile({1.0, 2.0}, -0.1), PreconditionError);
  EXPECT_THROW(percentile({1.0, 2.0}, 1.1), PreconditionError);
}

TEST(Percentile, DuplicateValuesInterpolateFlat) {
  EXPECT_DOUBLE_EQ(percentile({2.0, 2.0, 2.0, 9.0}, 0.5), 2.0);
}

// ---- P² online quantiles ----

/// splitmix64-style generator so the accuracy tests are deterministic and
/// independent of libstdc++'s distribution implementations.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a counter.
double u01(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>(mix64(seed ^ mix64(i)) >> 11) * 0x1.0p-53;
}

/// Feeds `samples` to a fresh P2Quantile and checks the estimate against the
/// exact percentile of the same data, tolerance scaled by the data spread.
void expect_p2_close(const std::vector<double>& samples, double q,
                     double rel_tol) {
  P2Quantile est(q);
  for (double x : samples) est.add(x);
  std::vector<double> sorted = samples;
  const double exact = percentile(sorted, q);
  const double lo = percentile(sorted, 0.0);
  const double hi = percentile(sorted, 1.0);
  const double spread = hi - lo;
  EXPECT_EQ(est.count(), samples.size());
  EXPECT_NEAR(est.value(), exact, rel_tol * spread)
      << "q=" << q << " n=" << samples.size();
}

TEST(P2Quantile, ExactForFirstFiveSamples) {
  P2Quantile median(0.5);
  const std::vector<double> xs{9.0, 1.0, 7.0, 3.0, 5.0};
  std::vector<double> seen;
  for (double x : xs) {
    median.add(x);
    seen.push_back(x);
    EXPECT_DOUBLE_EQ(median.value(), percentile(seen, 0.5))
        << "after " << seen.size() << " samples";
  }
}

TEST(P2Quantile, NoSamplesReadsZeroAndBadQuantileThrows) {
  EXPECT_DOUBLE_EQ(P2Quantile(0.9).value(), 0.0);
  EXPECT_THROW(P2Quantile(0.0), PreconditionError);
  EXPECT_THROW(P2Quantile(1.0), PreconditionError);
  EXPECT_THROW(P2Quantile(-0.5), PreconditionError);
}

TEST(P2Quantile, UniformAccuracy) {
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 20000; ++i)
    samples.push_back(u01(1234, i) * 100.0);
  for (double q : {0.5, 0.9, 0.99}) expect_p2_close(samples, q, 0.01);
}

TEST(P2Quantile, BimodalAccuracy) {
  // Two well-separated modes (around 10 and around 1000) — the estimator
  // must not settle between them for quantiles inside either mode.
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = u01(99, i);
    const double v = u01(77, i);
    samples.push_back(u < 0.7 ? 10.0 + v : 1000.0 + 10.0 * v);
  }
  expect_p2_close(samples, 0.5, 0.01);   // deep inside the low mode
  expect_p2_close(samples, 0.9, 0.01);   // inside the high mode
  expect_p2_close(samples, 0.99, 0.01);  // upper tail of the high mode
}

TEST(P2Quantile, HeavyTailAccuracy) {
  // Pareto(alpha=1.5): infinite variance, the documented worst case for P².
  // Mid quantiles stay tight; the p99 tolerance is looser by design.
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = 1.0 - u01(2025, i);  // (0, 1]
    samples.push_back(std::pow(u, -1.0 / 1.5));
  }
  std::vector<double> sorted = samples;
  const double exact_p50 = percentile(sorted, 0.5);
  const double exact_p99 = percentile(sorted, 0.99);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  for (double x : samples) {
    p50.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.value(), exact_p50, 0.02 * exact_p50);
  EXPECT_NEAR(p99.value(), exact_p99, 0.25 * exact_p99);
}

}  // namespace
}  // namespace ehpc
