#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace ehpc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  /// Merge another accumulator into this one (parallel reduction friendly).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Weighted arithmetic mean accumulator. Used for the paper's
/// priority-weighted mean response/completion time metrics.
class WeightedMean {
 public:
  /// Add a sample with the given non-negative weight.
  void add(double value, double weight);
  void merge(const WeightedMean& other);

  double value() const;
  double total_weight() const { return weight_sum_; }
  std::size_t count() const { return n_; }

 private:
  double weighted_sum_ = 0.0;
  double weight_sum_ = 0.0;
  std::size_t n_ = 0;
};

/// Online quantile estimator (Jain & Chlamtac's P² algorithm): tracks a
/// single quantile in O(1) memory with five markers. Exact for the first
/// five samples; after that the marker heights follow the empirical
/// quantile with a piecewise-parabolic adjustment. Accuracy degrades for
/// tail quantiles of heavy-tailed inputs — the trace bench reports both the
/// online and the exact value so the drift stays visible.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.5 for the median, 0.99 for p99.
  explicit P2Quantile(double q);

  void add(double x);
  std::size_t count() const { return n_; }
  /// Current estimate; 0 before any sample arrives.
  double value() const;

 private:
  double parabolic(int i, double d) const;
  double linear(int i, double d) const;

  double q_;
  std::size_t n_ = 0;
  std::array<double, 5> heights_{};   // marker heights (sorted)
  std::array<double, 5> pos_{};       // actual marker positions (1-based)
  std::array<double, 5> desired_{};   // desired marker positions
  std::array<double, 5> increment_{}; // desired-position increments
};

/// Percentile of a sample set via linear interpolation between order
/// statistics. `q` is in [0, 1]. The input is not modified (an internal
/// copy is sorted).
double percentile(std::span<const double> samples, double q);

/// Mean of a sample set. Like `percentile`, an empty input is a
/// precondition violation: callers that can legitimately see empty sample
/// sets must handle that case explicitly rather than silently folding a
/// spurious 0 into downstream aggregates.
double mean_of(std::span<const double> samples);

// Braced-list conveniences (a braced list does not convert to std::span).
inline double percentile(std::initializer_list<double> samples, double q) {
  return percentile(std::span<const double>(samples.begin(), samples.size()),
                    q);
}
inline double mean_of(std::initializer_list<double> samples) {
  return mean_of(std::span<const double>(samples.begin(), samples.size()));
}

/// Time-weighted average of a step function given as (timestamp, value)
/// breakpoints: the function holds `value[i]` on [t[i], t[i+1]). The final
/// value extends to `end_time`. Used to compute average cluster utilization
/// from utilization-change events.
double time_weighted_average(const std::vector<std::pair<double, double>>& steps,
                             double end_time);

/// Time-weighted average over [start, end] of a step series: sample
/// (t, v) means "the value changed to v at t", and the series reads 0
/// before its first sample (or when empty). A zero-width window reads the
/// value at `start`. Sample times must be non-decreasing. Used for Fig. 9's
/// bucketed utilization profile.
double step_average(const std::vector<std::pair<double, double>>& series,
                    double start, double end);

}  // namespace ehpc
