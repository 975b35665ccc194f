#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace ehpc {

/// Weighted arithmetic mean accumulator. Used for the paper's
/// priority-weighted mean response/completion time metrics.
class WeightedMean {
 public:
  /// Add a sample with the given non-negative weight.
  void add(double value, double weight);

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

// Braced-list convenience (a braced list does not convert to std::span).
inline double percentile(std::initializer_list<double> samples, double q) {
  return percentile(std::span<const double>(samples.begin(), samples.size()),
                    q);
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
