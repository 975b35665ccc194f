#include "common/stats.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ehpc {

void WeightedMean::add(double value, double weight) {
  EHPC_EXPECTS(weight >= 0.0);
  weighted_sum_ += value * weight;
  weight_sum_ += weight;
  ++n_;
}

double WeightedMean::value() const {
  return weight_sum_ > 0.0 ? weighted_sum_ / weight_sum_ : 0.0;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  EHPC_EXPECTS(q > 0.0 && q < 1.0);
}

double P2Quantile::parabolic(int i, double d) const {
  const double num1 = pos_[i] - pos_[i - 1] + d;
  const double num2 = pos_[i + 1] - pos_[i] - d;
  return heights_[i] +
         d / (pos_[i + 1] - pos_[i - 1]) *
             (num1 * (heights_[i + 1] - heights_[i]) /
                  (pos_[i + 1] - pos_[i]) +
              num2 * (heights_[i] - heights_[i - 1]) /
                  (pos_[i] - pos_[i - 1]));
}

double P2Quantile::linear(int i, double d) const {
  const int j = i + static_cast<int>(d);
  return heights_[i] +
         d * (heights_[j] - heights_[i]) / (pos_[j] - pos_[i]);
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }
  ++n_;
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increment_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double step = d >= 0.0 ? 1.0 : -1.0;
      double candidate = parabolic(i, step);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        heights_[i] = linear(i, step);
      }
      pos_[i] += step;
    }
  }
}

double P2Quantile::value() const {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact below five samples: interpolate the sorted prefix.
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<long>(n_));
    return percentile(std::span<const double>(sorted.data(), n_), q_);
  }
  return heights_[2];
}

double percentile(std::span<const double> samples, double q) {
  EHPC_EXPECTS(q >= 0.0 && q <= 1.0);
  EHPC_EXPECTS(!samples.empty());
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double time_weighted_average(const std::vector<std::pair<double, double>>& steps,
                             double end_time) {
  if (steps.empty()) return 0.0;
  EHPC_EXPECTS(end_time >= steps.front().first);
  double weighted = 0.0;
  double span = end_time - steps.front().first;
  if (span <= 0.0) return steps.back().second;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const double t0 = steps[i].first;
    const double t1 = (i + 1 < steps.size()) ? steps[i + 1].first : end_time;
    if (t1 <= t0) continue;
    weighted += steps[i].second * (std::min(t1, end_time) - t0);
  }
  return weighted / span;
}

double step_average(const std::vector<std::pair<double, double>>& series,
                    double start, double end) {
  EHPC_EXPECTS(end >= start);
  EHPC_EXPECTS(std::is_sorted(
      series.begin(), series.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  // The first sample after `start`; the one before it holds at `start`.
  auto next = std::upper_bound(
      series.begin(), series.end(), start,
      [](double t, const auto& sample) { return t < sample.first; });
  const double at_start =
      next == series.begin() ? 0.0 : std::prev(next)->second;
  if (end == start) return at_start;
  std::vector<std::pair<double, double>> steps{{start, at_start}};
  for (; next != series.end() && next->first <= end; ++next) {
    steps.push_back(*next);
  }
  return time_weighted_average(steps, end);
}

}  // namespace ehpc
