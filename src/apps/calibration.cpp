#include "apps/calibration.hpp"

#include <utility>

namespace ehpc::apps {

JacobiConfig jacobi_for_grid(int grid_n, int max_iterations) {
  JacobiConfig cfg;
  cfg.grid_n = grid_n;
  cfg.blocks_x = 16;
  cfg.blocks_y = 16;
  cfg.max_real_block = 32;
  cfg.max_iterations = max_iterations;
  return cfg;
}

namespace detail {

double step_time(const std::vector<double>& end_times, int warmup) {
  // The step time spans the end of the warmup (t = 0 without one) to the end
  // of the run, so at least one iteration must follow the warmup.
  const auto skipped = static_cast<std::size_t>(warmup);
  EHPC_EXPECTS(end_times.size() > skipped);
  const double from = skipped == 0 ? 0.0 : end_times[skipped - 1];
  return (end_times.back() - from) /
         static_cast<double>(end_times.size() - skipped);
}

LbProfile lb_profile(const std::vector<charm::LbStepStats>& steps) {
  LbProfile profile;
  double pre_sum = 0.0;
  double post_sum = 0.0;
  double migrated_sum = 0.0;
  for (const auto& step : steps) {
    pre_sum += step.pre_ratio;
    post_sum += step.post_ratio;
    migrated_sum += static_cast<double>(step.migrated);
    ++profile.lb_steps;
  }
  if (profile.lb_steps > 0) {
    const double n = static_cast<double>(profile.lb_steps);
    profile.pre_ratio = pre_sum / n;
    profile.post_ratio = post_sum / n;
    profile.migrations_per_step = migrated_sum / n;
  }
  return profile;
}

}  // namespace detail

PiecewiseLinear scaling_curve(const std::vector<ScalingPoint>& points) {
  EHPC_EXPECTS(!points.empty());
  std::vector<std::pair<double, double>> xy;
  xy.reserve(points.size());
  for (const auto& p : points) {
    xy.emplace_back(static_cast<double>(p.replicas), p.time_per_step_s);
  }
  return PiecewiseLinear(std::move(xy));
}

}  // namespace ehpc::apps
