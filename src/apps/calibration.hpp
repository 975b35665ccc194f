#pragma once

#include <vector>

#include "apps/driver.hpp"
#include "apps/jacobi2d.hpp"
#include "charm/load_balancer.hpp"
#include "charm/rescale.hpp"
#include "charm/runtime.hpp"
#include "common/error.hpp"
#include "common/piecewise_linear.hpp"

namespace ehpc::apps {

/// One strong-scaling measurement: time per step at a replica count. These
/// curves feed the scheduler simulator (paper §4.3.1: "We use strong scaling
/// performance measurements ... to model the runtime of a job for a given
/// number of replicas using a piecewise linear function").
struct ScalingPoint {
  int replicas = 0;
  double time_per_step_s = 0.0;
};

/// Canonical Jacobi configuration for a given model grid size: 16×16 blocks
/// (4× overdecomposition at 64 PEs), suitable for all four paper job sizes.
JacobiConfig jacobi_for_grid(int grid_n, int max_iterations = 12);

/// Imbalance profile of one run with periodic load balancing: the mean
/// pre/post-LB max/avg load ratios and migrations per LB step reported by
/// the runtime's `lb_history()`.
struct LbProfile {
  double pre_ratio = 1.0;         ///< mean max/avg PE load before an LB step
  double post_ratio = 1.0;        ///< mean max/avg PE load after an LB step
  double migrations_per_step = 0.0;
  int lb_steps = 0;
};

// The measurements below work for any minicharm app `App` with the shape of
// Jacobi2D, LeanMd, Amr and Graph: a constructor `(charm::Runtime&,
// App::Config)`, `start()`, `driver()`, `Config::max_iterations`, and
// `App::kCalibrationWarmup`, the leading iterations the step time leaves out.

namespace detail {

/// What one finished run of an app leaves behind for a measurement.
struct AppRun {
  std::vector<double> iteration_end_times;
  std::vector<charm::LbStepStats> lb_steps;
  std::vector<charm::RescaleTiming> rescales;
};

/// Run `App` built from `config` on `replicas` PEs of `base` to completion.
/// `setup` prepares the driver (LB period, rescale hooks) before the start.
template <typename App, typename Setup>
AppRun run_app(const typename App::Config& config, int replicas,
               charm::RuntimeConfig base, Setup setup) {
  EHPC_EXPECTS(replicas > 0);
  base.num_pes = replicas;
  charm::Runtime rt(base);
  App app(rt, config);
  setup(app.driver());
  app.start();
  rt.run();
  EHPC_ENSURES(app.driver().finished());
  return {app.driver().iteration_end_times(), rt.lb_history(),
          rt.rescale_history()};
}

/// Seconds per step after the first `warmup` iterations, from the driver's
/// end-time stamps; `warmup` 0 is the mean over the whole run from t = 0.
double step_time(const std::vector<double>& end_times, int warmup);

/// Mean ratios and migrations over a run's LB steps.
LbProfile lb_profile(const std::vector<charm::LbStepStats>& steps);

}  // namespace detail

/// Run `App` at each replica count and measure its time per step.
/// `lb_period` > 0 runs the configured load balancer every that many
/// iterations, so on an irregular app the step time reflects the strategy's
/// balancing quality *and* its cost. Pass a contention NetworkModel in `base`
/// to make placement quality visible in the number.
template <typename App>
std::vector<ScalingPoint> measure_scaling(
    const typename App::Config& config, const std::vector<int>& replica_counts,
    int lb_period = 0, const charm::RuntimeConfig& base = {}) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    const detail::AppRun run = detail::run_app<App>(
        config, replicas, base,
        [lb_period](IterationDriver& d) { d.set_lb_period(lb_period); });
    out.push_back({replicas, detail::step_time(run.iteration_end_times,
                                               App::kCalibrationWarmup)});
  }
  return out;
}

/// Run `App` at `from_replicas`, post a CCS rescale to `to_replicas` after
/// `warmup_iterations`, and return the per-stage timing (paper §4.2). The
/// run lasts six iterations past the rescale, whatever `config` asks for.
template <typename App>
charm::RescaleTiming measure_rescale(typename App::Config config,
                                     int from_replicas, int to_replicas,
                                     int warmup_iterations = 3,
                                     const charm::RuntimeConfig& base = {}) {
  EHPC_EXPECTS(from_replicas > 0 && to_replicas > 0);
  config.max_iterations = warmup_iterations + 6;
  const detail::AppRun run = detail::run_app<App>(
      config, from_replicas, base, [&](IterationDriver& d) {
        d.at_iteration(warmup_iterations, [to_replicas](charm::Runtime& r) {
          r.ccs().request_rescale(to_replicas);
        });
      });
  EHPC_ENSURES(!run.rescales.empty());
  return run.rescales.back();
}

/// LB profile of one run of `App` on `replicas` PEs with the configured load
/// balancer running every `lb_period` iterations.
template <typename App>
LbProfile measure_lb_profile(const typename App::Config& config, int replicas,
                             int lb_period,
                             const charm::RuntimeConfig& base = {}) {
  EHPC_EXPECTS(replicas > 0 && lb_period > 0);
  const detail::AppRun run = detail::run_app<App>(
      config, replicas, base,
      [lb_period](IterationDriver& d) { d.set_lb_period(lb_period); });
  return detail::lb_profile(run.lb_steps);
}

/// Piecewise-linear time-per-step(replicas) curve from scaling points.
PiecewiseLinear scaling_curve(const std::vector<ScalingPoint>& points);

}  // namespace ehpc::apps
