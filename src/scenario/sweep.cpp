#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "scenario/axis_point.hpp"

namespace ehpc::scenario {

using elastic::PolicyMode;
using elastic::RunMetrics;

namespace {

/// Run body(0..n-1) across `threads` workers pulling indices from a shared
/// counter. Each index is executed exactly once; the first exception is
/// rethrown on the caller thread after all workers drain.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const std::size_t pool_size =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  std::vector<std::thread> pool;
  pool.reserve(pool_size);
  for (std::size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

SweepResult run_sweep(const ScenarioSpec& spec, int threads) {
  spec.validate();
  const std::vector<double> xs =
      spec.axis == SweepAxis::kNone ? std::vector<double>{0.0}
                                    : spec.axis_values;

  const std::size_t num_points = xs.size();
  const std::size_t repeats = static_cast<std::size_t>(spec.repeats);
  const std::size_t num_policies = spec.policies.size();

  // Calibrate workload models before fanning out, so the parallel cells
  // only read shared immutable state. Axes that change the calibration
  // itself get one model set per point; everything else shares a single
  // set.
  std::vector<std::map<elastic::JobClass, elastic::Workload>> workloads;
  if (axis_affects_workloads(spec.axis)) {
    workloads.reserve(num_points);
    for (const double x : xs) {
      workloads.push_back(workloads_for(at_axis_value(spec, x)));
    }
  } else {
    workloads.push_back(workloads_for(spec));
  }

  // One cell per (sweep point × repeat): the repeat's random mix is shared
  // across policies, exactly like the paper's averaging procedure. Cells are
  // fully independent — each builds its own mix and substrate instances.
  std::vector<std::vector<RunMetrics>> cells(num_points * repeats);
  parallel_for(cells.size(), threads, [&](std::size_t i) {
    const std::size_t p = i / repeats;
    const std::size_t r = i % repeats;
    const ScenarioSpec point = at_axis_value(spec, xs[p]);
    const auto& point_workloads = workloads[workloads.size() == 1 ? 0 : p];
    const unsigned cell_seed = spec.seed + static_cast<unsigned>(r);
    const auto results = run_policies(point, cell_seed, point_workloads);
    auto& cell = cells[i];
    cell.reserve(num_policies);
    for (const PolicyMode mode : spec.policies) {
      cell.push_back(results.at(mode).metrics);
    }
  });

  // Merge in serial (point, policy, repeat) order so the averaged result is
  // bit-identical no matter how the cells were scheduled.
  SweepResult out;
  out.points.reserve(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    SweepPoint point;
    point.x = xs[p];
    for (std::size_t k = 0; k < num_policies; ++k) {
      std::vector<RunMetrics> runs;
      runs.reserve(repeats);
      for (std::size_t r = 0; r < repeats; ++r) {
        runs.push_back(cells[p * repeats + r][k]);
      }
      point.metrics.emplace(spec.policies[k], elastic::average_metrics(runs));
    }
    out.points.push_back(std::move(point));
  }
  return out;
}

PolicyMetrics compare_policies(const ScenarioSpec& spec, int threads) {
  ScenarioSpec single = spec;
  single.axis = SweepAxis::kNone;
  single.axis_values.clear();
  return run_sweep(single, threads).points.front().metrics;
}

RunMetrics run_repeats(const ScenarioSpec& spec,
                       const elastic::PolicyConfig& policy, int threads) {
  spec.validate();
  const auto workloads = workloads_for(spec);
  const std::size_t repeats = static_cast<std::size_t>(spec.repeats);
  std::vector<RunMetrics> runs(repeats);
  parallel_for(repeats, threads, [&](std::size_t r) {
    const unsigned seed = spec.seed + static_cast<unsigned>(r);
    auto backend = make_backend(spec, policy, workloads);
    runs[r] = run_seeded(*backend, spec, seed).metrics;
  });
  return elastic::average_metrics(runs);
}

std::map<PolicyMode, schedsim::SimResult> run_policies(
    const ScenarioSpec& spec, unsigned seed,
    const std::map<elastic::JobClass, elastic::Workload>& workloads) {
  spec.validate();
  std::map<PolicyMode, schedsim::SimResult> out;
  for (const PolicyMode mode : spec.policies) {
    auto backend = make_backend(spec, policy_for(spec, mode), workloads);
    out.emplace(mode, run_seeded(*backend, spec, seed));
  }
  return out;
}

}  // namespace ehpc::scenario
