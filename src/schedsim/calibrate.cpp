#include "schedsim/calibrate.hpp"

#include <algorithm>
#include <mutex>
#include <tuple>

#include "apps/calibration.hpp"
#include "net/network_model.hpp"

namespace ehpc::schedsim {

using elastic::JobClass;
using elastic::Workload;

namespace {

/// Process-wide memo of one deterministic calibration, keyed by its inputs:
/// sweeps and tests re-request the same points many times. The lock is held
/// across `measure`, so concurrent callers of one key wait instead of
/// measuring twice. Each call site (lambda type) gets its own memo.
template <typename Key, typename Measure>
std::map<JobClass, Workload> memoized(const Key& key, Measure measure) {
  static std::mutex mutex;
  static std::map<Key, std::map<JobClass, Workload>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  return cache.emplace(key, measure()).first->second;
}

/// Step-time curves and LB profiles measured by running `App` on minicharm
/// under `rc` with LB every 4 iterations: the curve over 1-64 replicas, the
/// profile (the LB behaviour per rescale) at a mid-size 16 PEs, where the
/// irregular apps' imbalance is pronounced.
template <typename App, typename ConfigFor>
std::map<JobClass, Workload> measured_workloads(const charm::RuntimeConfig& rc,
                                                ConfigFor config_for) {
  std::map<JobClass, Workload> out = analytic_workloads();
  const std::vector<int> replicas{1, 4, 16, 64};
  for (auto& [cls, workload] : out) {
    const typename App::Config config = config_for(cls);
    workload.time_per_step = apps::scaling_curve(
        apps::measure_scaling<App>(config, replicas, /*lb_period=*/4, rc));
    const apps::LbProfile profile = apps::measure_lb_profile<App>(
        config, /*replicas=*/16, /*lb_period=*/4, rc);
    workload.lb.post_ratio = profile.post_ratio;
    workload.lb.migrations_per_step = profile.migrations_per_step;
  }
  return out;
}

}  // namespace

std::map<JobClass, Workload> analytic_workloads() {
  std::map<JobClass, Workload> out;
  for (auto c : {JobClass::kSmall, JobClass::kMedium, JobClass::kLarge,
                 JobClass::kXLarge}) {
    out.emplace(c, elastic::make_workload(c));
  }
  return out;
}

std::map<JobClass, Workload> calibrated_workloads() {
  std::map<JobClass, Workload> out = analytic_workloads();
  const std::vector<int> replicas{1, 2, 4, 8, 16, 32, 64};
  for (auto& [cls, workload] : out) {
    const auto points = apps::measure_scaling<apps::Jacobi2D>(
        apps::jacobi_for_grid(workload.grid_n, /*max_iterations=*/8), replicas);
    workload.time_per_step = apps::scaling_curve(points);
  }
  return out;
}

apps::AmrConfig amr_config_for(JobClass c, double refine_rate) {
  apps::AmrConfig config;
  // Sized so class runtimes land in the same regime as the Jacobi classes
  // (tens of seconds to ~10 minutes per job): compute dominates the
  // per-message handler cost, so refinement genuinely moves step time.
  switch (c) {
    case JobClass::kSmall:
      config.blocks = 64;
      config.cells_per_block = 8192;
      break;
    case JobClass::kMedium:
      config.blocks = 96;
      config.cells_per_block = 16384;
      break;
    case JobClass::kLarge:
      config.blocks = 128;
      config.cells_per_block = 32768;
      break;
    case JobClass::kXLarge:
      config.blocks = 192;
      config.cells_per_block = 131072;
      break;
  }
  config.max_real_cells = 64;
  config.max_depth = 2;
  config.max_iterations = 12;
  config.refine_rate = refine_rate;
  config.coarsen_rate = std::min(1.0 - refine_rate, refine_rate * 0.5);
  return config;
}

std::map<JobClass, Workload> amr_calibrated_workloads(
    double refine_rate, const std::string& lb_strategy) {
  return memoized(std::make_tuple(refine_rate, lb_strategy), [&] {
    charm::RuntimeConfig rc;
    rc.load_balancer = lb_strategy;
    return measured_workloads<apps::Amr>(
        rc, [&](JobClass c) { return amr_config_for(c, refine_rate); });
  });
}

apps::GraphConfig graph_config_for(JobClass c, int vertices, double skew) {
  apps::GraphConfig config;
  // Vertex counts scale with the class around the scenario's base size;
  // parts grow more slowly (heavier parts per chare on big classes), and
  // are capped so a tiny configured graph still partitions legally.
  switch (c) {
    case JobClass::kSmall:
      config.vertices = std::max(2, vertices / 2);
      config.parts = 48;
      break;
    case JobClass::kMedium:
      config.vertices = vertices;
      config.parts = 64;
      break;
    case JobClass::kLarge:
      config.vertices = vertices * 2;
      config.parts = 96;
      break;
    case JobClass::kXLarge:
      config.vertices = vertices * 4;
      config.parts = 128;
      break;
  }
  config.parts = std::min(config.parts, config.vertices);
  config.skew = skew;
  config.max_iterations = 10;
  return config;
}

std::map<JobClass, Workload> graph_calibrated_workloads(
    int vertices, double skew, const std::string& lb_strategy,
    const std::string& net_model, double net_oversub) {
  const auto key =
      std::make_tuple(vertices, skew, lb_strategy, net_model, net_oversub);
  return memoized(key, [&] {
    charm::RuntimeConfig rc;
    rc.load_balancer = lb_strategy;
    // 4 PEs per node so 64 replicas span 16 nodes (4 racks of the radix-4
    // topology): rack locality actually varies with placement, and the 16-PE
    // LB profile spreads the hub parts over multiple racks.
    rc.pes_per_node = 4;
    rc.network = net::make_network_model(net_model, net_oversub);
    return measured_workloads<apps::Graph>(rc, [&](JobClass c) {
      return graph_config_for(c, vertices, skew);
    });
  });
}

}  // namespace ehpc::schedsim
