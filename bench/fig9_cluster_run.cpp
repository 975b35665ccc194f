// Reproduces paper Figure 9: one deterministic job set executed on the
// Kubernetes substrate under all four scheduling policies.
//   Fig 9a: cluster-utilization profile over time per policy.
//   Fig 9b: replica-count evolution of an xlarge job under elastic.
//
// The run includes every operator-level overhead the simulator ignores
// (scheduling latency, pod startup, reconcile latency, the shrink/expand
// handshake), exactly like the paper's EKS experiment. The experiment is
// the registered "fig9_cluster" scenario (substrate=cluster).

#include <algorithm>
#include <map>

#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::instance().require("fig9_cluster");
  spec.seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  spec.submission_gap_s = cfg.get_double("gap", 90.0);
  spec.rescale_gap_s = cfg.get_double("rescale_gap", 180.0);
  spec.calibrated = cfg.get_bool("calibrated", true);
  const double bucket = cfg.get_double("bucket", 60.0);
  // The profile loop below steps by `bucket`.
  if (!(bucket > 0.0)) {
    throw ConfigError("bucket must be > 0, got '" + cfg.get_or("bucket", "") +
                      "'");
  }

  const auto mix = scenario::make_mix(spec, spec.seed);
  const auto results =
      scenario::run_policies(spec, spec.seed, scenario::workloads_for(spec));

  double horizon = 0.0;
  for (const auto& [mode, res] : results) {
    horizon = std::max(horizon, res.metrics.total_time_s);
  }
  Table& profile = rep.add_table(
      "fig9a_util_profile",
      "Figure 9a: cluster utilization profiles (bucketed averages)",
      {"t_s", "min_replicas", "max_replicas", "moldable", "elastic"});
  for (double t = 0.0; t < horizon; t += bucket) {
    auto cell = [&](PolicyMode mode) {
      return format_double(
          step_average(results.at(mode).utilization, t, t + bucket), 3);
    };
    profile.add_row({format_double(t, 0), cell(PolicyMode::kRigidMin),
                     cell(PolicyMode::kRigidMax), cell(PolicyMode::kMoldable),
                     cell(PolicyMode::kElastic)});
  }

  // Fig 9b: the xlarge job that rescaled the most under elastic; if no
  // xlarge rescaled in this mix, fall back to the most-rescaled job overall.
  const auto& elastic_run = results.at(PolicyMode::kElastic);
  const std::vector<std::pair<double, int>> no_steps;
  // One job's replica series; empty if the job never reached the cluster.
  auto replica_series =
      [&](elastic::JobId id) -> const std::vector<std::pair<double, int>>& {
    const auto it = elastic_run.replicas.find(id);
    return it == elastic_run.replicas.end() ? no_steps : it->second;
  };
  int best_job = -1;
  std::size_t best_changes = 0;
  std::string best_class = "xlarge";
  for (const auto& sj : mix) {
    if (sj.job_class != elastic::JobClass::kXLarge) continue;
    const auto& series = replica_series(sj.spec.id);
    if (series.size() >= best_changes) {
      best_changes = series.size();
      best_job = sj.spec.id;
    }
  }
  if (best_changes < 3) {
    for (const auto& sj : mix) {
      const auto& series = replica_series(sj.spec.id);
      if (series.size() > best_changes) {
        best_changes = series.size();
        best_job = sj.spec.id;
        best_class = elastic::to_string(sj.job_class);
      }
    }
  }
  if (best_job >= 0) {
    Table& evolution = rep.add_table(
        "fig9b_replica_evolution",
        "Figure 9b: replica evolution of " + best_class + " job " +
            std::to_string(best_job) + " (elastic)",
        {"timestamp_s", "replicas"});
    for (const auto& [t, replicas] : replica_series(best_job)) {
      evolution.add_row({format_double(t, 1), std::to_string(replicas)});
    }
  } else {
    rep.note("(no xlarge job in this mix; rerun with another seed)");
  }

  Table& metrics = rep.add_table(
      "fig9_policy_metrics",
      "Per-policy metrics for this run (the 'Actual' flavour)",
      {"scheduler", "total_time_s", "utilization", "w_mean_response_s",
       "w_mean_completion_s", "rescales"});
  for (const PolicyMode mode : spec.policies) {
    const auto& m = results.at(mode).metrics;
    metrics.add_row({elastic::to_string(mode), format_double(m.total_time_s, 1),
                     format_double(m.utilization, 4),
                     format_double(m.weighted_response_s, 2),
                     format_double(m.weighted_completion_s, 2),
                     std::to_string(results.at(mode).rescale_count)});
  }
}

const bench::RegisterBench kReg{{
    "fig9_cluster_run",
    "Figure 9: one job set on the k8s substrate under all four policies",
    {{"seed", "2025", "job mix RNG seed"},
     {"gap", "90", "submission gap in seconds"},
     {"rescale_gap", "180", "T_rescale_gap in seconds"},
     {"bucket", "60", "utilization-profile bucket width in seconds"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"}},
    {},
    run}};

}  // namespace
