#include "scenario/backend.hpp"

#include <utility>

#include "common/error.hpp"
#include "elastic/workload.hpp"
#include "opk/experiment.hpp"
#include "schedsim/calibrate.hpp"
#include "schedsim/simulator.hpp"
#include "trace/failures.hpp"
#include "trace/sources.hpp"

namespace ehpc::scenario {

namespace {

/// Emulated-Kubernetes substrate (§4.3.2): every action goes through the
/// operator, and a fresh `ClusterExperiment` is stood up per run because
/// that substrate is single-shot by design.
class ClusterBackend final : public schedsim::ExperimentBackend {
 public:
  ClusterBackend(const ScenarioSpec& spec, elastic::PolicyConfig policy,
                 std::map<elastic::JobClass, elastic::Workload> workloads,
                 schedsim::FaultPlan faults)
      : workloads_(std::move(workloads)) {
    config_.nodes = spec.nodes;
    config_.cpus_per_node = spec.cpus_per_node;
    config_.policy = policy;
    config_.faults = std::move(faults);
  }

  schedsim::SimResult run(
      const std::vector<schedsim::SubmittedJob>& mix) override {
    opk::ClusterExperiment experiment(config_, workloads_);
    return experiment.run(mix);
  }

  schedsim::SimResult run_stream(trace::TraceSource& source) override {
    opk::ClusterExperiment experiment(config_, workloads_);
    return experiment.run_stream(source);
  }

 private:
  opk::ExperimentConfig config_;
  std::map<elastic::JobClass, elastic::Workload> workloads_;
};

}  // namespace

schedsim::SimResult run_seeded(schedsim::ExperimentBackend& backend,
                               const ScenarioSpec& spec, unsigned seed) {
  if (spec.is_trace()) {
    auto source = make_trace_source(spec, seed);
    return backend.run_stream(*source);
  }
  return backend.run(make_mix(spec, seed));
}

elastic::PolicyConfig policy_for(const ScenarioSpec& spec,
                                 elastic::PolicyMode mode) {
  elastic::PolicyConfig config;
  config.mode = mode;
  config.rescale_gap_s = spec.rescale_gap_s;
  return config;
}

std::map<elastic::JobClass, elastic::Workload> workloads_for(
    const ScenarioSpec& spec) {
  if (spec.app == "amr") {
    // The irregular workload is always measured: its cost profile (and the
    // point of running it) comes from the refinement dynamics.
    return schedsim::amr_calibrated_workloads(spec.refine_rate,
                                              spec.lb_strategy);
  }
  if (spec.app == "graph") {
    // Also always measured: hub-concentrated traffic over the configured
    // network model is what the calibration exists to capture.
    return schedsim::graph_calibrated_workloads(
        spec.graph_vertices, spec.graph_skew, spec.lb_strategy, spec.net_model,
        spec.net_oversub);
  }
  return spec.calibrated ? schedsim::calibrated_workloads()
                         : schedsim::analytic_workloads();
}

std::vector<schedsim::SubmittedJob> make_mix(const ScenarioSpec& spec,
                                             unsigned seed) {
  schedsim::JobMixGenerator generator(seed);
  auto mix = generator.generate(spec.num_jobs, spec.submission_gap_s);
  if (spec.pods_per_job > 0) {
    // Scale mode: force every job rigid at the requested width. Classes and
    // priorities keep their generated draws (same RNG stream), only the
    // replica range is overridden — total pods = num_jobs × pods_per_job.
    for (auto& job : mix) {
      job.spec.min_replicas = spec.pods_per_job;
      job.spec.max_replicas = spec.pods_per_job;
    }
  }
  if (spec.queue_timeout_s >= 0.0 || spec.task_timeout_s >= 0.0) {
    for (auto& job : mix) {
      job.queue_timeout_s = spec.queue_timeout_s;
      job.task_timeout_s = spec.task_timeout_s;
    }
  }
  return mix;
}

std::unique_ptr<trace::TraceSource> make_trace_source(const ScenarioSpec& spec,
                                                      unsigned seed) {
  EHPC_EXPECTS(spec.is_trace());
  trace::JobDefaults defaults;
  defaults.queue_timeout_s = spec.queue_timeout_s;
  defaults.task_timeout_s = spec.task_timeout_s;
  defaults.max_failed_nodes = spec.faults.max_failed_nodes;

  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  if (!spec.trace_path.empty()) {
    sources.push_back(
        std::make_unique<trace::CsvTraceSource>(spec.trace_path, defaults));
  }
  if (spec.trace_jobs > 0) {
    trace::SyntheticTraceConfig config;
    config.num_jobs = spec.trace_jobs;
    config.submission_gap_s = spec.submission_gap_s;
    config.seed = seed;
    config.defaults = defaults;
    sources.push_back(std::make_unique<trace::SyntheticTraceSource>(config));
  }
  if (spec.cron_period_s > 0.0) {
    trace::CronTraceConfig config;
    config.period_s = spec.cron_period_s;
    config.phase_s = spec.cron_phase_s;
    config.end_s = spec.cron_end_s;
    config.job_class = elastic::job_class_from_string(spec.cron_class);
    config.priority = spec.cron_priority;
    config.defaults = defaults;
    sources.push_back(std::make_unique<trace::CronTraceSource>(config));
  }
  if (sources.size() == 1) return std::move(sources.front());
  return std::make_unique<trace::CompositeTraceSource>(std::move(sources));
}

std::unique_ptr<schedsim::ExperimentBackend> make_backend(
    const ScenarioSpec& spec, const elastic::PolicyConfig& policy,
    const std::map<elastic::JobClass, elastic::Workload>& workloads) {
  schedsim::FaultPlan faults = trace::resolve_failure_trace(spec.faults);
  if (spec.substrate == Substrate::kCluster) {
    return std::make_unique<ClusterBackend>(spec, policy, workloads,
                                            std::move(faults));
  }
  auto simulator = std::make_unique<schedsim::SchedSimulator>(
      spec.total_slots(), policy, workloads);
  simulator->set_fault_plan(std::move(faults));
  return simulator;
}

}  // namespace ehpc::scenario
