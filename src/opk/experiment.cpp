#include "opk/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::opk {

using elastic::JobId;

/// ExecHarness specialisation for the Kubernetes substrate: starts wait for
/// pods to schedule and run, and every rescale goes through the paper's
/// signal → iteration-boundary → rescale → ack handshake (§3.1).
class ClusterExperiment::Harness final : public schedsim::ExecHarness {
 public:
  explicit Harness(ClusterExperiment& owner)
      : schedsim::ExecHarness(owner.cluster_.sim(),
                              owner.config_.nodes * owner.config_.cpus_per_node,
                              owner.config_.policy, owner.workloads_),
        owner_(owner) {}

  /// Physical utilization sample from the cluster's pod watch.
  void record_physical_usage() {
    k8s::Cluster& cluster = owner_.cluster_;
    const int used = cluster.bound_cpus();
    const double total = static_cast<double>(cluster.total_cpus());
    collector().record_usage(cluster.sim().now(),
                             std::min(used, cluster.total_cpus()));
    if (streaming()) return;  // the series grows with the trace length
    utilization_.emplace_back(cluster.sim().now(),
                              static_cast<double>(used) / total);
  }

  /// Hand Fig. 9's step series over to a batch run's result.
  void take_series(schedsim::SimResult& result) {
    result.utilization = std::move(utilization_);
    result.replicas = std::move(replicas_);
  }

 private:
  /// Append to job `id`'s replica series at the current time; batch only.
  void record_replicas(JobId id, int replicas) {
    if (streaming()) return;  // the series grow with the trace length
    replicas_[id].emplace_back(sim().now(), replicas);
  }

  /// Staged rescale/ack callbacks may dereference a job's exec after it
  /// completes (guarded by `exec.done`), so streaming replay must not erase
  /// retired execs on this substrate.
  bool retire_completed_execs() const override { return false; }

  void init_exec(schedsim::JobExec& exec,
                 const schedsim::SubmittedJob& job) override {
    exec.job_name = job.spec.name.empty()
                        ? "job-" + std::to_string(job.spec.id)
                        : job.spec.name;
  }

  void start_job(JobId id, int replicas) override {
    schedsim::JobExec& exec = this->exec(id);
    EHPC_EXPECTS(!exec.started);
    CharmJob job;
    job.meta.name = exec.job_name;
    job.job = engine().job(id).spec;
    job.desired_replicas = replicas;
    job.phase = CharmJobPhase::kLaunching;
    owner_.controller_->when_ready(exec.job_name,
                                   [this, id, replicas](const std::string&) {
                                     on_pods_ready(id, replicas);
                                   });
    owner_.jobs_.add(std::move(job));
  }

  /// A rescale issued while the job's pods are still scheduling. The job's
  /// single start ready-waiter is pending, so park the target until
  /// on_pods_ready (last one wins — the policy's final word is the state
  /// its bookkeeping assumes) — but update the pod demand *now*: the
  /// policy already re-budgeted those slots, and holding surplus demand
  /// could wedge two launching jobs against each other (per-pod binding,
  /// no gang scheduling).
  void defer_rescale(JobId id, int target) {
    schedsim::JobExec& exec = this->exec(id);
    deferred_rescales_[id] = target;
    owner_.jobs_.mutate(exec.job_name, [target](CharmJob& j) {
      j.desired_replicas = target;
    });
  }

  void on_pods_ready(JobId id, int replicas) {
    schedsim::JobExec& exec = this->exec(id);
    if (exec.started) return;
    if (auto it = deferred_rescales_.find(id); it != deferred_rescales_.end()) {
      // The policy reshaped the job while its pods were still scheduling
      // (possible with small T_rescale_gap under contention). The
      // controller already reconciled the pods to the final target, so the
      // job simply starts at that width — the application never ran at the
      // originally granted size, so no checkpoint/restart handshake.
      replicas = it->second;
      deferred_rescales_.erase(it);
    }
    exec.started = true;
    exec.replicas = replicas;
    const double now = sim().now();
    exec.record.start_time = now;
    exec.accrue_from = now;
    owner_.jobs_.mutate(exec.job_name,
                        [](CharmJob& j) { j.phase = CharmJobPhase::kRunning; });
    schedule_completion(id);
    record_replicas(id, replicas);
    EHPC_DEBUG("opk", "job %d started with %d replicas at t=%.1f", id,
               replicas, now);
  }

  /// Wait until the app's next iteration boundary, apply the rescale pause,
  /// then run `after_ack` at ack time.
  void rescale_at_boundary(JobId id, int target,
                           std::function<void()> after_ack) {
    // Signal delivery, then wait for the application's next iteration
    // boundary (Charm++ rescales at the next load-balancing step).
    sim().schedule_after(owner_.config_.signal_latency_s, [this, id, target,
                                                           after_ack] {
      schedsim::JobExec& exec = this->exec(id);
      if (exec.done) return;
      const double now = sim().now();
      const double step = exec.step_time();
      double boundary = now;
      if (now >= exec.accrue_from) {
        const double into_step = std::fmod(now - exec.accrue_from, step);
        boundary = now + (step - into_step);
      } else {
        boundary = exec.accrue_from;  // paused: honour the signal at resume
      }
      sim().schedule_at(boundary, [this, id, target, boundary, after_ack] {
        schedsim::JobExec& exec = this->exec(id);
        if (exec.done) return;
        const int old_replicas = exec.replicas;
        exec.accrue_until(boundary);  // progress at the old rate
        const double overhead =
            exec.workload.rescale.overhead_s(old_replicas, target);
        exec.replicas = target;
        exec.accrue_from = boundary + overhead;
        note_rescale(id);
        owner_.jobs_.mutate(exec.job_name, [](CharmJob& j) {
          j.phase = CharmJobPhase::kResizing;
        });
        schedule_completion(id);
        record_replicas(id, target);
        // Ack fires once the rescale completes inside the application.
        sim().schedule_at(exec.accrue_from, [this, id, after_ack] {
          schedsim::JobExec& exec2 = this->exec(id);
          if (exec2.done) return;
          owner_.jobs_.mutate(exec2.job_name, [](CharmJob& j) {
            j.phase = CharmJobPhase::kRunning;
          });
          after_ack();
        });
      });
    });
  }

  void shrink_job(JobId id, int target) override {
    schedsim::JobExec& exec = this->exec(id);
    EHPC_EXPECTS(!exec.done);
    if (!exec.started) {
      defer_rescale(id, target);
      return;
    }
    const std::string job_name = exec.job_name;
    // Paper §3.1 shrink: signal first; only after the acknowledgment are the
    // surplus pods removed (desired_replicas drop triggers the controller).
    rescale_at_boundary(id, target, [this, job_name, target] {
      if (!owner_.jobs_.contains(job_name)) return;
      owner_.jobs_.mutate(job_name,
                          [target](CharmJob& j) { j.desired_replicas = target; });
    });
  }

  void expand_job(JobId id, int target) override {
    schedsim::JobExec& exec = this->exec(id);
    EHPC_EXPECTS(!exec.done);
    if (!exec.started) {
      defer_rescale(id, target);
      return;
    }
    const std::string job_name = exec.job_name;
    // Paper §3.1 expand: add pods, update the nodelist, then signal.
    owner_.jobs_.mutate(job_name,
                        [target](CharmJob& j) { j.desired_replicas = target; });
    owner_.controller_->when_ready(
        job_name, [this, id, target, job_name](const std::string&) {
          if (this->exec(id).done) return;
          // A later rescale may have superseded this expand while its pods
          // were coming up (it rewrites desired_replicas); drop the stale
          // handshake — the superseding rescale realizes the final state.
          if (owner_.jobs_.get(job_name).desired_replicas != target) return;
          rescale_at_boundary(id, target, [] {});
        });
  }

  void on_job_completed(schedsim::JobExec& exec) override {
    record_replicas(exec.record.id, 0);
    owner_.jobs_.mutate(exec.job_name, [](CharmJob& j) {
      j.phase = CharmJobPhase::kCompleted;
    });
    EHPC_DEBUG("opk", "job %d completed at t=%.1f", exec.record.id,
               sim().now());
  }

  /// Correlated node-group kill: delete every victim job's worker pods
  /// through the k8s store, so the indexed views and batched watchers see
  /// the burst of deletions and the controller's heal path recreates the
  /// ranks (the virtual-time recovery charge itself is applied by the
  /// shared harness, identically to the pure simulator).
  void on_domain_crash(int domain,
                       const std::vector<JobId>& victims) override {
    for (JobId id : victims) {
      schedsim::JobExec& exec = this->exec(id);
      // Collect first: delete_pod mutates the store, which rewrites the
      // index.
      std::vector<std::string> names;
      for (const auto& [name, pod] :
           owner_.cluster_.index().pods_with_label("job", exec.job_name)) {
        if (pod->phase != k8s::PodPhase::kTerminating && is_worker_pod(*pod)) {
          names.push_back(name);
        }
      }
      for (const std::string& name : names) owner_.cluster_.delete_pod(name);
    }
    EHPC_DEBUG("opk", "domain %d crash deleted the pods of %zu jobs at t=%.1f",
               domain, victims.size(), sim().now());
  }

  ClusterExperiment& owner_;
  /// Rescale targets issued before a job's pods came up, by job id.
  std::map<elastic::JobId, int> deferred_rescales_;
  std::vector<std::pair<double, double>> utilization_;
  std::map<JobId, std::vector<std::pair<double, int>>> replicas_;
};

ClusterExperiment::ClusterExperiment(
    ExperimentConfig config,
    std::map<elastic::JobClass, elastic::Workload> workloads)
    : config_(config),
      workloads_(std::move(workloads)),
      cluster_(config.cluster) {
  cluster_.add_nodes("node", config_.nodes,
                     k8s::Resources{config_.cpus_per_node, 32768});
  controller_ = std::make_unique<CharmJobController>(cluster_, jobs_,
                                                     config_.controller);
  harness_ = std::make_unique<Harness>(*this);
  harness_->set_fault_plan(config_.faults);

  // Physical utilization: one sample per delivered pod-event batch.
  // Samples within a tick are zero-width in the time-weighted integral, so
  // one end-of-batch sample is metric-identical to one per mutation.
  cluster_.pods().observe_batches([this] {
    harness_->record_physical_usage();
  });
}

ClusterExperiment::~ClusterExperiment() = default;

schedsim::SimResult ClusterExperiment::run(
    const std::vector<schedsim::SubmittedJob>& mix) {
  schedsim::SimResult result = harness_->run(mix);
  harness_->take_series(result);
  return result;
}

schedsim::SimResult ClusterExperiment::run_stream(trace::TraceSource& source) {
  return harness_->run_stream(source);
}

}  // namespace ehpc::opk
