#pragma once

#include <map>
#include <memory>
#include <vector>

#include "elastic/policy.hpp"
#include "elastic/workload.hpp"
#include "k8s/cluster.hpp"
#include "opk/charmjob.hpp"
#include "opk/controller.hpp"
#include "schedsim/exec.hpp"
#include "schedsim/jobmix.hpp"

namespace ehpc::opk {

struct ExperimentConfig {
  int nodes = 4;
  int cpus_per_node = 16;  ///< c6g.4xlarge
  elastic::PolicyConfig policy;
  /// CCS signal delivery latency from operator to application.
  double signal_latency_s = 0.1;
  k8s::ClusterConfig cluster;
  ControllerConfig controller;
  /// Failure-injection plan, executed by the shared harness so the cluster
  /// substrate sees the exact fault sequence the simulator sees.
  schedsim::FaultPlan faults;
};

/// The paper's §4.3.2 experimental run, on the Kubernetes substrate instead
/// of EKS: jobs are CharmJob custom resources; the shared PolicyEngine makes
/// the same decisions as in the simulator, but every action is realized
/// through the operator — pods must schedule and start before a job runs,
/// shrink frees capacity only after the signal→iteration-boundary→rescale→
/// ack→pod-deletion handshake, and expand waits for new pods to run before
/// signalling. The resulting metrics are the "Actual" column of Table 1.
///
/// Job bookkeeping and the policy-driven run loop live in the shared
/// `schedsim::ExecHarness`; this class supplies the operator-level
/// realisation of every action.
class ClusterExperiment {
 public:
  ClusterExperiment(ExperimentConfig config,
                    std::map<elastic::JobClass, elastic::Workload> workloads);
  ~ClusterExperiment();

  /// Execute one job mix to completion. The result carries Fig. 9's step
  /// series (`SimResult::utilization`, `SimResult::replicas`). Single-shot
  /// per instance.
  schedsim::SimResult run(const std::vector<schedsim::SubmittedJob>& mix);

  /// Replay a streaming trace through the operator machinery. Metrics are
  /// folded online; unlike the pure simulator, finished jobs keep their
  /// (small) bookkeeping entries because staged handshake callbacks may
  /// still inspect them. Single-shot per instance.
  schedsim::SimResult run_stream(trace::TraceSource& source);

  k8s::Cluster& cluster() { return cluster_; }
  CharmJobController& controller() { return *controller_; }

 private:
  class Harness;

  ExperimentConfig config_;
  std::map<elastic::JobClass, elastic::Workload> workloads_;
  k8s::Cluster cluster_;
  /// Delivers on the cluster's simulation like the pod store: same-tick
  /// mutations of one job (readiness + rescale) coalesce into one event, so
  /// the controller reconciles once.
  k8s::ObjectStore<CharmJob> jobs_{cluster_.sim()};
  std::unique_ptr<CharmJobController> controller_;
  std::unique_ptr<Harness> harness_;
};

}  // namespace ehpc::opk
