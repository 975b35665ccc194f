#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>

#include "k8s/cluster.hpp"
#include "k8s/store.hpp"
#include "opk/charmjob.hpp"

namespace ehpc::opk {

/// True for the operator's worker pods (label role=worker), as opposed to
/// a job's launcher pod.
bool is_worker_pod(const k8s::Pod& pod);

struct ControllerConfig {
  /// Delay between a watch event and the reconcile that reacts to it
  /// (work-queue + API round-trips of a real controller).
  double reconcile_latency_s = 0.2;
};

/// The operator's controller: a reconcile loop that drives worker pods
/// toward each CharmJob's `desired_replicas` (paper §3.1). It creates pods
/// `<job>-worker-<rank>` with the job label and soft pod-affinity to their
/// siblings, deletes the highest ranks when shrinking, maintains the
/// nodelist, and reports readiness transitions upward.
class CharmJobController {
 public:
  using ReadyCallback = std::function<void(const std::string& job_name)>;

  CharmJobController(k8s::Cluster& cluster, k8s::ObjectStore<CharmJob>& jobs,
                     ControllerConfig config);

  /// One-shot: invoke `fn` once the job's ready replicas equal its desired
  /// count. Fires immediately (via a zero-latency event) if already true.
  /// Multiple waiters may be pending per job (overlapping rescale
  /// handshakes); they fire in registration order.
  void when_ready(const std::string& job_name, ReadyCallback fn);

  /// Force a reconcile pass for a job (used after desired_replicas changes).
  void request_reconcile(const std::string& job_name);

  int reconcile_count() const { return reconcile_count_; }

 private:
  void reconcile(const std::string& job_name);
  void update_readiness(const std::string& job_name);
  std::string pod_name(const std::string& job_name, int rank) const;
  /// Rank of a worker pod: the number after the last '-' of its name.
  static int pod_rank(const std::string& pod_name);

  k8s::Cluster& cluster_;
  k8s::ObjectStore<CharmJob>& jobs_;
  ControllerConfig config_;
  std::map<std::string, std::vector<ReadyCallback>> ready_waiters_;
  /// Jobs with a readiness check already queued for the current tick — pod
  /// events arriving on one tick fold into a single check (idempotent at a
  /// fixed virtual time, so this is behavior-identical and O(distinct jobs)).
  std::set<std::string> readiness_check_pending_;
  int reconcile_count_ = 0;
};

}  // namespace ehpc::opk
