#pragma once

#include <memory>
#include <string>

#include "k8s/api.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/scheduler.hpp"
#include "k8s/store.hpp"
#include "k8s/views.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {

struct ClusterConfig {
  SchedulerConfig scheduler;
  KubeletConfig kubelet;
};

/// The assembled control plane: simulation clock, node/pod stores, the
/// scheduler and the node agent, plus convenience helpers mirroring common
/// kubectl verbs. Higher layers (the Charm++ operator) build on this facade.
///
/// The cluster maintains one shared `ClusterIndex` over both stores (all
/// capacity/usage queries are O(1) or O(log n)). Both stores deliver watch
/// events on the cluster's simulation: mutations queue their events and
/// each store flushes at the current virtual time, so a burst of same-tick
/// mutations (a reconcile creating 100 pods, a sweep binding them) costs
/// each watcher one coalesced delivery pass instead of one fan-out per
/// mutation. Store reads and the index stay exact mid-window; only watcher
/// reaction is deferred to the tick's flush point, and every downstream
/// action is scheduled relative to the same virtual time.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  /// Add `count` ready nodes named `<prefix>-<i>` with the given capacity.
  /// The paper's testbed is `add_nodes("node", 4, {16, 32768})`.
  void add_nodes(const std::string& prefix, int count, Resources capacity);

  /// Create a pending pod; the scheduler will place it.
  const Pod& create_pod(Pod pod);

  /// Request pod deletion (phase -> Terminating; kubelet removes it later).
  void delete_pod(const std::string& name);

  /// Total CPU capacity across ready nodes. O(1) from the index.
  int total_cpus() const { return index_->total_cpus(); }

  /// CPUs claimed by non-finished pods (including still-pending ones). O(1).
  int used_cpus() const { return index_->used_cpus(); }

  /// CPUs claimed by pods actually placed on a node (bound, running or
  /// terminating) — what a utilization monitor would observe. O(1).
  int bound_cpus() const { return index_->bound_cpus(); }

  sim::Simulation& sim() { return sim_; }
  ObjectStore<Node>& nodes() { return nodes_; }
  ObjectStore<Pod>& pods() { return pods_; }
  const ClusterIndex& index() const { return *index_; }
  KubeScheduler& scheduler() { return *scheduler_; }
  Kubelet& kubelet() { return *kubelet_; }

 private:
  sim::Simulation sim_;
  ObjectStore<Node> nodes_{sim_};
  ObjectStore<Pod> pods_{sim_};
  std::unique_ptr<ClusterIndex> index_;
  std::unique_ptr<KubeScheduler> scheduler_;
  std::unique_ptr<Kubelet> kubelet_;
};

}  // namespace ehpc::k8s
