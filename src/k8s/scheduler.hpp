#pragma once

#include <cstdint>
#include <string>

#include "k8s/api.hpp"
#include "k8s/store.hpp"
#include "k8s/views.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {

/// Placement strategy of the scoring phase.
enum class PlacementStrategy {
  kBinPack,  ///< prefer the most-allocated feasible node (fills gaps)
  kSpread,   ///< prefer the least-allocated feasible node
};

struct SchedulerConfig {
  /// Delay between a pod appearing and its binding (queue + cycle latency).
  double schedule_latency_s = 0.05;
  PlacementStrategy strategy = PlacementStrategy::kBinPack;
  /// Score bonus per co-located pod matching the pod's affinity selector.
  /// The Charm++ operator relies on this for locality-aware placement.
  double affinity_weight = 4.0;
};

/// The kube-scheduler of the substrate: watches for Pending pods, runs a
/// filter phase (node ready, resources fit) and a scoring phase (binpack or
/// spread, plus soft pod-affinity), then binds the pod after the configured
/// scheduling latency. Pods that fit nowhere stay Pending and are retried on
/// every subsequent pod/node change.
///
/// All placement queries are answered from the cluster's shared
/// `ClusterIndex` (incrementally maintained, O(log n) per mutation; it must
/// outlive the scheduler) instead of rescanning the stores, so a
/// scheduling tick costs O(pending × feasible-node walk) rather than
/// O(pods × nodes × pods). Retry passes triggered by several events landing
/// on the same virtual-time tick are deduplicated: the pass is idempotent at
/// a fixed time, so one sweep per tick is behavior-identical to the
/// historical one-sweep-per-event.
class KubeScheduler {
 public:
  /// Deterministic tick-cost counters (committed-baseline material).
  struct Stats {
    std::int64_t bind_attempts = 0;  ///< try_schedule invocations
    std::int64_t retry_sweeps = 0;   ///< deduplicated pending-queue sweeps
  };

  /// `index` must be maintained over `nodes` and `pods`.
  KubeScheduler(sim::Simulation& sim, ObjectStore<Node>& nodes,
                ObjectStore<Pod>& pods, const ClusterIndex& index,
                SchedulerConfig config);

  /// Feasible-and-best node for `pod`, or empty if none fits right now.
  std::string pick_node(const Pod& pod) const;

  int scheduled_count() const { return scheduled_count_; }
  const Stats& stats() const { return stats_; }

 private:
  void try_schedule(const std::string& pod_name);
  void retry_pending();
  void request_retry();

  sim::Simulation& sim_;
  ObjectStore<Pod>& pods_;
  const ClusterIndex& index_;
  SchedulerConfig config_;
  /// Virtual time of the most recently scheduled retry sweep; sweeps are
  /// deduplicated per target tick (events arrive in nondecreasing time).
  double retry_scheduled_for_ = -1.0;
  int scheduled_count_ = 0;
  Stats stats_;
};

}  // namespace ehpc::k8s
