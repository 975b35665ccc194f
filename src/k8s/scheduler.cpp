#include "k8s/scheduler.hpp"

#include <vector>

#include "common/log.hpp"

namespace ehpc::k8s {

KubeScheduler::KubeScheduler(sim::Simulation& sim, ObjectStore<Node>& nodes,
                             ObjectStore<Pod>& pods, const ClusterIndex& index,
                             SchedulerConfig config)
    : sim_(sim), pods_(pods), index_(index), config_(config) {
  // Watch for new pending pods and for capacity freed by departing pods.
  pods_.watch([this](WatchEvent event, const Pod& pod) {
    if (event == WatchEvent::kAdded && pod.phase == PodPhase::kPending) {
      const std::string name = pod.meta.name;
      sim_.schedule_after(config_.schedule_latency_s,
                          [this, name] { try_schedule(name); });
    } else if (event == WatchEvent::kDeleted) {
      // Freed capacity: give unschedulable pods another chance.
      request_retry();
    }
  });
  nodes.watch([this](WatchEvent, const Node&) { request_retry(); });
}

std::string KubeScheduler::pick_node(const Pod& pod) const {
  return index_.best_node(pod,
                          config_.strategy == PlacementStrategy::kBinPack,
                          config_.affinity_weight);
}

void KubeScheduler::try_schedule(const std::string& pod_name) {
  const Pod* pod = pods_.find(pod_name);
  if (pod == nullptr || pod->phase != PodPhase::kPending) return;
  ++stats_.bind_attempts;
  const std::string node = pick_node(*pod);
  if (node.empty()) {
    EHPC_DEBUG("kube-scheduler", "pod %s unschedulable, stays pending",
               pod_name.c_str());
    return;  // retried on the next pod/node event
  }
  const double now = sim_.now();
  pods_.mutate(pod_name, [&](Pod& p) {
    p.phase = PodPhase::kScheduled;
    p.node_name = node;
    p.scheduled_time = now;
  });
  ++scheduled_count_;
  EHPC_DEBUG("kube-scheduler", "bound pod %s -> %s", pod_name.c_str(),
             node.c_str());
}

void KubeScheduler::request_retry() {
  const double target = sim_.now() + config_.schedule_latency_s;
  if (target == retry_scheduled_for_) return;  // one sweep per tick
  retry_scheduled_for_ = target;
  sim_.schedule_after(config_.schedule_latency_s, [this] { retry_pending(); });
}

void KubeScheduler::retry_pending() {
  ++stats_.retry_sweeps;
  // Copy the names: a successful bind mutates the pending index mid-sweep.
  const auto& pending = index_.pods_in_phase(PodPhase::kPending);
  const std::vector<std::string> names(pending.begin(), pending.end());
  for (const std::string& name : names) try_schedule(name);
}

}  // namespace ehpc::k8s
