#include "k8s/cluster.hpp"

#include "common/error.hpp"

namespace ehpc::k8s {

Cluster::Cluster(ClusterConfig config) {
  index_ = std::make_unique<ClusterIndex>(nodes_, pods_);
  scheduler_ = std::make_unique<KubeScheduler>(sim_, nodes_, pods_, *index_,
                                               config.scheduler);
  kubelet_ = std::make_unique<Kubelet>(sim_, pods_, config.kubelet);
}

void Cluster::add_nodes(const std::string& prefix, int count,
                        Resources capacity) {
  EHPC_EXPECTS(count > 0);
  for (int i = 0; i < count; ++i) {
    Node node;
    node.meta.name = prefix + "-" + std::to_string(i);
    node.meta.creation_time = sim_.now();
    node.capacity = capacity;
    nodes_.add(std::move(node));
  }
}

const Pod& Cluster::create_pod(Pod pod) {
  pod.meta.creation_time = sim_.now();
  pod.phase = PodPhase::kPending;
  return pods_.add(std::move(pod));
}

void Cluster::delete_pod(const std::string& name) {
  const Pod* pod = pods_.find(name);
  if (pod == nullptr || pod->phase == PodPhase::kTerminating) return;
  pods_.mutate(name, [](Pod& p) { p.phase = PodPhase::kTerminating; });
}

}  // namespace ehpc::k8s
