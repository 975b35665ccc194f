#include "k8s/views.hpp"

#include <algorithm>
#include <limits>

namespace ehpc::k8s {

namespace {

/// Finished pods release their resource claim (but keep their labels
/// counted for affinity while bound — the historical colocation scan had no
/// phase filter).
bool claims_resources(const Pod& pod) {
  return pod.phase != PodPhase::kSucceeded && pod.phase != PodPhase::kFailed;
}

const std::set<std::string> kEmptySet;

}  // namespace

ClusterIndex::ClusterIndex(ObjectStore<Node>& nodes, ObjectStore<Pod>& pods) {
  // Bootstrap from current contents, then track every later mutation.
  for (const Node* node : nodes.list()) {
    on_node_event(WatchEvent::kAdded, nullptr, node);
  }
  for (const Pod* pod : pods.list()) {
    on_pod_event(WatchEvent::kAdded, nullptr, pod);
  }
  nodes.attach_view([this](WatchEvent event, const Node* before,
                           const Node* after) {
    on_node_event(event, before, after);
  });
  pods.attach_view(
      [this](WatchEvent event, const Pod* before, const Pod* after) {
        on_pod_event(event, before, after);
      });
}

double ClusterIndex::alloc_ratio(const NodeEntry& entry) {
  return entry.capacity.cpus > 0
             ? static_cast<double>(entry.used.cpus) / entry.capacity.cpus
             : 0.0;
}

ClusterIndex::NodeEntry& ClusterIndex::entry_for(const std::string& node) {
  return nodes_[node];  // placeholder (exists=false) for orphan bindings
}

void ClusterIndex::bucket_erase(const std::string& node,
                                const NodeEntry& entry) {
  if (!entry.exists || !entry.ready) return;
  auto it = by_ratio_.find(alloc_ratio(entry));
  EHPC_EXPECTS(it != by_ratio_.end());
  it->second.erase(node);
  if (it->second.empty()) by_ratio_.erase(it);
}

void ClusterIndex::bucket_insert(const std::string& node,
                                 const NodeEntry& entry) {
  if (!entry.exists || !entry.ready) return;
  by_ratio_[alloc_ratio(entry)].insert(node);
}

void ClusterIndex::on_node_event(WatchEvent event, const Node* before,
                                 const Node* after) {
  if (before != nullptr) {
    NodeEntry& entry = entry_for(before->meta.name);
    bucket_erase(before->meta.name, entry);
    if (entry.exists && entry.ready) total_cpus_ -= entry.capacity.cpus;
    entry.exists = false;
    entry.ready = false;
  }
  if (after != nullptr) {
    NodeEntry& entry = entry_for(after->meta.name);
    entry.exists = true;
    entry.capacity = after->capacity;
    entry.ready = after->ready;
    if (entry.ready) total_cpus_ += entry.capacity.cpus;
    bucket_insert(after->meta.name, entry);
  } else {
    // Deleted: drop the entry once no bound pod still references it.
    auto it = nodes_.find(before->meta.name);
    if (it != nodes_.end() && it->second.bound_pods == 0) {
      nodes_.erase(it);
    }
  }
  (void)event;
}

void ClusterIndex::add_pod_contribution(const Pod& pod) {
  by_phase_[pod.phase].insert(pod.meta.name);
  for (const auto& [key, value] : pod.meta.labels) {
    by_label_[{key, value}].insert(pod.meta.name);
  }
  if (claims_resources(pod)) used_cpus_ += pod.request.cpus;
  if (pod.node_name.empty()) return;
  NodeEntry& entry = entry_for(pod.node_name);
  bucket_erase(pod.node_name, entry);
  ++entry.bound_pods;
  if (claims_resources(pod)) {
    entry.used = entry.used + pod.request;
    bound_cpus_ += pod.request.cpus;
  }
  for (const auto& [key, value] : pod.meta.labels) {
    ++label_nodes_[{key, value}][pod.node_name];
  }
  bucket_insert(pod.node_name, entry);
}

void ClusterIndex::remove_pod_contribution(const Pod& pod) {
  by_phase_[pod.phase].erase(pod.meta.name);
  for (const auto& [key, value] : pod.meta.labels) {
    auto it = by_label_.find({key, value});
    it->second.erase(pod.meta.name);
    if (it->second.empty()) by_label_.erase(it);
  }
  if (claims_resources(pod)) used_cpus_ -= pod.request.cpus;
  if (pod.node_name.empty()) return;
  NodeEntry& entry = entry_for(pod.node_name);
  bucket_erase(pod.node_name, entry);
  --entry.bound_pods;
  if (claims_resources(pod)) {
    entry.used = entry.used - pod.request;
    bound_cpus_ -= pod.request.cpus;
  }
  for (const auto& [key, value] : pod.meta.labels) {
    auto ln = label_nodes_.find({key, value});
    auto node_it = ln->second.find(pod.node_name);
    if (--node_it->second == 0) ln->second.erase(node_it);
    if (ln->second.empty()) label_nodes_.erase(ln);
  }
  bucket_insert(pod.node_name, entry);
}

void ClusterIndex::on_pod_event(WatchEvent event, const Pod* before,
                                const Pod* after) {
  (void)event;
  if (before != nullptr) remove_pod_contribution(*before);
  if (after != nullptr) add_pod_contribution(*after);
}

Resources ClusterIndex::used_on(const std::string& node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? Resources{} : it->second.used;
}

int ClusterIndex::colocated(const std::string& node, const std::string& key,
                            const std::string& value) const {
  auto it = label_nodes_.find({key, value});
  if (it == label_nodes_.end()) return 0;
  auto count = it->second.find(node);
  return count == it->second.end() ? 0 : count->second;
}

const std::set<std::string>& ClusterIndex::pods_in_phase(PodPhase phase) const {
  auto it = by_phase_.find(phase);
  return it == by_phase_.end() ? kEmptySet : it->second;
}

const std::set<std::string>& ClusterIndex::pods_with_label(
    const std::string& key, const std::string& value) const {
  auto it = by_label_.find({key, value});
  return it == by_label_.end() ? kEmptySet : it->second;
}

std::string ClusterIndex::best_node(const Pod& pod, bool prefer_packed,
                                    double affinity_weight) const {
  ++stats_.placement_queries;
  std::string best;
  double best_score = -std::numeric_limits<double>::infinity();

  // Affinity candidates carry a score bonus, so they are evaluated
  // individually (name order, matching the historical scan's tie-break).
  const std::map<std::string, int>* affinity_nodes = nullptr;
  if (!pod.affinity_key.empty()) {
    auto it = label_nodes_.find({pod.affinity_key, pod.affinity_value});
    if (it != label_nodes_.end()) affinity_nodes = &it->second;
  }
  if (affinity_nodes != nullptr) {
    for (const auto& [name, count] : *affinity_nodes) {
      auto nit = nodes_.find(name);
      const NodeEntry& entry = nit->second;
      if (!entry.exists || !entry.ready) continue;
      ++stats_.nodes_examined;
      if (!(entry.used + pod.request).fits_within(entry.capacity)) continue;
      double score = prefer_packed ? alloc_ratio(entry) : -alloc_ratio(entry);
      score += affinity_weight * count / std::max(1, entry.capacity.cpus);
      if (score > best_score) {
        best_score = score;
        best = name;
      }
    }
  }

  // Plain candidates share a score within a ratio bucket, so the first
  // fitting node of the best feasible bucket is the plain optimum. Walk
  // buckets in score order and stop as soon as no later bucket can win.
  const auto scan_bucket = [&](double ratio,
                               const std::set<std::string>& names) {
    const double score = prefer_packed ? ratio : -ratio;
    if (!best.empty() && score < best_score) return true;  // done
    const bool tie = !best.empty() && score == best_score;
    for (const auto& name : names) {
      if (affinity_nodes != nullptr && affinity_nodes->count(name) > 0) {
        continue;  // scored above, with the bonus
      }
      const NodeEntry& entry = nodes_.find(name)->second;
      ++stats_.nodes_examined;
      if (!(entry.used + pod.request).fits_within(entry.capacity)) continue;
      if (tie) {
        // Equal scores resolve to the first node in global name order
        // (the historical scan kept the first strict maximum).
        if (name < best) best = name;
      } else {
        best_score = score;
        best = name;
      }
      return true;  // later nodes in this bucket can only have larger names
    }
    return false;  // nothing fits here, try the next bucket
  };

  if (prefer_packed) {
    for (auto it = by_ratio_.rbegin(); it != by_ratio_.rend(); ++it) {
      // A CPU-saturated bucket cannot fit a CPU-requesting pod; skip it
      // without touching its (possibly many) nodes.
      if (pod.request.cpus > 0 && it->first >= 1.0) continue;
      if (scan_bucket(it->first, it->second)) break;
    }
  } else {
    for (const auto& [ratio, names] : by_ratio_) {
      if (pod.request.cpus > 0 && ratio >= 1.0) continue;
      if (scan_bucket(ratio, names)) break;
    }
  }
  return best;
}

}  // namespace ehpc::k8s
