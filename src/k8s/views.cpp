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

/// What a pod image claims: its request while not finished, else nothing.
Resources claim_of(const Pod* pod) {
  return pod != nullptr && claims_resources(*pod) ? pod->request
                                                  : Resources{};
}

std::size_t phase_index(PodPhase phase) {
  return static_cast<std::size_t>(phase);
}

/// Walk two label maps in key order and report each (key, value) pair only
/// in `before` to `gone` and each pair only in `after` to `fresh`. A key
/// whose value changed reports both.
template <typename Gone, typename Fresh>
void diff_labels(const std::map<std::string, std::string>& before,
                 const std::map<std::string, std::string>& after, Gone&& gone,
                 Fresh&& fresh) {
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    if (a == after.end() || (b != before.end() && *b < *a)) {
      gone(*b++);
    } else if (b == before.end() || *a < *b) {
      fresh(*a++);
    } else {
      ++b;
      ++a;
    }
  }
}

const std::map<std::string, std::string> kNoLabels;
const std::string kUnbound;
const std::map<std::string, const Pod*> kNoPods;

}  // namespace

ClusterIndex::ClusterIndex(ObjectStore<Node>& nodes, ObjectStore<Pod>& pods) {
  // Bootstrap from current contents, then track every later mutation.
  for (const Node* node : nodes.list()) {
    on_node_event(WatchEvent::kAdded, nullptr, node);
  }
  for (const Pod* pod : pods.list()) {
    apply(nullptr, pod);
  }
  nodes.attach_view([this](WatchEvent event, const Node* before,
                           const Node* after) {
    on_node_event(event, before, after);
  });
  pods.attach_view(
      [this](WatchEvent, const Pod* before, const Pod* after) {
        apply(before, after);
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

void ClusterIndex::apply(const Pod* before, const Pod* after) {
  const std::string& name = (after != nullptr ? after : before)->meta.name;

  // Phase: splice the name's set node across, without reallocating it.
  if (before == nullptr) {
    by_phase_[phase_index(after->phase)].insert(name);
  } else if (after == nullptr) {
    by_phase_[phase_index(before->phase)].erase(name);
  } else if (before->phase != after->phase) {
    by_phase_[phase_index(after->phase)].insert(
        by_phase_[phase_index(before->phase)].extract(name));
  }

  // Labels. A modification keeps the pod's store element, so the entries
  // of unchanged pairs already point at `after`.
  const auto& labels_before = before != nullptr ? before->meta.labels
                                                : kNoLabels;
  const auto& labels_after = after != nullptr ? after->meta.labels
                                              : kNoLabels;
  const bool relabelled = before == nullptr || after == nullptr ||
                          labels_before != labels_after;
  if (relabelled) {
    diff_labels(
        labels_before, labels_after,
        [&](const auto& pair) {
          auto it = by_label_.find({pair.first, pair.second});
          it->second.erase(name);
          if (it->second.empty()) by_label_.erase(it);
        },
        [&](const auto& pair) {
          by_label_[{pair.first, pair.second}].emplace(name, after);
        });
  }

  // Claims: the cluster aggregate, then the node share of a bound pod.
  const Resources claim_before = claim_of(before);
  const Resources claim_after = claim_of(after);
  used_cpus_ += claim_after.cpus - claim_before.cpus;
  const std::string& node_before =
      before != nullptr ? before->node_name : kUnbound;
  const std::string& node_after =
      after != nullptr ? after->node_name : kUnbound;
  if (node_before != node_after) {
    if (!node_before.empty()) {
      place(node_before, claim_before, labels_before, -1);
    }
    if (!node_after.empty()) place(node_after, claim_after, labels_after, 1);
    return;
  }
  if (node_after.empty()) return;
  if (claim_before != claim_after) {
    NodeEntry& entry = entry_for(node_after);
    bucket_erase(node_after, entry);
    entry.used = entry.used - claim_before + claim_after;
    bound_cpus_ += claim_after.cpus - claim_before.cpus;
    bucket_insert(node_after, entry);
  }
  if (relabelled) {
    diff_labels(
        labels_before, labels_after,
        [&](const auto& pair) {
          count_label_on_node(pair.first, pair.second, node_after, -1);
        },
        [&](const auto& pair) {
          count_label_on_node(pair.first, pair.second, node_after, 1);
        });
  }
}

void ClusterIndex::place(const std::string& node, const Resources& claim,
                         const std::map<std::string, std::string>& labels,
                         int sign) {
  NodeEntry& entry = entry_for(node);
  entry.bound_pods += sign;
  if (claim != Resources{}) {
    bucket_erase(node, entry);
    entry.used = sign > 0 ? entry.used + claim : entry.used - claim;
    bound_cpus_ += sign * claim.cpus;
    bucket_insert(node, entry);
  }
  for (const auto& [key, value] : labels) {
    count_label_on_node(key, value, node, sign);
  }
}

void ClusterIndex::count_label_on_node(const std::string& key,
                                       const std::string& value,
                                       const std::string& node, int delta) {
  auto pair = label_nodes_.try_emplace({key, value}).first;
  auto count = pair->second.try_emplace(node, 0).first;
  count->second += delta;
  if (count->second != 0) return;
  pair->second.erase(count);
  if (pair->second.empty()) label_nodes_.erase(pair);
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
  return by_phase_[phase_index(phase)];
}

const std::map<std::string, const Pod*>& ClusterIndex::pods_with_label(
    const std::string& key, const std::string& value) const {
  auto it = by_label_.find({key, value});
  return it == by_label_.end() ? kNoPods : it->second;
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
