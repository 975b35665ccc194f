#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "k8s/api.hpp"
#include "k8s/store.hpp"

namespace ehpc::k8s {

/// Incrementally-maintained indexed views over the node/pod stores — the
/// FileSystemView pattern: a flat object store stays the source of truth,
/// and every query the hot paths need is answered from an index that each
/// mutation updates in O(log n), never from a linear rescan.
///
/// Maintained views:
///   - per-node allocated resources (`used_on`) and per-node counts of bound
///     pods by label pair (the scheduler's soft-affinity term);
///   - a phase-keyed pod index; its kPending set doubles as the pending-pod
///     queue in name order (the scheduler's retry order);
///   - a pods-by-label index over *all* pods (the controller's
///     pods-of-this-job lookup);
///   - cluster aggregates: total ready CPUs, CPUs claimed by non-finished
///     pods, CPUs claimed by bound non-finished pods — all O(1) reads;
///   - placement buckets: ready nodes grouped by CPU allocation ratio in a
///     sorted map, so binpack/spread pick the best feasible node by walking
///     buckets in score order instead of scoring every node.
///
/// Consistency: the index attaches `ObjectStore` views, which run
/// synchronously inside every mutation — so all queries here are exact with
/// respect to the stores at all times, including mid-window while watch
/// delivery is still queued. Construction bootstraps from the stores' current
/// contents, so the index may be attached to non-empty stores.
///
/// Semantics match the historical scan-based queries bit for bit:
///   - a pod claims node resources iff it is bound (`node_name` set) and not
///     Succeeded/Failed (Terminating pods hold their request until removed);
///   - the affinity count includes bound pods of *any* phase (the historical
///     colocation scan had no phase filter);
///   - `used_on` of an unknown node name is zero resources.
class ClusterIndex {
 public:
  /// Deterministic query-cost counters (virtual-time invariant), used by the
  /// scale bench to pin scheduler tick cost in a committed baseline.
  struct Stats {
    std::int64_t placement_queries = 0;  ///< best_node calls
    std::int64_t nodes_examined = 0;     ///< fit/score evaluations inside them
  };

  ClusterIndex(ObjectStore<Node>& nodes, ObjectStore<Pod>& pods);

  ClusterIndex(const ClusterIndex&) = delete;
  ClusterIndex& operator=(const ClusterIndex&) = delete;

  /// Resources claimed on `node` by bound, non-finished pods.
  Resources used_on(const std::string& node) const;

  /// Bound pods on `node` whose labels carry `key`=`value` (any phase).
  int colocated(const std::string& node, const std::string& key,
                const std::string& value) const;

  /// Total CPU capacity across ready nodes.
  int total_cpus() const { return total_cpus_; }
  /// CPUs claimed by non-finished pods (including still-pending ones).
  int used_cpus() const { return used_cpus_; }
  /// CPUs claimed by bound non-finished pods (what a monitor observes).
  int bound_cpus() const { return bound_cpus_; }

  /// Pod names in `phase`, in name order. The kPending set is the pending
  /// queue: iterating it reproduces the historical name-ordered retry scan.
  const std::set<std::string>& pods_in_phase(PodPhase phase) const;

  /// Names of pods (any phase, bound or not) carrying `key`=`value`.
  const std::set<std::string>& pods_with_label(const std::string& key,
                                               const std::string& value) const;

  /// Best feasible node for `pod` under the given scoring parameters, or
  /// empty if nothing fits. Exactly the historical all-nodes scan semantics:
  /// score = ±allocation ratio (+ affinity bonus), winner = first node in
  /// name order with a strictly greater score. Implemented as an
  /// O(affinity candidates + buckets-until-fit) walk instead of O(nodes ×
  /// pods).
  std::string best_node(const Pod& pod, bool prefer_packed,
                        double affinity_weight) const;

  const Stats& stats() const { return stats_; }

 private:
  struct NodeEntry {
    Resources capacity;
    Resources used;
    bool ready = false;
    bool exists = false;  ///< false: placeholder created by an orphan binding
    int bound_pods = 0;   ///< pods (any phase) whose node_name is this node
  };

  void on_node_event(WatchEvent event, const Node* before, const Node* after);
  void on_pod_event(WatchEvent event, const Pod* before, const Pod* after);
  void add_pod_contribution(const Pod& pod);
  void remove_pod_contribution(const Pod& pod);
  NodeEntry& entry_for(const std::string& node);
  void bucket_erase(const std::string& node, const NodeEntry& entry);
  void bucket_insert(const std::string& node, const NodeEntry& entry);
  static double alloc_ratio(const NodeEntry& entry);

  std::map<std::string, NodeEntry> nodes_;
  /// Ready nodes by CPU allocation ratio (name-ordered within a bucket).
  std::map<double, std::set<std::string>> by_ratio_;
  /// Pod names by phase.
  std::map<PodPhase, std::set<std::string>> by_phase_;
  /// All pods by label pair, bound or not.
  std::map<std::pair<std::string, std::string>, std::set<std::string>>
      by_label_;
  /// Nodes hosting bound pods (any phase) with a given label pair -> count:
  /// the scheduler's affinity candidate set and the `colocated` term.
  std::map<std::pair<std::string, std::string>, std::map<std::string, int>>
      label_nodes_;
  int total_cpus_ = 0;
  int used_cpus_ = 0;
  int bound_cpus_ = 0;
  mutable Stats stats_;
};

}  // namespace ehpc::k8s
