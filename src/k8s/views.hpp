#pragma once

#include <array>
#include <cstddef>
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
///   - a pods-by-label index over *all* pods, name -> pod (the controller's
///     pods-of-this-job lookup);
///   - cluster aggregates: total ready CPUs, CPUs claimed by non-finished
///     pods, CPUs claimed by bound non-finished pods — all O(1) reads;
///   - placement buckets: ready nodes grouped by CPU allocation ratio in a
///     sorted map, so binpack/spread pick the best feasible node by walking
///     buckets in score order instead of scoring every node.
///
/// Delta updates: every pod mutation goes through one routine, `apply`,
/// which compares the before/after images and touches only the parts that
/// differ. A phase-only change moves the name between two phase sets (a
/// node-handle splice, no allocation); the label sets change only when the
/// labels do; the claims, the node entry, its ratio bucket and the
/// affinity counts change only when the claim, the binding or the labels
/// of a bound pod do. Add and delete are the cases with no before or no
/// after image.
///
/// Consistency: the index attaches `ObjectStore` views, which run
/// synchronously inside every mutation — so all queries here are exact with
/// respect to the stores at all times, including mid-window while watch
/// delivery is still queued. Construction bootstraps from the stores' current
/// contents, so the index may be attached to non-empty stores.
///
/// Semantics match the historical scan-based queries bit for bit:
///   - a pod claims node resources iff it is not Succeeded/Failed
///     (Terminating pods hold their request until removed); it claims them
///     on a node iff it is also bound (`node_name` set);
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

  /// Pods (any phase, bound or not) carrying `key`=`value`, by name in name
  /// order. Each pointer targets the pod store's own element, which a
  /// modification updates in place; it stays valid until that pod is
  /// removed, and the removal drops the entry in the same mutation. So
  /// between mutations every entry is live, but a caller that mutates the
  /// pod store while walking the map must copy what it needs first.
  const std::map<std::string, const Pod*>& pods_with_label(
      const std::string& key, const std::string& value) const;

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

  using LabelPair = std::pair<std::string, std::string>;
  static constexpr std::size_t kPodPhases =
      static_cast<std::size_t>(PodPhase::kTerminating) + 1;

  void on_node_event(WatchEvent event, const Node* before, const Node* after);
  /// The one pod mutation routine: move the index from `before` to `after`
  /// (null `before`: added; null `after`: deleted), touching only the parts
  /// whose inputs differ.
  void apply(const Pod* before, const Pod* after);
  /// Add (`sign` +1) or remove (-1) a bound pod's share of `node`: its
  /// claim, its bound-pod count and its label pairs.
  void place(const std::string& node, const Resources& claim,
             const std::map<std::string, std::string>& labels, int sign);
  void count_label_on_node(const std::string& key, const std::string& value,
                           const std::string& node, int delta);
  NodeEntry& entry_for(const std::string& node);
  void bucket_erase(const std::string& node, const NodeEntry& entry);
  void bucket_insert(const std::string& node, const NodeEntry& entry);
  static double alloc_ratio(const NodeEntry& entry);

  std::map<std::string, NodeEntry> nodes_;
  /// Ready nodes by CPU allocation ratio (name-ordered within a bucket).
  std::map<double, std::set<std::string>> by_ratio_;
  /// Pod names by phase, indexed by `PodPhase`.
  std::array<std::set<std::string>, kPodPhases> by_phase_;
  /// All pods by label pair, bound or not (see `pods_with_label`).
  std::map<LabelPair, std::map<std::string, const Pod*>> by_label_;
  /// Nodes hosting bound pods (any phase) with a given label pair -> count:
  /// the scheduler's affinity candidate set and the `colocated` term.
  std::map<LabelPair, std::map<std::string, int>> label_nodes_;
  int total_cpus_ = 0;
  int used_cpus_ = 0;
  int bound_cpus_ = 0;
  mutable Stats stats_;
};

}  // namespace ehpc::k8s
