#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "charm/types.hpp"

namespace ehpc::charm {

/// Per-object measurement handed to a load-balancing strategy.
struct LbObject {
  ArrayId array = 0;
  ElementId elem = 0;
  double load = 0.0;        ///< accumulated compute seconds since last LB
  std::size_t bytes = 0;    ///< migration payload size (pup size)
  PeId current_pe = 0;
};

/// Result of one strategy invocation: the new PE for each input object, in
/// input order, restricted to the available PEs.
using LbAssignment = std::vector<PeId>;

/// Measured object-communication graph handed to comm-aware strategies.
/// Edge endpoints index into the `objects` vector passed alongside it;
/// `bytes` is the traffic measured between the two objects since the last
/// LB step (both directions summed). `byte_cost(a, b)` prices one byte
/// between two PEs in virtual-time seconds from a node-pair price table
/// the runtime fills once per LB step from its NetworkModel, so placement
/// cost reflects the actual topology (same-PE traffic is free, cross-rack
/// traffic dearest) without pricing a message per candidate move.
struct LbCommGraph {
  struct Edge {
    int a = 0;
    int b = 0;
    double bytes = 0.0;
  };
  std::vector<Edge> edges;
  /// Row of each PE's node in `node_price`, indexed by PeId; -1 for PEs
  /// outside the priced set.
  std::vector<int> pe_node;
  /// Per-byte price between priced nodes, row-major `nodes` x `nodes`.
  std::vector<double> node_price;
  int nodes = 0;

  bool empty() const { return edges.empty() || nodes == 0; }

  double byte_cost(PeId a, PeId b) const {
    if (a == b) return 0.0;
    const int row = pe_node[static_cast<std::size_t>(a)];
    const int col = pe_node[static_cast<std::size_t>(b)];
    return node_price[static_cast<std::size_t>(row * nodes + col)];
  }

  /// Fill the price table for `pes` (sorted ascending): `node_of(pe)` names
  /// each PE's node and `price(x, y)` the per-byte cost from node x to node
  /// y. `price` is called once per ordered pair of nodes hosting `pes`,
  /// diagonal included.
  template <class NodeOf, class Price>
  void set_prices(const std::vector<PeId>& pes, NodeOf node_of, Price price) {
    std::vector<int> node_ids;  // row -> node id, in first-seen order
    pe_node.assign(pes.empty() ? 0 : static_cast<std::size_t>(pes.back()) + 1,
                   -1);
    for (PeId pe : pes) {
      const int node = node_of(pe);
      const auto it = std::find(node_ids.begin(), node_ids.end(), node);
      pe_node[static_cast<std::size_t>(pe)] =
          static_cast<int>(it - node_ids.begin());
      if (it == node_ids.end()) node_ids.push_back(node);
    }
    nodes = static_cast<int>(node_ids.size());
    node_price.resize(node_ids.size() * node_ids.size());
    for (std::size_t x = 0; x < node_ids.size(); ++x) {
      for (std::size_t y = 0; y < node_ids.size(); ++y) {
        node_price[x * node_ids.size() + y] = price(node_ids[x], node_ids[y]);
      }
    }
  }
};

/// Strategy interface. Strategies are centralized (they see all objects),
/// matching Charm++'s central LB family used by shrink/expand.
class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual std::string name() const = 0;

  /// Compute a new assignment of `objects` onto `available_pes`.
  /// `available_pes` is non-empty and sorted ascending.
  virtual LbAssignment assign(const std::vector<LbObject>& objects,
                              const std::vector<PeId>& available_pes) const = 0;

  /// True when the strategy consumes the communication graph; the runtime
  /// only pays for per-message comm tracking when its strategy wants it.
  virtual bool comm_aware() const { return false; }

  /// Comm-graph-aware overload. The default ignores the graph and defers
  /// to the compute-only assignment, so existing strategies need no change.
  virtual LbAssignment assign(const std::vector<LbObject>& objects,
                              const LbCommGraph& comm,
                              const std::vector<PeId>& available_pes) const {
    (void)comm;
    return assign(objects, available_pes);
  }
};

/// Keeps every object where it is, unless its PE is unavailable, in which
/// case the object is moved to the least-loaded available PE. The cheapest
/// legal strategy; used as a baseline and by tests.
class NullLb final : public LoadBalancer {
 public:
  std::string name() const override { return "NullLB"; }
  LbAssignment assign(const std::vector<LbObject>& objects,
                      const std::vector<PeId>& available_pes) const override;
};

/// Charm++-style GreedyLB: sorts objects by decreasing load and repeatedly
/// assigns to the currently least-loaded PE. Ignores current placement, so it
/// balances best but migrates most.
class GreedyLb final : public LoadBalancer {
 public:
  std::string name() const override { return "GreedyLB"; }
  LbAssignment assign(const std::vector<LbObject>& objects,
                      const std::vector<PeId>& available_pes) const override;
};

/// Charm++-style RefineLB: starts from current placement (evicting objects on
/// unavailable PEs first) and migrates objects from overloaded PEs to
/// underloaded ones until every PE is within `tolerance` of the average load.
/// Minimizes migration volume; the default for shrink/expand.
class RefineLb final : public LoadBalancer {
 public:
  explicit RefineLb(double tolerance = 1.05) : tolerance_(tolerance) {}
  std::string name() const override { return "RefineLB"; }
  LbAssignment assign(const std::vector<LbObject>& objects,
                      const std::vector<PeId>& available_pes) const override;

 private:
  double tolerance_;
};

/// Comm-aware greedy refinement: seeds with GreedyLB's compute-balanced
/// assignment, then iteratively moves the objects with the heaviest
/// adjacent traffic to the PE minimizing their communication cost over the
/// topology, as long as the destination stays within `tolerance` of the
/// average compute load. Trades a bounded amount of compute imbalance for
/// cut-traffic reduction; with no measured comm graph it degrades to
/// RefineLB (so it is safe as a drop-in strategy on comm-free apps).
class CommRefineLb final : public LoadBalancer {
 public:
  explicit CommRefineLb(double tolerance = 1.15) : tolerance_(tolerance) {}
  std::string name() const override { return "CommRefineLB"; }
  bool comm_aware() const override { return true; }
  LbAssignment assign(const std::vector<LbObject>& objects,
                      const std::vector<PeId>& available_pes) const override;
  LbAssignment assign(const std::vector<LbObject>& objects,
                      const LbCommGraph& comm,
                      const std::vector<PeId>& available_pes) const override;

 private:
  double tolerance_;
};

/// Factory: "null", "greedy", "refine", or "commrefine".
std::unique_ptr<LoadBalancer> make_load_balancer(const std::string& name);

/// The strategy names `make_load_balancer` accepts, in a stable order
/// (ablations index into this list).
const std::vector<std::string>& load_balancer_names();

/// Imbalance accounting of one LB invocation (one "LB step").
struct LbStepStats {
  std::string strategy;     ///< LoadBalancer::name() of the strategy run
  double pre_ratio = 1.0;   ///< max/avg PE load before the step
  double post_ratio = 1.0;  ///< max/avg PE load after the step
  int migrated = 0;         ///< objects whose PE changed
  int objects = 0;          ///< objects considered
};

/// Run `strategy` over `objects` with a never-worse guarantee: when every
/// object's current PE is still available and the proposed assignment would
/// *raise* the max/avg load ratio, the current placement is kept instead
/// (zero migrations). During a rescale the current placement is illegal
/// (objects sit on vanishing PEs), so the strategy's proposal always stands.
/// Fills `stats` (if non-null) with the step's imbalance accounting; the
/// pre-LB ratio is measured over `available_pes` when the current placement
/// is legal there (directly comparable with post_ratio), otherwise over the
/// PEs currently hosting objects (the shrink/evacuation case).
LbAssignment run_strategy(const LoadBalancer& strategy,
                          const std::vector<LbObject>& objects,
                          const std::vector<PeId>& available_pes,
                          LbStepStats* stats = nullptr);

/// Comm-graph-aware overload. When the strategy is comm-aware and the
/// graph is non-empty, the max/avg never-worse guard is *waived*: such a
/// strategy deliberately accepts bounded compute imbalance (its own
/// tolerance) to cut network traffic, which the compute-only ratio cannot
/// see. Compute-only strategies keep the full guard.
LbAssignment run_strategy(const LoadBalancer& strategy,
                          const std::vector<LbObject>& objects,
                          const LbCommGraph& comm,
                          const std::vector<PeId>& available_pes,
                          LbStepStats* stats = nullptr);

/// Maximum PE load divided by average PE load for a given assignment
/// (1.0 = perfectly balanced). Utility shared by strategies and tests.
double load_imbalance(const std::vector<LbObject>& objects,
                      const LbAssignment& assignment,
                      const std::vector<PeId>& available_pes);

}  // namespace ehpc::charm
