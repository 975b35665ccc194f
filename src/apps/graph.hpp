#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/driver.hpp"
#include "charm/runtime.hpp"

namespace ehpc::apps {

/// Configuration of the power-law graph workload: pagerank-style supersteps
/// over a deterministic Chung-Lu graph. Vertex u carries weight
/// (u+1)^(-skew); both out-degrees and edge targets follow the weights, so
/// low-numbered vertices are hubs that concentrate message volume. The
/// graph is partitioned into `parts` contiguous vertex ranges (one chare
/// each), which piles the hub traffic into the low parts — the placement
/// problem a comm-aware load balancer exists to solve.
///
/// Everything is counter-based (splitmix64 on (seed, vertex, stub)): the
/// edge set, and therefore every rank value, is a pure function of the
/// config — independent of placement, PE count, or sweep threading.
struct GraphConfig {
  int vertices = 4096;
  int parts = 64;             ///< chare count (contiguous vertex ranges)
  double skew = 0.8;          ///< power-law exponent; 0 = uniform degrees
  double avg_degree = 8.0;    ///< target mean out-degree
  int max_iterations = 16;    ///< supersteps to run
  double flops_per_edge = 8.0;
  unsigned seed = 2025;       ///< edge-generation stream seed
};

/// Immutable per-part graph structure, shared by the element factory (it
/// survives restarts; pup only carries the mutable rank state). All edge
/// lists are in global generation order — (vertex ascending, stub
/// ascending) — so send-side value order and receive-side index order agree
/// by construction, and contributions apply in a placement-independent
/// order.
struct GraphPartTopo {
  int first_vertex = 0;
  int num_vertices = 0;
  /// 1 / out-degree per local vertex (the pagerank scatter factor).
  std::vector<double> inv_outdeg;
  /// Intra-part edges as (src local index, dst local index).
  std::vector<std::pair<int, int>> local_edges;
  struct OutPeer {
    int part = 0;      ///< destination part
    int dst_slot = 0;  ///< index of this sender in the destination's in_peers
    std::vector<int> src_local;  ///< source local index per edge
  };
  struct InPeer {
    int part = 0;                ///< source part
    std::vector<int> dst_local;  ///< destination local index per edge
  };
  std::vector<OutPeer> out_peers;  ///< ascending destination part id
  std::vector<InPeer> in_peers;    ///< ascending source part id
  std::int64_t total_out_edges = 0;  ///< local + cross (sender flops)
};

/// One graph partition: the ranks of its vertex range plus superstep gates.
/// Migratable; the topology is shared immutable state re-attached by the
/// element factory after restarts.
class GraphPart final : public charm::Chare {
 public:
  explicit GraphPart(std::shared_ptr<const GraphPartTopo> topo);

  void pup(charm::Pup& p) override;

  const GraphPartTopo& topo() const { return *topo_; }
  int iteration() const { return iteration_; }
  double rank(int local) const {
    return ranks_[static_cast<std::size_t>(local)];
  }

  void mark_started() { started_ = true; }
  bool ready_to_compute() const {
    return started_ &&
           recv_count_ >= static_cast<int>(topo_->in_peers.size());
  }

  /// Scatter values for one outgoing peer, in that peer's edge order.
  std::vector<double> scatter_values(const GraphPartTopo::OutPeer& peer) const;

  /// Install a neighbour part's contributions (slot = our in_peers index).
  void receive(int slot, std::vector<double> values);

  /// One pagerank update over the local range: apply local edges, then the
  /// inbox in ascending source-part order (fixed FP order regardless of
  /// message arrival order), damp, and return the number of vertices whose
  /// rank moved by more than the convergence threshold. Resets the gates.
  double compute();

 private:
  std::shared_ptr<const GraphPartTopo> topo_;
  std::vector<double> ranks_;
  std::vector<std::vector<double>> inbox_;  ///< aligned with topo_->in_peers
  int iteration_ = 0;
  int recv_count_ = 0;
  bool started_ = false;
};

/// The graph application: generates the Chung-Lu edge set, partitions it,
/// wires the superstep messaging and the active-vertex reduction, and
/// drives supersteps through an IterationDriver (so rescales and periodic
/// load balancing are honoured at superstep boundaries).
class Graph {
 public:
  using Config = GraphConfig;
  /// Calibration reads the mean step time over the whole run: LB migrations
  /// change the superstep time mid-run, so there is no steady state.
  static constexpr int kCalibrationWarmup = 0;

  Graph(charm::Runtime& rt, GraphConfig config);

  /// Kick superstep 0. Call `rt.run()` (or run_until) afterwards.
  void start() { driver_->start(); }

  IterationDriver& driver() { return *driver_; }
  const IterationDriver& driver() const { return *driver_; }

  charm::ArrayId array() const { return array_; }
  const GraphConfig& config() const { return config_; }

  // ---- graph shape (tests and benches) ----
  std::int64_t total_edges() const { return total_edges_; }
  std::int64_t cut_edges() const { return cut_edges_; }
  int max_out_degree() const { return max_out_degree_; }
  int out_degree(int vertex) const {
    return out_degree_[static_cast<std::size_t>(vertex)];
  }
  int part_of(int vertex) const;
  const GraphPartTopo& part_topo(int part) const {
    return *(*topos_)[static_cast<std::size_t>(part)];
  }

  /// Snapshot of every vertex rank in vertex order (driver-side gather;
  /// placement-independence tests compare this across PE counts).
  std::vector<double> ranks() const;

  /// Active vertices reported by the last completed superstep.
  double active_last_iteration() const {
    return driver_->last_reduction_value();
  }

  /// Deterministic draw in [0, 1) for stub `k` of `vertex`: a splitmix64
  /// hash of (seed, vertex, k), so the edge set is placement-independent.
  static double stub_draw(unsigned seed, int vertex, int k);

  /// Rank-update convergence threshold used by the active-vertex count.
  static constexpr double kActiveThreshold = 1.0e-6;

 private:
  void build_topology();
  void kick(int iteration);
  void send_updates(int part);
  void maybe_compute(GraphPart& p, charm::Runtime& rt);

  charm::Runtime& rt_;
  GraphConfig config_;
  std::shared_ptr<std::vector<std::shared_ptr<const GraphPartTopo>>> topos_;
  std::vector<int> part_first_;  ///< first vertex of each part, plus end
  std::vector<int> out_degree_;
  std::int64_t total_edges_ = 0;
  std::int64_t cut_edges_ = 0;
  int max_out_degree_ = 0;
  charm::ArrayId array_ = -1;
  std::unique_ptr<IterationDriver> driver_;
};

}  // namespace ehpc::apps
