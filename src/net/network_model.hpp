#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace ehpc::net {

/// One alpha-beta (latency-bandwidth) link:
/// transfer_time(n bytes) = alpha + n / bandwidth.
struct LinkModel {
  double alpha_s = 0.0;           ///< per-message latency, seconds
  double bandwidth_Bps = 1.0e9;   ///< bytes per second

  double transfer_time(std::size_t bytes) const {
    return alpha_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

/// Abstract communication-cost seam between the runtime and the network.
///
/// The runtime never asks "what is the alpha/beta" anymore; it reports
/// transfer lifecycles (`begin_transfer` at NIC departure, `end_transfer`
/// at delivery) and receives virtual-time durations back. Stateless models
/// (FlatNetworkModel) answer from closed-form alpha-beta math; stateful
/// models (ContentionNetworkModel) additionally track per-link sharing so
/// concurrent transfers over an oversubscribed uplink stretch each other.
///
/// Contract:
///  - All methods are deterministic functions of the call sequence — no
///    wall clock, no RNG — so parallel sweeps stay bit-identical to serial
///    runs as long as each Runtime owns its own clone().
///  - `message_time` is a side-effect-free estimate (used by planners such
///    as the load balancer's migration-cost model); `begin_transfer` is the
///    accounting call that may mutate contention state.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Short machine-readable kind, e.g. "flat", "fattree", "dragonfly".
  virtual std::string name() const = 0;

  /// Human-readable one-line description for logs and scenario configs.
  virtual std::string describe() const = 0;

  /// Side-effect-free cost estimate for one message. Contention models
  /// answer as if the message were alone in the current window (they still
  /// charge structural penalties such as an oversubscribed core).
  virtual double message_time(std::size_t bytes, int src_node,
                              int dst_node) const = 0;

  /// Account a transfer departing at virtual time `now` and return its
  /// duration. Default: stateless models just price it.
  virtual double begin_transfer(std::size_t bytes, int src_node, int dst_node,
                                double now) {
    (void)now;
    return message_time(bytes, src_node, dst_node);
  }

  /// Notification that the transfer priced by begin_transfer was delivered
  /// at virtual time `at`. Default: nothing to release.
  virtual void end_transfer(std::size_t bytes, int src_node, int dst_node,
                            double at) {
    (void)bytes;
    (void)src_node;
    (void)dst_node;
    (void)at;
  }

  /// Latency floor for a zero-byte inter-node message (collective models
  /// build their per-hop estimate from this).
  virtual double inter_alpha() const = 0;

  /// Modeled completion latency of a binary-tree collective spanning `pes`
  /// PEs, observed at virtual time `now`. The default reproduces the
  /// classic contention-free estimate: ceil(log2(pes)) * inter_alpha().
  /// Contention models stretch it by the current fabric sharing level.
  virtual double collective_latency(int pes, double now) const;

  /// Deep copy with *fresh* contention state. Each Runtime clones the
  /// configured model so concurrently-sweeping runtimes never share
  /// mutable link accounting.
  virtual std::unique_ptr<NetworkModel> clone() const = 0;
};

/// Stateless alpha-beta model: intra-node (shared memory) and inter-node
/// (fabric) links plus a small fixed software overhead per message
/// (serialization, scheduling). The intra/inter split is how pod placement
/// and affinity affect application performance on the Kubernetes
/// substrate.
class FlatNetworkModel final : public NetworkModel {
 public:
  FlatNetworkModel(LinkModel intra_node, LinkModel inter_node,
                   double per_msg_sw_s)
      : intra_(intra_node), inter_(inter_node), software_s_(per_msg_sw_s) {}

  std::string name() const override { return "flat"; }
  std::string describe() const override;
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override {
    const LinkModel& link = (src_node == dst_node) ? intra_ : inter_;
    return software_s_ + link.transfer_time(bytes);
  }
  double inter_alpha() const override { return software_s_ + inter_.alpha_s; }
  std::unique_ptr<NetworkModel> clone() const override {
    return std::make_unique<FlatNetworkModel>(*this);
  }

  const LinkModel& intra_node() const { return intra_; }
  const LinkModel& inter_node() const { return inter_; }

 private:
  LinkModel intra_;
  LinkModel inter_;
  double software_s_;
};

/// The paper's actual transport: OpenMPI over TCP on the pod network (ENA,
/// no EFA) — per-message latency in the hundreds of microseconds even
/// inside a placement group. This is what makes multi-node allocations
/// markedly less efficient than single-node ones in the evaluation.
FlatNetworkModel pod_network();

/// Per-link accounting kept by ContentionNetworkModel, exposed for tests
/// and diagnostics.
struct LinkStats {
  double demand_bytes = 0.0;   ///< total bytes ever routed over this link
  std::int64_t transfers = 0;  ///< number of transfers that crossed it
  int peak_sharing = 0;        ///< max concurrent transfers in any window
};

struct ContentionConfig {
  FlatNetworkModel base;  ///< per-message price floor (access-link price)
  Topology topology;  ///< node->path mapping and per-link bandwidth shares
  /// Virtual-time bucketing for "concurrent": transfers departing within
  /// the same window of this length share link bandwidth. 0 disables
  /// sharing (structural penalties still apply).
  double window_s = 1.0e-3;
};

/// Topology-aware model with per-virtual-time-window bandwidth sharing.
///
/// A transfer departing at `now` is routed over topology.path(src, dst);
/// within the window floor(now / window_s), the k-th transfer to cross a
/// link sees that link's bandwidth divided k ways. The duration is
///
///   base.message_time(bytes, src, dst)            (alpha-beta floor)
///   + per_hop_alpha * |path|                      (distance penalty)
///   + (bottleneck - 1) * bytes / access_bw        (sharing penalty)
///
/// where bottleneck = max over path links of k_link / bandwidth_share(link)
/// and the penalty term is only charged when bottleneck > 1. Computing the
/// penalty as an *additive* stretch on top of the untouched base price —
/// rather than recomputing bytes/(bw/k) — keeps an uncontended transfer on
/// a non-oversubscribed path bit-identical to FlatNetworkModel.
class ContentionNetworkModel final : public NetworkModel {
 public:
  explicit ContentionNetworkModel(ContentionConfig config);

  std::string name() const override;
  std::string describe() const override { return config_.topology.describe(); }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override;
  double begin_transfer(std::size_t bytes, int src_node, int dst_node,
                        double now) override;
  double inter_alpha() const override { return config_.base.inter_alpha(); }
  double collective_latency(int pes, double now) const override;
  std::unique_ptr<NetworkModel> clone() const override {
    return std::make_unique<ContentionNetworkModel>(config_);
  }

  const ContentionConfig& config() const { return config_; }

  /// Cumulative accounting of every link crossed since construction
  /// (conservation checks: summing demand_bytes per kind recovers injected
  /// traffic). Built on demand from the dense per-link state.
  std::map<LinkId, LinkStats> link_stats() const;

  /// Highest k_link / share_link across links active in the window
  /// containing `now`; 1.0 when the fabric is quiet. This is the factor
  /// collective_latency stretches by.
  double sharing_at(double now) const;

 private:
  struct LinkState {
    std::int64_t window = -1;  ///< window index of `count`'s last reset
    int count = 0;             ///< transfers begun in that window
    LinkStats stats;
  };

  std::int64_t window_index(double now) const;

  ContentionConfig config_;
  /// Indexed by Topology::link_slot; grown on the first transfer that
  /// crosses a link beyond its end, so construction allocates nothing.
  std::vector<LinkState> links_;
  mutable std::vector<LinkId> path_buf_;
};

/// Process-wide default: pod_network(), the model every baseline was
/// recorded with.
std::shared_ptr<const NetworkModel> default_network_model();

/// Build a model by scenario-facing kind name. "flat" is `base` itself;
/// "fattree" / "dragonfly" wrap it in a ContentionNetworkModel over a
/// radix-4 topology with the given oversubscription ratio.
/// Throws PreconditionError on unknown kinds.
std::unique_ptr<NetworkModel> make_network_model(
    const std::string& kind, double oversub = 1.0,
    const FlatNetworkModel& base = pod_network());

}  // namespace ehpc::net
