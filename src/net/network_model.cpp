#include "net/network_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace ehpc::net {

double NetworkModel::collective_latency(int pes, double now) const {
  (void)now;
  const int depth = static_cast<int>(std::ceil(std::log2(std::max(pes, 2))));
  return static_cast<double>(depth) * inter_alpha();
}

std::string FlatNetworkModel::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "flat(alpha=%gus,bw=%gGB/s)",
                inter_.alpha_s * 1e6, inter_.bandwidth_Bps / 1e9);
  return buf;
}

FlatNetworkModel pod_network() {
  // Intra-node: shared-memory transport. Inter-node: kube-proxy + TCP over
  // ENA, high per-message latency and decent bandwidth. Bandwidths are
  // effective per-stream, not line rate.
  return FlatNetworkModel(LinkModel{0.5e-6, 8.0e9}, LinkModel{300.0e-6, 1.0e9},
                          2.0e-6);
}

ContentionNetworkModel::ContentionNetworkModel(ContentionConfig config)
    : config_(std::move(config)) {
  EHPC_EXPECTS(config_.window_s >= 0.0);
}

std::string ContentionNetworkModel::name() const {
  return config_.topology.shape() == Topology::Shape::kFatTree ? "fattree"
                                                               : "dragonfly";
}

std::int64_t ContentionNetworkModel::window_index(double now) const {
  if (config_.window_s <= 0.0) return 0;
  return static_cast<std::int64_t>(std::floor(now / config_.window_s));
}

double ContentionNetworkModel::message_time(std::size_t bytes, int src_node,
                                            int dst_node) const {
  if (src_node == dst_node) {
    return config_.base.message_time(bytes, src_node, dst_node);
  }
  config_.topology.path(src_node, dst_node, &path_buf_);
  double bottleneck = 1.0;
  for (const LinkId link : path_buf_) {
    bottleneck =
        std::max(bottleneck, 1.0 / config_.topology.bandwidth_share(link));
  }
  double t = config_.base.message_time(bytes, src_node, dst_node) +
             config_.topology.per_hop_alpha_s() *
                 static_cast<double>(path_buf_.size());
  if (bottleneck > 1.0) {
    t += (bottleneck - 1.0) * (static_cast<double>(bytes) /
                               config_.base.inter_node().bandwidth_Bps);
  }
  return t;
}

double ContentionNetworkModel::begin_transfer(std::size_t bytes, int src_node,
                                              int dst_node, double now) {
  if (src_node == dst_node) {
    return config_.base.message_time(bytes, src_node, dst_node);
  }
  config_.topology.path(src_node, dst_node, &path_buf_);
  const std::int64_t window = window_index(now);
  const bool share = config_.window_s > 0.0;
  double bottleneck = 1.0;
  for (const LinkId link : path_buf_) {
    const std::size_t slot = Topology::link_slot(link);
    if (slot >= links_.size()) links_.resize(slot + 1);
    LinkState& ls = links_[slot];
    int k = 1;
    if (share) {
      if (ls.window != window) {
        ls.window = window;
        ls.count = 0;
      }
      k = ++ls.count;
    }
    LinkStats& st = ls.stats;
    st.demand_bytes += static_cast<double>(bytes);
    st.transfers += 1;
    st.peak_sharing = std::max(st.peak_sharing, k);
    bottleneck = std::max(bottleneck, static_cast<double>(k) /
                                          config_.topology.bandwidth_share(link));
  }
  double t = config_.base.message_time(bytes, src_node, dst_node) +
             config_.topology.per_hop_alpha_s() *
                 static_cast<double>(path_buf_.size());
  if (bottleneck > 1.0) {
    // Additive stretch over the base price: the (k-1) extra "bandwidth
    // slices" this transfer waits for, each worth bytes/access_bw. Leaves
    // the base term untouched so the uncontended case stays bit-identical
    // to FlatNetworkModel.
    t += (bottleneck - 1.0) * (static_cast<double>(bytes) /
                               config_.base.inter_node().bandwidth_Bps);
  }
  return t;
}

double ContentionNetworkModel::sharing_at(double now) const {
  if (config_.window_s <= 0.0) return 1.0;
  const std::int64_t window = window_index(now);
  // Every link's own window, not a running maximum: departures are not
  // monotone (a NIC can push one into a later window), and a link resets
  // its count whenever it sees a different window, even an earlier one.
  double sharing = 1.0;
  for (std::size_t slot = 0; slot < links_.size(); ++slot) {
    if (links_[slot].window != window) continue;
    sharing = std::max(sharing,
                       static_cast<double>(links_[slot].count) /
                           config_.topology.bandwidth_share(
                               Topology::slot_link(slot)));
  }
  return sharing;
}

std::map<LinkId, LinkStats> ContentionNetworkModel::link_stats() const {
  std::map<LinkId, LinkStats> out;
  for (std::size_t slot = 0; slot < links_.size(); ++slot) {
    if (links_[slot].stats.transfers > 0) {
      out.emplace(Topology::slot_link(slot), links_[slot].stats);
    }
  }
  return out;
}

double ContentionNetworkModel::collective_latency(int pes, double now) const {
  // A saturated fabric also slows the tree's point-to-point hops: stretch
  // the contention-free estimate by the worst link sharing this window.
  return NetworkModel::collective_latency(pes, now) * sharing_at(now);
}

std::shared_ptr<const NetworkModel> default_network_model() {
  static const std::shared_ptr<const NetworkModel> kDefault =
      std::make_shared<FlatNetworkModel>(pod_network());
  return kDefault;
}

std::unique_ptr<NetworkModel> make_network_model(const std::string& kind,
                                                 double oversub,
                                                 const FlatNetworkModel& base) {
  EHPC_EXPECTS(oversub > 0.0);
  // 2us per extra switch hop: small against pod-network alpha (300us) but
  // enough that cross-rack paths are strictly dearer than same-rack ones.
  constexpr double kPerHopAlphaS = 2.0e-6;
  constexpr int kRadix = 4;
  if (kind == "flat") return std::make_unique<FlatNetworkModel>(base);
  if (kind == "fattree") {
    return std::make_unique<ContentionNetworkModel>(ContentionConfig{
        base, Topology::fat_tree(kRadix, oversub, kPerHopAlphaS)});
  }
  if (kind == "dragonfly") {
    return std::make_unique<ContentionNetworkModel>(ContentionConfig{
        base, Topology::dragonfly(kRadix, oversub, kPerHopAlphaS)});
  }
  throw PreconditionError("unknown network model: " + kind +
                          " (known: flat fattree dragonfly)");
}

}  // namespace ehpc::net
