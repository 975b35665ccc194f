#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ehpc::net {

/// Identifier of one directed link in a Topology. Links are materialized
/// lazily (the encoding is structural), so a topology serves any node id —
/// the emulated cluster can grow across rescales without reconfiguration.
using LinkId = std::int64_t;

/// Maps node pairs to the directed link path a message crosses, and each
/// link to its bandwidth share relative to the access (node-to-switch)
/// link. Two shapes:
///
///  - fat-tree: nodes grouped into racks of `radix`; same-rack traffic
///    crosses {node-up, node-down}; cross-rack traffic additionally crosses
///    the racks' core uplink/downlink, whose bandwidth is
///    radix / oversub times the access link — `oversub` is the classic
///    fat-tree oversubscription ratio and the knob that makes rack-locality
///    matter.
///  - dragonfly: nodes grouped into groups of `radix`; same-group traffic
///    crosses a cheap local all-to-all channel (share = radix), cross-group
///    traffic crosses the groups' global links (share = radix / oversub).
///
/// Purely combinatorial and stateless: path() writes link ids into a
/// caller-owned buffer and allocates nothing, so the contention model can
/// resolve paths on the per-message hot path.
class Topology {
 public:
  enum class Shape { kFatTree, kDragonfly };

  static Topology fat_tree(int radix, double oversub,
                           double per_hop_alpha_s = 0.0);
  static Topology dragonfly(int radix, double oversub,
                            double per_hop_alpha_s = 0.0);

  Shape shape() const { return shape_; }
  int radix() const { return radix_; }
  double oversub() const { return oversub_; }
  /// Extra per-link latency added on top of the base inter-node alpha, so
  /// longer paths (cross-rack, cross-group) cost more even uncontended.
  double per_hop_alpha_s() const { return per_hop_alpha_s_; }

  int group_of(int node) const { return node / radix_; }

  /// Append the directed link ids crossed by a src->dst message (cleared
  /// first; empty when src == dst — intra-node traffic never touches the
  /// fabric). Deterministic, allocation-free after the buffer warms up.
  void path(int src_node, int dst_node, std::vector<LinkId>* out) const;

  /// Bandwidth of `link` as a multiple of the access-link bandwidth
  /// (1.0 for node up/down links; radix/oversub for core/global links).
  double bandwidth_share(LinkId link) const;

  /// Compact "fattree(radix=4,oversub=2)" rendering for logs and configs.
  std::string describe() const;

  /// Dense slot of `link` (kind + kNumKinds * index): every link of the
  /// nodes and groups below some index maps into one small prefix of the
  /// slots, so per-link state can live in a vector. `slot_link` inverts it.
  static std::size_t link_slot(LinkId link) {
    return static_cast<std::size_t>(kind_of(link)) +
           kNumKinds * static_cast<std::size_t>(link & 0xffffffff);
  }
  static LinkId slot_link(std::size_t slot) {
    return make_link(static_cast<Kind>(slot % kNumKinds),
                     static_cast<int>(slot / kNumKinds));
  }

 private:
  Topology(Shape shape, int radix, double oversub, double per_hop_alpha_s);

  // Link kinds packed into the id's high bits; the low bits carry the node
  // or group index the link belongs to.
  enum Kind : std::int64_t {
    kNodeUp = 0,
    kNodeDown = 1,
    kCoreUp = 2,
    kCoreDown = 3,
    kGroupLocal = 4,
  };
  static constexpr std::size_t kNumKinds = 5;
  static LinkId make_link(Kind kind, int index) {
    return (static_cast<LinkId>(kind) << 32) | static_cast<LinkId>(index);
  }
  static Kind kind_of(LinkId link) { return static_cast<Kind>(link >> 32); }

  Shape shape_;
  int radix_;
  double oversub_;
  double per_hop_alpha_s_;
};

}  // namespace ehpc::net
