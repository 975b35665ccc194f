// Property battery over ContentionNetworkModel: conservation of injected
// traffic in the per-link accounting, exact k-flow sharing arithmetic,
// window-boundary resets, structural oversubscription penalties, and the
// bit-identical flat-equivalence that protects every recorded baseline.

#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace ehpc::net {
namespace {

ContentionConfig fattree_config(double oversub, double window_s = 1.0e-3,
                                double per_hop_alpha_s = 0.0) {
  ContentionConfig config{pod_network(),
                          Topology::fat_tree(4, oversub, per_hop_alpha_s)};
  config.window_s = window_s;
  return config;
}

TEST(Contention, UncontendedTransfersAreBitIdenticalToFlat) {
  // oversub <= radix, zero per-hop alpha, one transfer per window: the
  // contention model must reproduce the flat price bit for bit. This is the
  // equivalence that keeps all pre-existing baselines byte-identical.
  ContentionNetworkModel model(fattree_config(/*oversub=*/2.0));
  const FlatNetworkModel flat = pod_network();
  double now = 0.0;
  for (const std::size_t bytes : {1u, 512u, 65536u, 1u << 22}) {
    for (const auto& route : std::vector<std::pair<int, int>>{
             {0, 1}, {0, 5}, {2, 14}, {9, 9}}) {
      EXPECT_EQ(model.begin_transfer(bytes, route.first, route.second, now),
                flat.message_time(bytes, route.first, route.second))
          << bytes << "B " << route.first << "->" << route.second;
      now += 1.0;  // next window: no sharing carries over
    }
  }
}

TEST(Contention, KFlowsOnOneLinkShareExactly) {
  // k same-window transfers into one node: the k-th waits for k-1 extra
  // bandwidth slices, each worth bytes/access_bw — exact arithmetic, not a
  // tolerance check.
  ContentionNetworkModel model(fattree_config(/*oversub=*/1.0));
  const std::size_t bytes = 1 << 20;
  const double slice = static_cast<double>(bytes) /
                       model.config().base.inter_node().bandwidth_Bps;
  const double base = model.config().base.message_time(bytes, 0, 1);
  for (int k = 1; k <= 5; ++k) {
    const double t = model.begin_transfer(bytes, 0, 1, 0.0);
    if (k == 1) {
      EXPECT_EQ(t, base);
    } else {
      EXPECT_DOUBLE_EQ(t, base + static_cast<double>(k - 1) * slice);
    }
  }
}

TEST(Contention, WindowBoundaryResetsSharing) {
  ContentionNetworkModel model(fattree_config(/*oversub=*/1.0,
                                              /*window_s=*/1.0e-3));
  const std::size_t bytes = 1 << 20;
  const double lone = model.begin_transfer(bytes, 0, 1, 0.0);
  EXPECT_GT(model.begin_transfer(bytes, 0, 1, 0.5e-3), lone);  // same window
  // Next window: the link count resets and the price returns to the floor.
  EXPECT_EQ(model.begin_transfer(bytes, 0, 1, 1.5e-3), lone);
  EXPECT_DOUBLE_EQ(model.sharing_at(1.5e-3), 1.0);
}

TEST(Contention, ZeroWindowDisablesSharingButKeepsStructuralPenalty) {
  // window_s = 0: concurrency never stretches anything, but an oversub
  // beyond the radix still makes the core slower than the access link.
  ContentionNetworkModel model(fattree_config(/*oversub=*/8.0,
                                              /*window_s=*/0.0));
  const std::size_t bytes = 1 << 20;
  const double base = model.config().base.message_time(bytes, 0, 5);
  const double slice = static_cast<double>(bytes) /
                       model.config().base.inter_node().bandwidth_Bps;
  for (int i = 0; i < 4; ++i) {
    // Core share = radix/oversub = 0.5 -> bottleneck 2 -> one extra slice,
    // identically for every transfer no matter how many are in flight.
    EXPECT_DOUBLE_EQ(model.begin_transfer(bytes, 0, 5, 0.0), base + slice);
  }
  EXPECT_DOUBLE_EQ(model.sharing_at(0.0), 1.0);
  // Same-rack traffic never crosses the core: flat price.
  EXPECT_EQ(model.begin_transfer(bytes, 0, 1, 0.0), base);
}

TEST(Contention, EstimateIsSideEffectFree) {
  ContentionNetworkModel model(fattree_config(/*oversub=*/8.0));
  const std::size_t bytes = 1 << 18;
  // message_time answers "as if alone" and must not mutate window state.
  const double estimate = model.message_time(bytes, 0, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(model.message_time(bytes, 0, 5), estimate);
  }
  EXPECT_DOUBLE_EQ(model.sharing_at(0.0), 1.0);
  EXPECT_TRUE(model.link_stats().empty());
  // It still prices the structural oversubscription (planners must see it).
  const double slice = static_cast<double>(bytes) /
                       model.config().base.inter_node().bandwidth_Bps;
  EXPECT_DOUBLE_EQ(estimate,
                   model.config().base.message_time(bytes, 0, 5) + slice);
  // And the first real transfer matches the estimate exactly.
  EXPECT_EQ(model.begin_transfer(bytes, 0, 5, 0.0), estimate);
}

TEST(Contention, PerHopAlphaChargesPathLength) {
  const double hop = 2.0e-6;
  ContentionNetworkModel model(
      fattree_config(/*oversub=*/1.0, /*window_s=*/1.0e-3, hop));
  const double base_same = model.config().base.message_time(64, 0, 1);
  const double base_cross = model.config().base.message_time(64, 0, 5);
  EXPECT_DOUBLE_EQ(model.begin_transfer(64, 0, 1, 0.0), base_same + 2.0 * hop);
  EXPECT_DOUBLE_EQ(model.begin_transfer(64, 0, 5, 1.0), base_cross + 4.0 * hop);
}

TEST(Contention, LinkStatsConserveInjectedTraffic) {
  ContentionNetworkModel model(fattree_config(/*oversub=*/2.0));
  double injected = 0.0;
  int transfers = 0;
  double now = 0.0;
  const std::pair<int, int> routes[] = {{0, 1}, {0, 5}, {3, 9}, {8, 2}, {1, 0}};
  for (const std::size_t bytes : {100u, 4096u, 65536u}) {
    for (const auto& [src, dst] : routes) {
      model.begin_transfer(bytes, src, dst, now);
      injected += static_cast<double>(bytes);
      ++transfers;
      now += 2.0e-3;
    }
  }
  // Every transfer crosses exactly one node-up link, so summing the
  // demand over that link kind must recover the injected byte total.
  double up_bytes = 0.0;
  std::int64_t up_transfers = 0;
  double all_bytes = 0.0;
  for (const auto& [link, stats] : model.link_stats()) {
    all_bytes += stats.demand_bytes;
    if ((link >> 32) == 0) {  // kNodeUp
      up_bytes += stats.demand_bytes;
      up_transfers += stats.transfers;
    }
  }
  EXPECT_DOUBLE_EQ(up_bytes, injected);
  EXPECT_EQ(up_transfers, transfers);
  // Each byte crosses at least the two access links of its path.
  EXPECT_GE(all_bytes, 2.0 * injected);
}

TEST(Contention, CollectiveLatencyStretchesWithFabricSharing) {
  ContentionNetworkModel model(fattree_config(/*oversub=*/1.0));
  const double quiet = model.collective_latency(16, 0.0);
  // Quiet fabric: exactly the classic contention-free tree estimate.
  EXPECT_EQ(quiet, pod_network().collective_latency(16, 0.0));
  // Saturate one access link with 4 same-window flows: sharing hits 4 and
  // a reduction observed in that window costs 4x the floor.
  for (int i = 0; i < 4; ++i) model.begin_transfer(1 << 20, 0, 1, 0.0);
  EXPECT_DOUBLE_EQ(model.sharing_at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(model.collective_latency(16, 0.0), 4.0 * quiet);
  // The next window is quiet again.
  EXPECT_EQ(model.collective_latency(16, 5.0e-3), quiet);
}

TEST(Contention, OversubscribedCoreStretchesEarlierThanAccessLinks) {
  // With oversub 4 on radix 4 the core share is 1.0, so two cross-rack
  // flows over the shared core contend (k/share = 2) while two same-rack
  // flows into distinct nodes do not.
  ContentionNetworkModel model(fattree_config(/*oversub=*/4.0));
  const std::size_t bytes = 1 << 20;
  const double flat = model.config().base.message_time(bytes, 0, 5);
  const double slice = static_cast<double>(bytes) /
                       model.config().base.inter_node().bandwidth_Bps;
  EXPECT_EQ(model.begin_transfer(bytes, 0, 5, 0.0), flat);
  // Distinct endpoints, same racks: only the core is shared.
  EXPECT_DOUBLE_EQ(model.begin_transfer(bytes, 1, 6, 0.0), flat + slice);
}

/// The contention accounting as a pair of std::maps keyed by LinkId: the
/// reference the dense per-link state must reproduce.
class MapContentionOracle {
 public:
  explicit MapContentionOracle(ContentionConfig config)
      : config_(std::move(config)) {}

  double begin_transfer(std::size_t bytes, int src, int dst, double now) {
    if (src == dst) return config_.base.message_time(bytes, src, dst);
    config_.topology.path(src, dst, &path_);
    const bool share = config_.window_s > 0.0;
    const auto window = window_index(now);
    double bottleneck = 1.0;
    for (const LinkId link : path_) {
      int k = 1;
      if (share) {
        auto& [w, count] = live_[link];
        if (w != window) {
          w = window;
          count = 0;
        }
        k = ++count;
      }
      LinkStats& st = stats_[link];
      st.demand_bytes += static_cast<double>(bytes);
      st.transfers += 1;
      st.peak_sharing = std::max(st.peak_sharing, k);
      bottleneck = std::max(bottleneck, static_cast<double>(k) /
                                            config_.topology.bandwidth_share(link));
    }
    double t = config_.base.message_time(bytes, src, dst) +
               config_.topology.per_hop_alpha_s() *
                   static_cast<double>(path_.size());
    if (bottleneck > 1.0) {
      t += (bottleneck - 1.0) * (static_cast<double>(bytes) /
                                 config_.base.inter_node().bandwidth_Bps);
    }
    return t;
  }

  double sharing_at(double now) const {
    if (config_.window_s <= 0.0) return 1.0;
    double sharing = 1.0;
    for (const auto& [link, lw] : live_) {
      if (lw.first != window_index(now)) continue;
      sharing = std::max(sharing, static_cast<double>(lw.second) /
                                      config_.topology.bandwidth_share(link));
    }
    return sharing;
  }

  const std::map<LinkId, LinkStats>& link_stats() const { return stats_; }

 private:
  std::int64_t window_index(double now) const {
    if (config_.window_s <= 0.0) return 0;
    return static_cast<std::int64_t>(std::floor(now / config_.window_s));
  }

  ContentionConfig config_;
  std::map<LinkId, std::pair<std::int64_t, int>> live_;  // (window, count)
  std::map<LinkId, LinkStats> stats_;
  std::vector<LinkId> path_;
};

void expect_same_stats(const std::map<LinkId, LinkStats>& got,
                       const std::map<LinkId, LinkStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [link, stats] : want) {
    const auto it = got.find(link);
    ASSERT_NE(it, got.end()) << link;
    EXPECT_EQ(it->second.demand_bytes, stats.demand_bytes) << link;
    EXPECT_EQ(it->second.transfers, stats.transfers) << link;
    EXPECT_EQ(it->second.peak_sharing, stats.peak_sharing) << link;
  }
}

TEST(Contention, OutOfOrderWindowsResetPerLink) {
  // Departures are not monotone: a NIC can push one into a later window
  // while another node still sends into an earlier one. Transfers over one
  // route at windows 5, 5, 4, 5: the link resets its count on every window
  // change, even back to an earlier window, so the last transfer is alone
  // again and window 5 reads quiet. A per-window running maximum would
  // remember the sharing of 2.
  ContentionConfig config = fattree_config(/*oversub=*/1.0, /*window_s=*/1.0);
  ContentionNetworkModel model(config);
  MapContentionOracle oracle(config);
  const std::size_t bytes = 1 << 20;
  const double base = config.base.message_time(bytes, 0, 1);
  const double slice =
      static_cast<double>(bytes) / config.base.inter_node().bandwidth_Bps;
  const double departs[] = {5.25, 5.5, 4.5, 5.75};
  const double want[] = {base, base + slice, base, base};
  for (int i = 0; i < 4; ++i) {
    const double t = model.begin_transfer(bytes, 0, 1, departs[i]);
    EXPECT_EQ(t, oracle.begin_transfer(bytes, 0, 1, departs[i])) << i;
    EXPECT_DOUBLE_EQ(t, want[i]) << i;
  }
  for (const double now : {4.5, 5.5}) {
    EXPECT_EQ(model.sharing_at(now), oracle.sharing_at(now)) << now;
    EXPECT_EQ(model.sharing_at(now), 1.0) << now;
  }
  expect_same_stats(model.link_stats(), oracle.link_stats());
  for (const auto& [link, stats] : model.link_stats()) {
    EXPECT_EQ(stats.transfers, 4) << link;
    EXPECT_EQ(stats.peak_sharing, 2) << link;
  }

  // Two more flows share route 2->3 in window 5, then route 0->1 steps
  // back to window 4. Window 5 still holds route 2->3's sharing of 2; a
  // single fabric-wide running maximum would have reset on window 4.
  for (const double now : {5.25, 5.5, 4.25}) {
    const int src = now < 5.0 ? 0 : 2;
    EXPECT_EQ(model.begin_transfer(bytes, src, src + 1, now),
              oracle.begin_transfer(bytes, src, src + 1, now))
        << now;
  }
  EXPECT_EQ(model.sharing_at(5.5), 2.0);
  EXPECT_EQ(model.sharing_at(4.5), 1.0);
  for (const double now : {4.5, 5.5}) {
    EXPECT_EQ(model.sharing_at(now), oracle.sharing_at(now)) << now;
  }
  expect_same_stats(model.link_stats(), oracle.link_stats());
}

TEST(Contention, DenseStateMatchesMapOracleOnShuffledDepartures) {
  // Seeded traffic over 24 nodes on both shapes, departures drawn out of
  // order across a handful of windows: every duration, every link's
  // accounting and the sharing in every window match the map oracle.
  for (const bool fattree : {true, false}) {
    ContentionConfig config{
        pod_network(), fattree ? Topology::fat_tree(4, 8.0, 2.0e-6)
                               : Topology::dragonfly(4, 8.0, 2.0e-6)};
    ContentionNetworkModel model(config);
    MapContentionOracle oracle(config);
    std::mt19937_64 rng(fattree ? 11 : 13);
    for (int i = 0; i < 2000; ++i) {
      const int src = static_cast<int>(rng() % 24);
      const int dst = static_cast<int>(rng() % 24);
      const std::size_t bytes = 64 + rng() % (1 << 20);
      const double now = static_cast<double>(rng() % 8000) * 1.0e-6;
      ASSERT_EQ(model.begin_transfer(bytes, src, dst, now),
                oracle.begin_transfer(bytes, src, dst, now))
          << i;
    }
    for (int w = 0; w < 9; ++w) {
      const double now = (static_cast<double>(w) + 0.5) * 1.0e-3;
      EXPECT_EQ(model.sharing_at(now), oracle.sharing_at(now)) << w;
    }
    expect_same_stats(model.link_stats(), oracle.link_stats());
  }
}

}  // namespace
}  // namespace ehpc::net
