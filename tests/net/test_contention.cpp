// Property battery over ContentionNetworkModel: conservation of injected
// traffic in the per-link accounting, exact k-flow sharing arithmetic,
// window-boundary resets, structural oversubscription penalties, and the
// bit-identical flat-equivalence that protects every recorded baseline.

#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <cstddef>
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

}  // namespace
}  // namespace ehpc::net
