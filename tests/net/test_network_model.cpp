// The NetworkModel seam itself: the flat alpha-beta model's pricing, the
// factory's scenario-facing kinds, and clone()'s independent contention
// state.

#include "net/network_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"

namespace ehpc::net {
namespace {

TEST(LinkModel, TransferTimeIsAffine) {
  LinkModel link{1.0e-6, 1.0e9};
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 1.0e-6);
  EXPECT_DOUBLE_EQ(link.transfer_time(1'000'000), 1.0e-6 + 1.0e-3);
}

TEST(FlatNetworkModel, IntraVsInterNode) {
  const FlatNetworkModel m(LinkModel{1.0e-6, 10.0e9}, LinkModel{20.0e-6, 1.0e9},
                           1.0e-6);
  const std::size_t bytes = 1 << 20;
  EXPECT_LT(m.message_time(bytes, 0, 0), m.message_time(bytes, 0, 1));
}

TEST(FlatNetworkModel, SoftwareOverheadAlwaysPresent) {
  const FlatNetworkModel m(LinkModel{0.0, 1.0e9}, LinkModel{0.0, 1.0e9},
                           5.0e-6);
  EXPECT_DOUBLE_EQ(m.message_time(0, 0, 0), 5.0e-6);
  EXPECT_DOUBLE_EQ(m.inter_alpha(), 5.0e-6);
}

TEST(FlatNetworkModel, LargerMessagesCostMore) {
  const FlatNetworkModel m = pod_network();
  EXPECT_LT(m.message_time(1024, 0, 1), m.message_time(1 << 20, 0, 1));
}

TEST(FlatNetworkModel, BeginTransferIsTheStatelessPrice) {
  FlatNetworkModel model = pod_network();
  const double lone = model.message_time(4096, 0, 1);
  // However many transfers depart in the same instant, a flat model never
  // charges contention.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(model.begin_transfer(4096, 0, 1, 0.0), lone);
  }
}

TEST(NetworkModel, DefaultCollectiveLatencyIsTheClassicTreeFloor) {
  const FlatNetworkModel model = pod_network();
  const double alpha = model.inter_alpha();
  // ceil(log2(max(pes, 2))) * inter_alpha, bit-for-bit: this is the exact
  // expression the runtime used before the seam existed.
  EXPECT_EQ(model.collective_latency(1, 0.0), alpha);
  EXPECT_EQ(model.collective_latency(2, 0.0), alpha);
  EXPECT_EQ(model.collective_latency(5, 0.0), 3.0 * alpha);
  EXPECT_EQ(model.collective_latency(64, 0.0), 6.0 * alpha);
  EXPECT_EQ(model.collective_latency(65, 0.0), 7.0 * alpha);
}

TEST(NetworkModel, DefaultModelIsFlatOverThePodNetwork) {
  const auto model = default_network_model();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), "flat");
  EXPECT_EQ(model->message_time(65536, 0, 1),
            pod_network().message_time(65536, 0, 1));
  // Process-wide singleton: configs seeded from it share one instance.
  EXPECT_EQ(default_network_model().get(), model.get());
}

TEST(MakeNetworkModel, BuildsEveryAdvertisedKind) {
  EXPECT_EQ(make_network_model("flat")->name(), "flat");
  EXPECT_EQ(make_network_model("fattree", 2.0)->name(), "fattree");
  EXPECT_EQ(make_network_model("dragonfly", 2.0)->name(), "dragonfly");
}

TEST(MakeNetworkModel, RejectsUnknownKindsAndBadOversub) {
  EXPECT_THROW(make_network_model("torus"), PreconditionError);
  EXPECT_THROW(make_network_model(""), PreconditionError);
  EXPECT_THROW(make_network_model("fattree", 0.0), PreconditionError);
  EXPECT_THROW(make_network_model("fattree", -2.0), PreconditionError);
}

TEST(MakeNetworkModel, DescribeNamesTheTopology) {
  EXPECT_EQ(make_network_model("fattree", 4.0)->describe(),
            "fattree(radix=4,oversub=4)");
  const std::string flat = make_network_model("flat")->describe();
  EXPECT_NE(flat.find("flat("), std::string::npos);
}

TEST(NetworkModel, CloneProducesIndependentContentionState) {
  auto original = make_network_model("fattree", 2.0);
  auto* contended = dynamic_cast<ContentionNetworkModel*>(original.get());
  ASSERT_NE(contended, nullptr);

  auto copy = original->clone();
  auto* copied = dynamic_cast<ContentionNetworkModel*>(copy.get());
  ASSERT_NE(copied, nullptr);

  // Saturate the original; the clone must stay quiet.
  for (int i = 0; i < 6; ++i) contended->begin_transfer(4096, 0, 1, 0.0);
  EXPECT_GT(contended->sharing_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(copied->sharing_at(0.0), 1.0);
  EXPECT_TRUE(copied->link_stats().empty());

  // And vice versa: a clone taken after traffic starts fresh.
  auto late = contended->clone();
  auto* late_c = dynamic_cast<ContentionNetworkModel*>(late.get());
  ASSERT_NE(late_c, nullptr);
  EXPECT_TRUE(late_c->link_stats().empty());
  EXPECT_DOUBLE_EQ(late_c->sharing_at(0.0), 1.0);
}

}  // namespace
}  // namespace ehpc::net
