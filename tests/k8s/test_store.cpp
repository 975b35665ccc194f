#include "k8s/store.hpp"

#include <gtest/gtest.h>

#include "k8s/api.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {
namespace {

Pod make_pod(const std::string& name) {
  Pod p;
  p.meta.name = name;
  return p;
}

TEST(ObjectStore, AddAssignsIncreasingVersions) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  const Pod& a = store.add(make_pod("a"));
  const Pod& b = store.add(make_pod("b"));
  EXPECT_LT(a.meta.resource_version, b.meta.resource_version);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ObjectStore, AddRejectsDuplicatesAndEmptyNames) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  store.add(make_pod("a"));
  EXPECT_THROW(store.add(make_pod("a")), PreconditionError);
  EXPECT_THROW(store.add(make_pod("")), PreconditionError);
}

TEST(ObjectStore, MutateBumpsVersionAndNotifies) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  store.add(make_pod("a"));
  const auto v1 = store.get("a").meta.resource_version;
  int events = 0;
  store.watch([&](WatchEvent e, const Pod&) {
    if (e == WatchEvent::kModified) ++events;
  });
  store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_GT(store.get("a").meta.resource_version, v1);
  EXPECT_EQ(store.get("a").phase, PodPhase::kRunning);
  sim.run();
  EXPECT_EQ(events, 1);
}

TEST(ObjectStore, RemoveNotifiesWithFinalState) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  store.add(make_pod("a"));
  std::string deleted;
  store.watch([&](WatchEvent e, const Pod& p) {
    if (e == WatchEvent::kDeleted) deleted = p.meta.name;
  });
  EXPECT_TRUE(store.remove("a"));
  sim.run();
  EXPECT_EQ(deleted, "a");
  EXPECT_FALSE(store.remove("a"));
  EXPECT_FALSE(store.contains("a"));
}

TEST(ObjectStore, WatchersFireInRegistrationOrder) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  std::vector<int> order;
  store.watch([&](WatchEvent, const Pod&) { order.push_back(1); });
  store.watch([&](WatchEvent, const Pod&) { order.push_back(2); });
  store.add(make_pod("a"));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ObjectStore, ListIsNameOrdered) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  store.add(make_pod("b"));
  store.add(make_pod("a"));
  auto all = store.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->meta.name, "a");
  EXPECT_EQ(all[1]->meta.name, "b");
}

TEST(ObjectStore, GetThrowsFindReturnsNull) {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  EXPECT_THROW(store.get("missing"), PreconditionError);
  EXPECT_EQ(store.find("missing"), nullptr);
}

TEST(MatchesLabels, SubsetSemantics) {
  std::map<std::string, std::string> labels{{"job", "j1"}, {"role", "worker"}};
  EXPECT_TRUE(matches_labels(labels, {{"job", "j1"}}));
  EXPECT_TRUE(matches_labels(labels, {}));
  EXPECT_FALSE(matches_labels(labels, {{"job", "j2"}}));
  EXPECT_FALSE(matches_labels(labels, {{"missing", "x"}}));
}

TEST(Resources, ArithmeticAndFit) {
  Resources a{4, 1024};
  Resources b{2, 512};
  EXPECT_EQ((a + b).cpus, 6);
  EXPECT_EQ((a - b).memory_mib, 512);
  EXPECT_TRUE(b.fits_within(a));
  const Resources too_many_cpus{5, 0};
  const Resources too_much_memory{0, 2048};
  EXPECT_FALSE(too_many_cpus.fits_within(a));
  EXPECT_FALSE(too_much_memory.fits_within(a));
}

}  // namespace
}  // namespace ehpc::k8s
