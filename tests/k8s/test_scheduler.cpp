#include "k8s/scheduler.hpp"

#include <gtest/gtest.h>

#include "k8s/cluster.hpp"

namespace ehpc::k8s {
namespace {

Pod worker(const std::string& name, int cpus = 1) {
  Pod p;
  p.meta.name = name;
  p.request = {cpus, 512};
  return p;
}

TEST(KubeScheduler, FiltersNodesWithoutCapacity) {
  Cluster c;
  c.add_nodes("small", 1, {1, 32768});
  c.add_nodes("big", 1, {16, 32768});
  c.create_pod(worker("p0", 8));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, "big-0");
}

TEST(KubeScheduler, FiltersNotReadyNodes) {
  Cluster c;
  c.add_nodes("node", 2, {16, 32768});
  c.nodes().mutate("node-0", [](Node& n) { n.ready = false; });
  c.create_pod(worker("p0"));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, "node-1");
}

TEST(KubeScheduler, BinPackFillsOneNodeFirst) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kBinPack;
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, c.pods().get("p1").node_name);
}

TEST(KubeScheduler, SpreadUsesBothNodes) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kSpread;
  cfg.scheduler.affinity_weight = 0.0;
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_NE(c.pods().get("p0").node_name, c.pods().get("p1").node_name);
}

TEST(KubeScheduler, AffinityColocatesJobPods) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kSpread;  // fights affinity
  cfg.scheduler.affinity_weight = 100.0;                // affinity must win
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  for (int i = 0; i < 4; ++i) {
    Pod p = worker("j1-w" + std::to_string(i));
    p.meta.labels["job"] = "j1";
    p.affinity_key = "job";
    p.affinity_value = "j1";
    c.create_pod(std::move(p));
    c.sim().run();
  }
  const std::string first = c.pods().get("j1-w0").node_name;
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(c.pods().get("j1-w" + std::to_string(i)).node_name, first);
  }
}

TEST(KubeScheduler, UsedOnCountsBoundPods) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0", 4));
  c.sim().run();
  EXPECT_EQ(c.index().used_on("node-0").cpus, 4);
  EXPECT_EQ(c.index().used_on("node-1").cpus, 0);
}

TEST(KubeScheduler, PickNodeEmptyWhenNothingFits) {
  Cluster c;
  c.add_nodes("node", 1, {2, 32768});
  Pod p = worker("p0", 8);
  EXPECT_EQ(c.scheduler().pick_node(p), "");
}

TEST(KubeScheduler, ScheduledCountAccumulates) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0"));
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_EQ(c.scheduler().scheduled_count(), 2);
}

}  // namespace
}  // namespace ehpc::k8s
