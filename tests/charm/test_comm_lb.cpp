// The comm-aware load-balancing seam: CommRefineLB's traffic-locality
// refinement, the guard waiver for comm-driven proposals, and the runtime
// plumbing that measures the object-communication graph and routes
// collective latencies through the NetworkModel interface.

#include "charm/load_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/graph.hpp"
#include "charm/runtime.hpp"
#include "net/network_model.hpp"

namespace ehpc::charm {
namespace {

LbObject object(int elem, double load, PeId pe) {
  LbObject o;
  o.elem = elem;
  o.load = load;
  o.current_pe = pe;
  return o;
}

TEST(CommRefineLb, RegisteredAsTheFourthStrategy) {
  const auto& names = load_balancer_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.back(), "commrefine");
  const auto lb = make_load_balancer("commrefine");
  EXPECT_EQ(lb->name(), "CommRefineLB");
  EXPECT_TRUE(lb->comm_aware());
  // The pre-existing strategies stay compute-only.
  for (const char* name : {"null", "greedy", "refine"}) {
    EXPECT_FALSE(make_load_balancer(name)->comm_aware()) << name;
  }
}

TEST(CommRefineLb, WithoutMeasuredTrafficBehavesLikeRefine) {
  std::vector<LbObject> objects;
  for (int i = 0; i < 12; ++i) {
    objects.push_back(object(i, 0.5 + 0.25 * (i % 3), i % 2));
  }
  const std::vector<PeId> pes{0, 1, 2};
  const CommRefineLb comm_lb(1.15);
  EXPECT_EQ(comm_lb.assign(objects, pes),
            RefineLb(1.15).assign(objects, pes));
  // An empty comm graph routed through the comm overload degrades the same
  // way.
  EXPECT_EQ(comm_lb.assign(objects, LbCommGraph{}, pes),
            RefineLb(1.15).assign(objects, pes));
}

TEST(CommRefineLb, ColocatesHeavyTalkersWithinTheLoadCap) {
  // Two heavy compute objects pin one per PE; two light objects exchange
  // nearly all the traffic. The comm-aware pass must pull the talkers onto
  // one PE (the cap leaves room), eliminating their cut traffic.
  std::vector<LbObject> objects{
      object(0, 1.0, 0), object(1, 1.0, 1),   // anchors
      object(2, 0.05, 0), object(3, 0.05, 1)  // talkers
  };
  LbCommGraph comm;
  comm.edges.push_back({2, 3, 1.0e6});
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1};
  const LbAssignment out = CommRefineLb(1.15).assign(objects, comm, pes);
  EXPECT_EQ(out[2], out[3]);
  // The anchors still sit on distinct PEs (the cap blocks stacking them).
  EXPECT_NE(out[0], out[1]);
}

TEST(CommRefineLb, RespectsTheComputeLoadCap) {
  // All four objects talk heavily, but stacking everything on one PE would
  // blow the tolerance cap: the proposal must stay within it.
  std::vector<LbObject> objects{object(0, 1.0, 0), object(1, 1.0, 1),
                                object(2, 1.0, 2), object(3, 1.0, 3)};
  LbCommGraph comm;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) comm.edges.push_back({a, b, 1.0e6});
  }
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1, 2, 3};
  const LbAssignment out = CommRefineLb(1.15).assign(objects, comm, pes);
  const double ratio = load_imbalance(objects, out, pes);
  EXPECT_LE(ratio, 1.15 + 1e-12);
}

TEST(RunStrategy, CommDrivenProposalsWaiveTheNeverWorseGuard) {
  // Current placement is perfectly compute-balanced, so the guard would
  // veto any migration; a comm-driven proposal trades a little imbalance
  // for locality and must stand anyway.
  std::vector<LbObject> objects{
      object(0, 1.0, 0), object(1, 1.0, 1),   // anchors
      object(2, 0.05, 0), object(3, 0.05, 1)  // talkers
  };
  LbCommGraph comm;
  comm.edges.push_back({2, 3, 1.0e6});
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1};
  const CommRefineLb lb(1.15);
  LbStepStats stats;
  const LbAssignment out = run_strategy(lb, objects, comm, pes, &stats);
  EXPECT_EQ(out[2], out[3]);
  EXPECT_GT(stats.migrated, 0);
  EXPECT_EQ(stats.strategy, "CommRefineLB");

  // The same strategy without a graph keeps the full guard: the balanced
  // placement survives untouched.
  LbStepStats no_comm_stats;
  const LbAssignment kept = run_strategy(lb, objects, pes, &no_comm_stats);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(kept[i], objects[i].current_pe);
  }
  EXPECT_EQ(no_comm_stats.migrated, 0);
}

/// Mock model that prices point-to-point messages like the flat model but
/// reports a fixed, large collective latency — detects whether the runtime
/// actually asks the NetworkModel for collective costs (the historical bug:
/// reductions were priced from a hard-coded contention-free floor).
class FixedCollectiveModel final : public net::NetworkModel {
 public:
  FixedCollectiveModel(net::FlatNetworkModel base, double collective_s)
      : base_(base), collective_s_(collective_s) {}

  std::string name() const override { return "fixed-collective"; }
  std::string describe() const override { return "fixed-collective"; }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override {
    return base_.message_time(bytes, src_node, dst_node);
  }
  double inter_alpha() const override { return base_.inter_alpha(); }
  double collective_latency(int pes, double now) const override {
    (void)pes;
    (void)now;
    return collective_s_;
  }
  std::unique_ptr<net::NetworkModel> clone() const override {
    return std::make_unique<FixedCollectiveModel>(base_, collective_s_);
  }

 private:
  net::FlatNetworkModel base_;
  double collective_s_;
};

double graph_run_seconds(std::shared_ptr<const net::NetworkModel> network) {
  RuntimeConfig rc;
  rc.num_pes = 4;
  rc.pes_per_node = 2;
  rc.network = std::move(network);
  Runtime rt(rc);
  apps::GraphConfig gc;
  gc.vertices = 128;
  gc.parts = 8;
  gc.max_iterations = 4;
  apps::Graph app(rt, gc);
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  return app.driver().iteration_end_times().back();
}

TEST(RuntimeCollectives, ReductionsArePricedByTheNetworkModel) {
  // Regression: the runtime used to compute its own ceil(log2(pes)) *
  // inter_alpha tree floor for every reduction, so a contended (or here,
  // artificially slow) fabric never slowed collectives. With the seam in
  // place, each of the 4 supersteps pays the model's 1-second collective.
  const net::FlatNetworkModel pod = net::pod_network();
  const double flat_total = graph_run_seconds(
      std::make_shared<net::FlatNetworkModel>(pod));
  const double stretched_total = graph_run_seconds(
      std::make_shared<FixedCollectiveModel>(pod, /*collective_s=*/1.0));
  EXPECT_GT(stretched_total, flat_total + 3.0);
}

TEST(RuntimeCollectives, SaturatedTopologySlowsTheRunEndToEnd) {
  // A heavily oversubscribed fat-tree must make the same workload strictly
  // slower than the flat fabric — contention now reaches both point-to-point
  // messages and the per-superstep reductions.
  const double flat_total = graph_run_seconds(
      std::make_shared<net::FlatNetworkModel>(net::pod_network()));
  const double contended_total = graph_run_seconds(
      net::make_network_model("fattree", /*oversub=*/16.0));
  EXPECT_GT(contended_total, flat_total);
}

TEST(RuntimeCommTracking, CommAwareStrategyReceivesTheMeasuredGraph) {
  // With commrefine configured, the runtime tracks cross-chare traffic and
  // the periodic LB step runs the comm-aware path (visible through
  // lb_history's strategy stamp).
  RuntimeConfig rc;
  rc.num_pes = 4;
  rc.pes_per_node = 2;
  rc.load_balancer = "commrefine";
  Runtime rt(rc);
  apps::GraphConfig gc;
  gc.vertices = 256;
  gc.parts = 16;
  gc.max_iterations = 6;
  apps::Graph app(rt, gc);
  app.driver().set_lb_period(2);
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  ASSERT_FALSE(rt.lb_history().empty());
  for (const auto& step : rt.lb_history()) {
    EXPECT_EQ(step.strategy, "CommRefineLB");
    EXPECT_GT(step.objects, 0);
  }
}

}  // namespace
}  // namespace ehpc::charm
