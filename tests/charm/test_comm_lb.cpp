// The comm-aware load-balancing seam: CommRefineLB's traffic-locality
// refinement, the guard waiver for comm-driven proposals, and the runtime
// plumbing that measures the object-communication graph and routes
// collective latencies through the NetworkModel interface.

#include "charm/load_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/graph.hpp"
#include "charm/runtime.hpp"
#include "common/error.hpp"
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

/// One node per PE; every pair of distinct PEs costs `per_byte`.
void price_uniformly(LbCommGraph* comm, const std::vector<PeId>& pes,
                     double per_byte) {
  comm->set_prices(
      pes, [](PeId pe) { return pe; },
      [per_byte](int x, int y) { return x == y ? 0.0 : per_byte; });
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
  const std::vector<PeId> pes{0, 1};
  price_uniformly(&comm, pes, 1.0e-9);
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
  const std::vector<PeId> pes{0, 1, 2, 3};
  price_uniformly(&comm, pes, 1.0e-9);
  const LbAssignment out = CommRefineLb(1.15).assign(objects, comm, pes);
  const double ratio = load_imbalance(objects, out, pes);
  EXPECT_LE(ratio, 1.15 + 1e-12);
}

TEST(LbCommGraph, PriceTableCoversExactlyTheNodesOfThePricedPes) {
  // PEs 2, 3, 6 and 7 sit on nodes 1 and 3 (two PEs per node): the table
  // has two rows and prices every ordered node pair once, diagonal
  // included.
  LbCommGraph comm;
  comm.edges.push_back({0, 1, 1.0});
  int calls = 0;
  comm.set_prices(
      {2, 3, 6, 7}, [](PeId pe) { return pe / 2; },
      [&calls](int x, int y) {
        ++calls;
        return 10.0 * x + y;
      });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(comm.nodes, 2);
  EXPECT_EQ(comm.pe_node, (std::vector<int>{-1, -1, 0, 0, -1, -1, 1, 1}));
  EXPECT_FALSE(comm.empty());
  EXPECT_EQ(comm.byte_cost(2, 2), 0.0);   // same PE: free
  EXPECT_EQ(comm.byte_cost(2, 3), 11.0);  // same node, distinct PEs
  EXPECT_EQ(comm.byte_cost(3, 7), 13.0);
  EXPECT_EQ(comm.byte_cost(7, 2), 31.0);
  // A table that misses an available PE is a caller error.
  std::vector<LbObject> objects{object(0, 1.0, 2), object(1, 1.0, 3)};
  EXPECT_THROW(CommRefineLb().assign(objects, comm, {2, 3, 4}),
               PreconditionError);
}

/// Chung-Lu style power-law communication graph over `n` objects with
/// seeded loads and current placements on PEs [0, num_pes).
struct LbCase {
  std::vector<LbObject> objects;
  std::vector<LbCommGraph::Edge> edges;
};

LbCase power_law_case(std::uint64_t seed, int n, int num_pes) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  LbCase c;
  for (int i = 0; i < n; ++i) {
    c.objects.push_back(object(i, 0.1 + unit(rng),
                               static_cast<PeId>(rng() % static_cast<std::uint64_t>(num_pes))));
  }
  std::vector<double> cumulative;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -0.9);
    cumulative.push_back(total);
  }
  const auto draw = [&] {
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), unit(rng) * total);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cumulative.begin(), static_cast<std::ptrdiff_t>(n) - 1));
  };
  for (int e = 0; e < 4 * n; ++e) {
    const int a = draw();
    const int b = draw();
    const double u = unit(rng);
    c.edges.push_back({a, b, 1.0e3 * (1.0 + 1.0e3 * u * u * u)});
  }
  return c;
}

constexpr std::size_t kRefBytes = 65536;

/// CommRefineLB as it ran before the price table: every (object, candidate,
/// neighbour) triple asks the network model for a price, and PE loads live
/// in a std::map.
LbAssignment per_triple_oracle(double tolerance, const LbCase& c,
                               const std::vector<PeId>& available_pes,
                               const net::NetworkModel& net, int pes_per_node) {
  const auto byte_cost = [&](PeId a, PeId b) {
    if (a == b) return 0.0;
    return net.message_time(kRefBytes, a / pes_per_node, b / pes_per_node) /
           static_cast<double>(kRefBytes);
  };
  const auto& objects = c.objects;
  LbAssignment out = GreedyLb().assign(objects, available_pes);
  std::map<PeId, double> pe_load;
  for (PeId pe : available_pes) pe_load[pe] = 0.0;
  double total_load = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    pe_load[out[i]] += objects[i].load;
    total_load += objects[i].load;
  }
  const double cap =
      tolerance * total_load / static_cast<double>(available_pes.size());
  std::vector<std::vector<std::pair<int, double>>> adj(objects.size());
  std::vector<double> adjacent_bytes(objects.size(), 0.0);
  for (const auto& e : c.edges) {
    if (e.a == e.b || e.bytes <= 0.0) continue;
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.bytes});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.bytes});
    adjacent_bytes[static_cast<std::size_t>(e.a)] += e.bytes;
    adjacent_bytes[static_cast<std::size_t>(e.b)] += e.bytes;
  }
  std::vector<std::size_t> order(objects.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return adjacent_bytes[a] > adjacent_bytes[b];
  });
  const auto comm_cost = [&](std::size_t i, PeId pe) {
    double cost = 0.0;
    for (const auto& [j, bytes] : adj[i]) {
      cost += bytes * byte_cost(pe, out[static_cast<std::size_t>(j)]);
    }
    return cost;
  };
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (std::size_t i : order) {
      if (adj[i].empty()) continue;
      const PeId from = out[i];
      double best_cost = comm_cost(i, from);
      PeId best_pe = from;
      for (PeId pe : available_pes) {
        if (pe == from) continue;
        if (pe_load[pe] + objects[i].load > cap) continue;
        const double cost = comm_cost(i, pe);
        if (cost < best_cost) {
          best_cost = cost;
          best_pe = pe;
        }
      }
      if (best_pe != from) {
        pe_load[from] -= objects[i].load;
        pe_load[best_pe] += objects[i].load;
        out[i] = best_pe;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return out;
}

TEST(CommRefineLb, PriceTableMatchesPerTriplePricing) {
  // 64 objects on 32 PEs, 4 per node, over both topologies and three
  // oversubscription levels; the available set is every PE, a shrink to a
  // strict prefix that splits a node, or a set with a node missing in the
  // middle. The table-priced strategy must reproduce the per-triple
  // oracle exactly.
  constexpr int kPes = 32;
  constexpr int kPesPerNode = 4;
  std::vector<PeId> all(kPes);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<PeId> prefix(all.begin(), all.begin() + 22);
  std::vector<PeId> holed;
  for (PeId pe : all) {
    if (pe / kPesPerNode != 2 && pe != 29) holed.push_back(pe);
  }
  const std::vector<const std::vector<PeId>*> sets{&all, &prefix, &holed};
  int refined = 0;
  int cases = 0;
  for (const char* kind : {"fattree", "dragonfly"}) {
    for (const double oversub : {1.0, 4.0, 16.0}) {
      const auto net = net::make_network_model(kind, oversub);
      for (const std::vector<PeId>* pes : sets) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const LbCase c = power_law_case(seed * 7919 + 17, 64, kPes);
          LbCommGraph comm;
          comm.edges = c.edges;
          comm.set_prices(
              *pes, [](PeId pe) { return pe / kPesPerNode; },
              [&](int x, int y) {
                return net->message_time(kRefBytes, x, y) /
                       static_cast<double>(kRefBytes);
              });
          const LbAssignment got = CommRefineLb().assign(c.objects, comm, *pes);
          EXPECT_EQ(got, per_triple_oracle(1.15, c, *pes, *net, kPesPerNode))
              << kind << " oversub=" << oversub << " pes=" << pes->size()
              << " seed=" << seed;
          if (got != GreedyLb().assign(c.objects, *pes)) ++refined;
          ++cases;
        }
      }
    }
  }
  // The comparison is only meaningful if the refinement actually moves
  // objects off the greedy seed.
  EXPECT_GT(refined, cases / 2);
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
  const std::vector<PeId> pes{0, 1};
  price_uniformly(&comm, pes, 1.0e-9);
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

/// Forwards to a contention model and counts message_time calls.
class PriceCountingModel final : public net::NetworkModel {
 public:
  PriceCountingModel(std::shared_ptr<const net::NetworkModel> inner,
                     std::shared_ptr<int> calls)
      : inner_(inner->clone()), calls_(std::move(calls)) {}

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override {
    ++*calls_;
    return inner_->message_time(bytes, src_node, dst_node);
  }
  double begin_transfer(std::size_t bytes, int src_node, int dst_node,
                        double now) override {
    return inner_->begin_transfer(bytes, src_node, dst_node, now);
  }
  double inter_alpha() const override { return inner_->inter_alpha(); }
  double collective_latency(int pes, double now) const override {
    return inner_->collective_latency(pes, now);
  }
  std::unique_ptr<net::NetworkModel> clone() const override {
    return std::make_unique<PriceCountingModel>(
        std::shared_ptr<const net::NetworkModel>(inner_->clone()), calls_);
  }

 private:
  std::unique_ptr<net::NetworkModel> inner_;
  std::shared_ptr<int> calls_;
};

TEST(RuntimeCommTracking, PricesEachNodePairOncePerLbStep) {
  // 8 PEs on 4 nodes: a comm-aware LB step may ask the network for at most
  // one price per node pair plus one per migrated object, however many
  // candidate moves the strategy weighs.
  const auto calls = std::make_shared<int>(0);
  RuntimeConfig rc;
  rc.num_pes = 8;
  rc.pes_per_node = 2;
  rc.load_balancer = "commrefine";
  rc.network = std::make_shared<PriceCountingModel>(
      net::make_network_model("fattree", /*oversub=*/4.0), calls);
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
  int migrated = 0;
  for (const auto& step : rt.lb_history()) migrated += step.migrated;
  EXPECT_GT(*calls, 0);
  EXPECT_LE(*calls,
            static_cast<int>(rt.lb_history().size()) * 4 * 4 + migrated);
}

/// Minimal chare for array-creation tests.
struct Empty final : Chare {
  void pup(Pup& p) override { (void)p; }
};

Runtime::ElementFactory empty_factory() {
  return [](ElementId) { return std::make_unique<Empty>(); };
}

TEST(RuntimeCommTracking, RejectsArraysBeyondTheCommKeyWidth) {
  // Regression: the traffic ledger packs array ids into 8 bits, so the
  // 257th array of a comm-tracking runtime used to book its traffic to
  // array 0's objects without a word.
  RuntimeConfig rc;
  rc.num_pes = 2;
  rc.load_balancer = "commrefine";
  Runtime rt(rc);
  for (int a = 0; a < 256; ++a) rt.create_array("a", 1, empty_factory());
  EXPECT_THROW(rt.create_array("a", 1, empty_factory()), PreconditionError);

  // A runtime that does not track traffic has no such limit.
  rc.load_balancer = "greedy";
  Runtime untracked(rc);
  for (int a = 0; a < 257; ++a) untracked.create_array("a", 1, empty_factory());
  EXPECT_EQ(untracked.create_array("a", 1, empty_factory()), 257);
}

TEST(RuntimeCommTracking, RejectsElementsBeyondTheCommKeyWidth) {
  // Element ids get 24 bits in the ledger key; element 2^24 would alias
  // element 0. The check fires before any element is constructed.
  RuntimeConfig rc;
  rc.num_pes = 2;
  rc.load_balancer = "commrefine";
  Runtime rt(rc);
  int constructed = 0;
  EXPECT_THROW(rt.create_array("big", (1 << 24) + 1,
                               [&constructed](ElementId) {
                                 ++constructed;
                                 return std::make_unique<Empty>();
                               }),
               PreconditionError);
  EXPECT_EQ(constructed, 0);
}

}  // namespace
}  // namespace ehpc::charm
