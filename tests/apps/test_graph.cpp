// The power-law graph workload: deterministic Chung-Lu edge generation,
// hub-skewed degree structure, and the placement-independence discipline —
// every rank value must be a pure function of the config, bit-identical
// across PE counts, load balancing, and rescales.

#include "apps/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "charm/runtime.hpp"
#include "common/error.hpp"

namespace ehpc::apps {
namespace {

GraphConfig small_config() {
  GraphConfig config;
  config.vertices = 256;
  config.parts = 16;
  config.skew = 0.9;
  config.max_iterations = 6;
  return config;
}

std::vector<double> run_ranks(const GraphConfig& config,
                              charm::RuntimeConfig rc, int lb_period = 0) {
  charm::Runtime rt(rc);
  Graph app(rt, config);
  if (lb_period > 0) app.driver().set_lb_period(lb_period);
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  return app.ranks();
}

TEST(Graph, BuildsTheConfiguredShape) {
  charm::RuntimeConfig rc;
  rc.num_pes = 2;
  charm::Runtime rt(rc);
  const GraphConfig config = small_config();
  Graph app(rt, config);
  // Every vertex has at least one out-edge; the total tracks the degree
  // budget (vertices * avg_degree) within rounding slack.
  EXPECT_GE(app.total_edges(), config.vertices);
  EXPECT_LE(app.total_edges(),
            2 * static_cast<std::int64_t>(config.vertices * config.avg_degree));
  EXPECT_GT(app.cut_edges(), 0);
  EXPECT_LT(app.cut_edges(), app.total_edges());
  EXPECT_EQ(app.part_of(0), 0);
  EXPECT_EQ(app.part_of(config.vertices - 1), config.parts - 1);
  // Per-part vertex counts tile the range exactly.
  int covered = 0;
  for (int p = 0; p < config.parts; ++p) {
    covered += app.part_topo(p).num_vertices;
  }
  EXPECT_EQ(covered, config.vertices);
}

TEST(Graph, SkewConcentratesOutDegreesOnHubs) {
  charm::RuntimeConfig rc;
  rc.num_pes = 1;
  charm::Runtime rt_uniform(rc);
  charm::Runtime rt_skewed(rc);
  GraphConfig uniform = small_config();
  uniform.skew = 0.0;
  GraphConfig skewed = small_config();
  skewed.skew = 0.9;
  const Graph flat_app(rt_uniform, uniform);
  const Graph hub_app(rt_skewed, skewed);
  // skew 0: every vertex gets the same (rounded) degree.
  EXPECT_EQ(flat_app.max_out_degree(),
            static_cast<int>(std::lround(uniform.avg_degree)));
  // skew 0.9: vertex 0 is a hub far above the mean.
  EXPECT_GT(hub_app.max_out_degree(), 4 * flat_app.max_out_degree());
  EXPECT_EQ(hub_app.out_degree(0), hub_app.max_out_degree());
}

TEST(Graph, StubDrawIsDeterministicAndInRange) {
  for (int v = 0; v < 64; ++v) {
    for (int k = 0; k < 4; ++k) {
      const double r = Graph::stub_draw(2025, v, k);
      EXPECT_GE(r, 0.0);
      EXPECT_LT(r, 1.0);
      EXPECT_EQ(r, Graph::stub_draw(2025, v, k));
    }
  }
  EXPECT_NE(Graph::stub_draw(2025, 1, 0), Graph::stub_draw(2025, 2, 0));
  EXPECT_NE(Graph::stub_draw(2025, 1, 0), Graph::stub_draw(2026, 1, 0));
}

TEST(Graph, RanksAreDeterministicAcrossRuns) {
  charm::RuntimeConfig rc;
  rc.num_pes = 4;
  const auto a = run_ranks(small_config(), rc);
  const auto b = run_ranks(small_config(), rc);
  EXPECT_EQ(a, b);
}

TEST(Graph, RanksArePlacementIndependentAcrossPeCounts) {
  // The acceptance discipline for every new workload: identical results on
  // 1 PE and many PEs, with and without periodic load balancing. Bitwise —
  // the fixed inbox application order makes FP summation order a function
  // of the graph alone.
  charm::RuntimeConfig rc1;
  rc1.num_pes = 1;
  const auto serial = run_ranks(small_config(), rc1);

  charm::RuntimeConfig rc8;
  rc8.num_pes = 8;
  EXPECT_EQ(serial, run_ranks(small_config(), rc8));

  charm::RuntimeConfig lb;
  lb.num_pes = 8;
  lb.load_balancer = "greedy";
  EXPECT_EQ(serial, run_ranks(small_config(), lb, /*lb_period=*/2));

  charm::RuntimeConfig comm;
  comm.num_pes = 8;
  comm.pes_per_node = 2;
  comm.load_balancer = "commrefine";
  comm.network = net::make_network_model("fattree", /*oversub=*/4.0);
  EXPECT_EQ(serial, run_ranks(small_config(), comm, /*lb_period=*/2));
}

TEST(Graph, HubsAccumulateRank) {
  charm::RuntimeConfig rc;
  rc.num_pes = 2;
  const auto ranks = run_ranks(small_config(), rc);
  ASSERT_EQ(ranks.size(), 256u);
  // Edge targets follow the same power law as the degrees, so vertex 0
  // receives far more probability mass than the tail.
  EXPECT_GT(ranks[0], 4.0 * ranks[255]);
  for (const double r : ranks) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(Graph, RanksSurviveARescaleBitForBit) {
  const GraphConfig config = small_config();
  charm::RuntimeConfig rc;
  rc.num_pes = 2;
  const auto undisturbed = run_ranks(config, rc);

  charm::Runtime rt(rc);
  Graph app(rt, config);
  app.driver().at_iteration(2, [](charm::Runtime& r) {
    r.ccs().request_rescale(6);
  });
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  EXPECT_EQ(rt.num_pes(), 6);
  EXPECT_EQ(app.ranks(), undisturbed);
}

TEST(Graph, ActiveVertexReductionStaysInRange) {
  charm::RuntimeConfig rc;
  rc.num_pes = 4;
  charm::Runtime rt(rc);
  const GraphConfig config = small_config();
  Graph app(rt, config);
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  const double active = app.active_last_iteration();
  EXPECT_GE(active, 0.0);
  EXPECT_LE(active, static_cast<double>(config.vertices));
  // Integer-valued by construction (counts contribute exactly).
  EXPECT_EQ(active, std::floor(active));
}

TEST(Graph, RejectsDegenerateConfigs) {
  charm::RuntimeConfig rc;
  rc.num_pes = 1;
  charm::Runtime rt(rc);
  GraphConfig config = small_config();
  config.parts = config.vertices + 1;  // more parts than vertices
  EXPECT_THROW(Graph(rt, config), PreconditionError);
  config = small_config();
  config.vertices = 0;
  EXPECT_THROW(Graph(rt, config), PreconditionError);
  config = small_config();
  config.skew = -0.5;
  EXPECT_THROW(Graph(rt, config), PreconditionError);
}

}  // namespace
}  // namespace ehpc::apps
