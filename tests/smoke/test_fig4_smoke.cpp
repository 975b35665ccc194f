// Fast deterministic smoke test over the calibration measurements.
//
// Runs the same measurement path as bench/fig4_scaling at tiny scale and pins
// golden values of every measurement (scaling, rescale stages, LB profile) of
// every app, guarding the virtual-time machine model against silent
// regressions. The runtime is fully deterministic (virtual time, seeded RNG),
// so the values are pinned to the bit, as hex floats.

#include <gtest/gtest.h>

#include <vector>

#include "apps/amr.hpp"
#include "apps/calibration.hpp"
#include "apps/graph.hpp"
#include "apps/leanmd.hpp"
#include "net/network_model.hpp"

namespace ehpc::apps {
namespace {

TEST(Fig4Smoke, JacobiTinyScaleIsDeterministic) {
  const std::vector<int> replicas{2, 4};
  const auto a = measure_scaling<Jacobi2D>(jacobi_for_grid(256, 3), replicas);
  const auto b = measure_scaling<Jacobi2D>(jacobi_for_grid(256, 3), replicas);
  ASSERT_EQ(a.size(), replicas.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replicas, replicas[i]);
    EXPECT_GT(a[i].time_per_step_s, 0.0);
    EXPECT_DOUBLE_EQ(a[i].time_per_step_s, b[i].time_per_step_s);
  }
  // Strong scaling: more replicas must not be slower at this size.
  EXPECT_LE(a[1].time_per_step_s, a[0].time_per_step_s);
}

TEST(Fig4Smoke, JacobiGoldenValues) {
  const auto pts = measure_scaling<Jacobi2D>(jacobi_for_grid(256, 3), {2, 4});
  ASSERT_EQ(pts.size(), 2u);
  // Golden values captured from the seed machine model; update deliberately
  // if the model changes.
  EXPECT_EQ(pts[0].time_per_step_s, 0x1.ff45d2bf774cap-7);
  EXPECT_EQ(pts[1].time_per_step_s, 0x1.15132ab2b9b2cp-7);
}

TEST(Fig4Smoke, LeanMdTinyScaleIsDeterministic) {
  LeanMdConfig md;
  md.cells_x = 2;
  md.cells_y = 2;
  md.cells_z = 2;
  md.atoms_per_cell = 40;
  md.real_atoms_per_cell = 4;
  md.max_iterations = 3;
  const auto a = measure_scaling<LeanMd>(md, {2, 4});
  const auto b = measure_scaling<LeanMd>(md, {2, 4});
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i].time_per_step_s, 0.0);
    EXPECT_DOUBLE_EQ(a[i].time_per_step_s, b[i].time_per_step_s);
  }
}

TEST(Fig4Smoke, ScalingCurveInterpolates) {
  const auto pts =
      measure_scaling<Jacobi2D>(jacobi_for_grid(256, 3), {2, 4, 8});
  const auto curve = scaling_curve(pts);
  // The piecewise-linear curve must reproduce its knots exactly.
  for (const auto& p : pts) {
    EXPECT_NEAR(curve.at(static_cast<double>(p.replicas)), p.time_per_step_s,
                1e-12);
  }
}

// ---- golden table: every measurement of every app at tiny sizes ----

LeanMdConfig tiny_leanmd() {
  LeanMdConfig md;
  md.cells_x = 2;
  md.cells_y = 2;
  md.cells_z = 2;
  md.atoms_per_cell = 40;
  md.real_atoms_per_cell = 4;
  md.max_iterations = 3;
  return md;
}

AmrConfig tiny_amr() {
  AmrConfig config;
  config.blocks = 16;
  config.cells_per_block = 256;
  config.max_real_cells = 32;
  config.max_depth = 2;
  config.refine_rate = 0.25;
  config.coarsen_rate = 0.1;
  config.max_iterations = 12;
  return config;
}

GraphConfig tiny_graph() {
  GraphConfig config;
  config.vertices = 256;
  config.parts = 16;
  config.skew = 0.9;
  config.max_iterations = 6;
  return config;
}

/// Comm-aware LB over a contended fat-tree, so the graph rows depend on
/// placement and network state.
charm::RuntimeConfig graph_runtime() {
  charm::RuntimeConfig rc;
  rc.pes_per_node = 2;
  rc.load_balancer = "commrefine";
  rc.network = net::make_network_model("fattree", 4.0);
  return rc;
}

void expect_points(const std::vector<ScalingPoint>& got,
                   const std::vector<ScalingPoint>& golden) {
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].replicas, golden[i].replicas);
    EXPECT_EQ(got[i].time_per_step_s, golden[i].time_per_step_s);
  }
}

void expect_rescale(const charm::RescaleTiming& t, int old_pes, int new_pes,
                    double lb_s, double ckpt_s, double restart_s,
                    double restore_s, int migrated) {
  EXPECT_EQ(t.old_pes, old_pes);
  EXPECT_EQ(t.new_pes, new_pes);
  EXPECT_EQ(t.load_balance_s, lb_s);
  EXPECT_EQ(t.checkpoint_s, ckpt_s);
  EXPECT_EQ(t.restart_s, restart_s);
  EXPECT_EQ(t.restore_s, restore_s);
  EXPECT_EQ(t.migrated_objects, migrated);
}

void expect_profile(const LbProfile& p, double pre, double post,
                    double migrations, int steps) {
  EXPECT_EQ(p.pre_ratio, pre);
  EXPECT_EQ(p.post_ratio, post);
  EXPECT_EQ(p.migrations_per_step, migrations);
  EXPECT_EQ(p.lb_steps, steps);
}

// Jacobi's scaling row is JacobiGoldenValues above.
TEST(Fig4Smoke, ScalingGoldenValuesOfTheOtherApps) {
  expect_points(measure_scaling<LeanMd>(tiny_leanmd(), {2, 4}),
                {{2, 0x1.3c5466810ace8p-10}, {4, 0x1.153e78023c928p-10}});
  expect_points(measure_scaling<Amr>(tiny_amr(), {1, 4}, 3),
                {{1, 0x1.d46c6d2a69a73p-10}, {4, 0x1.647959e6aed48p-10}});
  expect_points(
      measure_scaling<Graph>(tiny_graph(), {2, 4}, 2, graph_runtime()),
      {{2, 0x1.dda939b0e1efdp-9}, {4, 0x1.5d55ff97ce874p-8}});
}

TEST(Fig4Smoke, RescaleGoldenValuesOfEveryApp) {
  expect_rescale(measure_rescale<Jacobi2D>(jacobi_for_grid(256), 8, 4), 8, 4,
                 0x1.24740ed6c3acdp-8, 0x1.a8ed523102dfep-9,
                 0x1.0a3d70a3d70a4p-1, 0x1.a8ed523102dfep-9, 128);
  expect_rescale(measure_rescale<LeanMd>(tiny_leanmd(), 2, 4), 2, 4,
                 0x1.532af54c1ce4p-10, 0x1.aa547cd9f04bep-13,
                 0x1.0a3d70a3d70a4p-1, 0x1.aa547cd9f04bep-13, 4);
  expect_rescale(measure_rescale<Amr>(tiny_amr(), 8, 4, 6), 8, 4,
                 0x1.04c6385e155fp-9, 0x1.aa8f8b22de516p-13,
                 0x1.0a3d70a3d70a4p-1, 0x1.aa8f8b22de516p-13, 15);
  expect_rescale(
      measure_rescale<Graph>(tiny_graph(), 2, 4, 2, graph_runtime()), 2, 4,
      0x1.0e4948374021ep-8, 0x1.a3f5794f8864bp-12, 0x1.0a3d70a3d70a4p-1,
      0x1.a3f5794f8864bp-12, 13);
}

TEST(Fig4Smoke, LbProfileGoldenValuesOfEveryApp) {
  expect_profile(measure_lb_profile<Jacobi2D>(jacobi_for_grid(256, 3), 3, 1),
                 0x1.01fffffffffedp+0, 0x1.01fffffffffedp+0, 0.0, 2);
  expect_profile(measure_lb_profile<LeanMd>(tiny_leanmd(), 3, 1), 0x1.2p+0,
                 0x1.2p+0, 0.0, 2);
  expect_profile(measure_lb_profile<Amr>(tiny_amr(), 4, 3),
                 0x1.76b7bf5f514b7p+0, 0x1.05b107b50fc53p+0, 12.0, 3);
  expect_profile(
      measure_lb_profile<Graph>(tiny_graph(), 4, 2, graph_runtime()),
      0x1.f2e8ba2e8ba2cp+0, 0x1.c60f83e0f83dfp+0, 5.5, 2);
}

}  // namespace
}  // namespace ehpc::apps
