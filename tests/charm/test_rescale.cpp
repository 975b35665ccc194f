#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"
#include "charm/runtime.hpp"

namespace ehpc::charm {
namespace {

apps::JacobiConfig small_jacobi(int iters = 10) {
  apps::JacobiConfig cfg;
  cfg.grid_n = 256;
  cfg.blocks_x = 4;
  cfg.blocks_y = 4;
  cfg.max_real_block = 32;
  cfg.max_iterations = iters;
  return cfg;
}

RuntimeConfig pes(int n) {
  RuntimeConfig cfg;
  cfg.num_pes = n;
  cfg.pes_per_node = 4;
  return cfg;
}

TEST(Rescale, ShrinkMovesAllElementsOffDyingPes) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi());
  app.driver().at_iteration(2, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 4);
  for (ElementId e = 0; e < rt.num_elements(app.array()); ++e) {
    EXPECT_LT(rt.pe_of(app.array(), e), 4);
  }
}

TEST(Rescale, ShrinkRecordsFourStages) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi());
  app.driver().at_iteration(2, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.start();
  rt.run();
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  const RescaleTiming& t = rt.rescale_history().back();
  EXPECT_EQ(t.direction, RescaleDirection::kShrink);
  EXPECT_EQ(t.old_pes, 8);
  EXPECT_EQ(t.new_pes, 4);
  EXPECT_GT(t.load_balance_s, 0.0);
  EXPECT_GT(t.checkpoint_s, 0.0);
  EXPECT_GT(t.restart_s, 0.0);
  EXPECT_GT(t.restore_s, 0.0);
  EXPECT_GT(t.migrated_objects, 0);
  EXPECT_GT(t.checkpoint_modeled_bytes, 0.0);
}

TEST(Rescale, ExpandBalancesOntoNewPes) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi());
  app.driver().at_iteration(2, [](Runtime& r) { r.ccs().request_rescale(8); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 8);
  // After the expand's LB stage, the new PEs must actually host elements.
  bool any_on_new = false;
  for (ElementId e = 0; e < rt.num_elements(app.array()); ++e) {
    if (rt.pe_of(app.array(), e) >= 4) any_on_new = true;
  }
  EXPECT_TRUE(any_on_new);
}

TEST(Rescale, ApplicationStateSurvivesShrink) {
  // Run the same problem with and without a mid-run shrink; the final
  // residual must be identical (checkpoint/restore preserves numerics).
  auto run_residual = [](bool rescale) {
    Runtime rt(pes(8));
    apps::Jacobi2D app(rt, small_jacobi(12));
    if (rescale) {
      app.driver().at_iteration(4, [](Runtime& r) { r.ccs().request_rescale(4); });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    return app.residual();
  };
  const double with = run_residual(true);
  const double without = run_residual(false);
  EXPECT_DOUBLE_EQ(with, without);
}

TEST(Rescale, AckFiresAfterResume) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi());
  bool acked = false;
  RescaleTiming acked_timing;
  app.driver().at_iteration(2, [&](Runtime& r) {
    r.ccs().request_rescale(4, [&](const RescaleTiming& t) {
      acked = true;
      acked_timing = t;
    });
  });
  app.start();
  rt.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(acked_timing.new_pes, 4);
  EXPECT_GT(acked_timing.total(), 0.0);
}

TEST(Rescale, RescaleToSameSizeIsNoOpWithAck) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi());
  bool acked = false;
  app.driver().at_iteration(2, [&](Runtime& r) {
    r.ccs().request_rescale(4, [&](const RescaleTiming& t) {
      acked = true;
      EXPECT_EQ(t.total(), 0.0);
    });
  });
  app.start();
  rt.run();
  EXPECT_TRUE(acked);
  EXPECT_TRUE(rt.rescale_history().empty());
}

TEST(Rescale, EmptyRuntimeCheckpointsInZeroTime) {
  // With no elements the checkpoint is empty: every PE, idle or not, moves
  // zero bytes, so checkpoint and restore cost nothing and only the restart
  // is charged.
  Runtime rt(pes(4));
  rt.ccs().request_rescale(2);
  ASSERT_TRUE(rt.poll_rescale());
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  const RescaleTiming& t = rt.rescale_history().front();
  EXPECT_EQ(t.load_balance_s, 0.0);
  EXPECT_EQ(t.checkpoint_s, 0.0);
  EXPECT_EQ(t.restore_s, 0.0);
  EXPECT_EQ(t.checkpoint_modeled_bytes, 0.0);
  EXPECT_EQ(t.restart_s,
            rt.config().startup_alpha_s + rt.config().startup_per_pe_s * 2.0);
  EXPECT_EQ(rt.num_pes(), 2);
}

TEST(Rescale, IterationGapAppearsInTimeline) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().at_iteration(4, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.start();
  rt.run();
  const auto& times = app.driver().iteration_end_times();
  ASSERT_EQ(times.size(), 12u);
  // Gap between iterations 4 and 5 must include the rescale pause and be
  // the largest inter-iteration gap.
  const double rescale_gap = times[4] - times[3];
  double max_other = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (i == 4) continue;
    max_other = std::max(max_other, times[i] - times[i - 1]);
  }
  EXPECT_GT(rescale_gap, max_other);
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  EXPECT_GE(rescale_gap, rt.rescale_history().back().total());
}

TEST(Rescale, ShrinkThenExpandRoundTrip) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi(16));
  app.driver().at_iteration(4, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.driver().at_iteration(10, [](Runtime& r) { r.ccs().request_rescale(8); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 8);
  ASSERT_EQ(rt.rescale_history().size(), 2u);
  EXPECT_EQ(rt.rescale_history()[0].direction, RescaleDirection::kShrink);
  EXPECT_EQ(rt.rescale_history()[1].direction, RescaleDirection::kExpand);
}

TEST(Rescale, SlowerAfterShrinkFasterAfterExpand) {
  Runtime rt(pes(8));
  // Compute-bound problem: per-iteration time must track PE count.
  apps::JacobiConfig cfg = small_jacobi(18);
  cfg.grid_n = 4096;
  apps::Jacobi2D app(rt, cfg);
  app.driver().at_iteration(6, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.driver().at_iteration(12, [](Runtime& r) { r.ccs().request_rescale(8); });
  app.start();
  rt.run();
  const auto& times = app.driver().iteration_end_times();
  ASSERT_EQ(times.size(), 18u);
  // Steady-state per-iteration times in each regime (skip boundary iters).
  const double t8 = times[5] - times[4];
  const double t4 = times[10] - times[9];
  const double t8b = times[17] - times[16];
  EXPECT_GT(t4, t8);
  EXPECT_LT(t8b, t4);
}

}  // namespace
}  // namespace ehpc::charm
