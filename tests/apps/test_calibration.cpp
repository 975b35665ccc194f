#include "apps/calibration.hpp"

#include <gtest/gtest.h>

#include "apps/leanmd.hpp"
#include "common/error.hpp"

namespace ehpc::apps {
namespace {

TEST(Calibration, JacobiScalingMonotoneForLargeProblem) {
  auto points =
      measure_scaling<Jacobi2D>(jacobi_for_grid(8192, 8), {4, 16, 64});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].time_per_step_s, points[1].time_per_step_s);
  EXPECT_GT(points[1].time_per_step_s, points[2].time_per_step_s);
}

TEST(Calibration, SmallProblemScalesWorseThanLarge) {
  auto small = measure_scaling<Jacobi2D>(jacobi_for_grid(512, 8), {4, 64});
  auto large = measure_scaling<Jacobi2D>(jacobi_for_grid(16384, 8), {4, 64});
  const double speedup_small = small[0].time_per_step_s / small[1].time_per_step_s;
  const double speedup_large = large[0].time_per_step_s / large[1].time_per_step_s;
  EXPECT_GT(speedup_large, speedup_small);
}

TEST(Calibration, LeanMdScalingMonotone) {
  LeanMdConfig cfg;
  cfg.cells_x = cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.max_iterations = 8;
  cfg.atoms_per_cell = 400;
  cfg.real_atoms_per_cell = 4;
  auto points = measure_scaling<LeanMd>(cfg, {4, 16, 64});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].time_per_step_s, points[1].time_per_step_s);
  EXPECT_GT(points[1].time_per_step_s, points[2].time_per_step_s);
}

TEST(Calibration, RescaleTimingHasAllStages) {
  auto timing = measure_rescale<Jacobi2D>(jacobi_for_grid(2048), 8, 4);
  EXPECT_EQ(timing.old_pes, 8);
  EXPECT_EQ(timing.new_pes, 4);
  EXPECT_GT(timing.load_balance_s, 0.0);
  EXPECT_GT(timing.checkpoint_s, 0.0);
  EXPECT_GT(timing.restart_s, 0.0);
  EXPECT_GT(timing.restore_s, 0.0);
}

TEST(Calibration, RestartGrowsWithReplicas) {
  auto small = measure_rescale<Jacobi2D>(jacobi_for_grid(2048), 4, 2);
  auto large = measure_rescale<Jacobi2D>(jacobi_for_grid(2048), 32, 16);
  EXPECT_LT(small.restart_s, large.restart_s);
}

TEST(Calibration, CheckpointGrowsWithProblemSize) {
  auto small = measure_rescale<Jacobi2D>(jacobi_for_grid(512), 8, 4);
  auto large = measure_rescale<Jacobi2D>(jacobi_for_grid(8192), 8, 4);
  EXPECT_LT(small.checkpoint_s, large.checkpoint_s);
}

TEST(Calibration, MeasurementsRejectRunsThatCannotAnswer) {
  // Jacobi's steady state leaves out two warmup iterations: two are too few.
  EXPECT_THROW(measure_scaling<Jacobi2D>(jacobi_for_grid(256, 2), {2}),
               PreconditionError);
  EXPECT_THROW(measure_rescale<Jacobi2D>(jacobi_for_grid(256), 4, 0),
               PreconditionError);
  // A rescale to the current size is a no-op, so there is nothing to time.
  EXPECT_THROW(measure_rescale<Jacobi2D>(jacobi_for_grid(256), 4, 4),
               InvariantError);
  EXPECT_THROW(measure_lb_profile<Jacobi2D>(jacobi_for_grid(256, 3), 4, 0),
               PreconditionError);
}

TEST(Calibration, ScalingCurveInterpolates) {
  std::vector<ScalingPoint> pts{{4, 1.0}, {8, 0.5}, {16, 0.25}};
  auto curve = scaling_curve(pts);
  EXPECT_DOUBLE_EQ(curve.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.at(6.0), 0.75);
  EXPECT_DOUBLE_EQ(curve.at(16.0), 0.25);
}

TEST(Calibration, JacobiForGridConfig) {
  auto cfg = jacobi_for_grid(4096);
  EXPECT_EQ(cfg.grid_n, 4096);
  EXPECT_EQ(cfg.blocks_x * cfg.blocks_y, 256);
  EXPECT_EQ(cfg.grid_n % cfg.blocks_x, 0);
}

}  // namespace
}  // namespace ehpc::apps
