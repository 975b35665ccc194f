#include "apps/amr.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/calibration.hpp"
#include "charm/runtime.hpp"

namespace ehpc::apps {
namespace {

AmrConfig small_config() {
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

charm::RuntimeConfig runtime_config(int pes) {
  charm::RuntimeConfig rc;
  rc.num_pes = pes;
  return rc;
}

TEST(AmrBlock, FluxAndComputeRelaxTowardsNeighbours) {
  AmrBlock block(8, 2);
  block.mark_started();
  block.apply_flux(AmrBlock::kLeft, {2.0, 2.0});
  block.apply_flux(AmrBlock::kRight, {2.0, 2.0});
  ASSERT_TRUE(block.ready_to_compute());
  const double delta = block.compute();
  EXPECT_GT(delta, 0.0);
  EXPECT_EQ(block.iteration(), 1);
  EXPECT_FALSE(block.ready_to_compute());  // gates reset
}

TEST(AmrBlock, ChangeLevelResamplesDeterministically) {
  AmrBlock a(8, 2);
  AmrBlock b(8, 2);
  a.change_level(+1, 32);
  b.change_level(+1, 32);
  EXPECT_EQ(a.level(), 1);
  EXPECT_EQ(a.real_cells(), 32);
  EXPECT_EQ(b.real_cells(), 32);
  a.change_level(-1, 8);
  EXPECT_EQ(a.level(), 0);
  EXPECT_EQ(a.real_cells(), 8);
}

TEST(AmrBlock, PupRoundTripsAllState) {
  AmrBlock block(8, 2);
  block.mark_started();
  block.apply_flux(AmrBlock::kLeft, {1.0, 2.0});
  block.change_level(+1, 16);
  std::vector<std::byte> buffer;
  charm::Pup packer = charm::Pup::packer(buffer);
  block.pup(packer);

  AmrBlock restored(1, 2);
  charm::Pup unpacker = charm::Pup::unpacker(buffer);
  restored.pup(unpacker);
  EXPECT_EQ(restored.level(), 1);
  EXPECT_EQ(restored.real_cells(), 16);
  EXPECT_TRUE(restored.started());
}

TEST(Amr, EventDrawIsDeterministicAndUniformish) {
  // Same key -> same draw; different keys decorrelate.
  EXPECT_DOUBLE_EQ(Amr::event_draw(7, 3, 11), Amr::event_draw(7, 3, 11));
  EXPECT_NE(Amr::event_draw(7, 3, 11), Amr::event_draw(7, 3, 12));
  EXPECT_NE(Amr::event_draw(7, 3, 11), Amr::event_draw(7, 4, 11));
  EXPECT_NE(Amr::event_draw(8, 3, 11), Amr::event_draw(7, 3, 11));
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double u = Amr::event_draw(2025, i, i * 7);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Amr, RunsToCompletionAndAdaptsTheMesh) {
  charm::Runtime rt(runtime_config(4));
  Amr app(rt, small_config());
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  EXPECT_EQ(app.driver().iterations_done(), 12);

  // With refine_rate 0.25 over 12 iterations some patches must have left
  // the base mesh, producing a spread of levels (= imbalance).
  std::set<int> levels;
  for (int e = 0; e < app.config().blocks; ++e) levels.insert(app.level_of(e));
  EXPECT_GT(*levels.rbegin(), 0);
  EXPECT_GT(app.total_model_cells(),
            16.0 * 256.0);  // refined above the base mesh
}

TEST(Amr, ZeroRefineRateKeepsTheBaseMesh) {
  AmrConfig config = small_config();
  config.refine_rate = 0.0;
  config.coarsen_rate = 0.0;
  charm::Runtime rt(runtime_config(4));
  Amr app(rt, config);
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  for (int e = 0; e < config.blocks; ++e) EXPECT_EQ(app.level_of(e), 0);
  EXPECT_DOUBLE_EQ(app.total_model_cells(), 16.0 * 256.0);
}

TEST(Amr, RefinementProducesLoadImbalance) {
  charm::Runtime rt(runtime_config(4));
  Amr app(rt, small_config());
  app.start();
  rt.run();
  const auto loads = rt.element_loads(app.array());
  double lo = loads.front(), hi = loads.front();
  for (const double l : loads) {
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  // Refined patches cost 4x/16x the base level: heavy spread expected.
  EXPECT_GT(hi, 2.0 * std::max(lo, 1e-12));
}

TEST(Amr, DeterministicAcrossRuns) {
  auto run_once = [] {
    charm::Runtime rt(runtime_config(4));
    Amr app(rt, small_config());
    app.start();
    rt.run();
    return std::pair<double, double>(app.total_model_cells(),
                                     app.cells_last_iteration());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Amr, MeshEvolutionIsIndependentOfPeCount) {
  // Placement changes event *order*, never the refinement decisions: the
  // final mesh must be identical on 2 and 8 PEs.
  auto final_levels = [](int pes) {
    charm::Runtime rt(runtime_config(pes));
    Amr app(rt, small_config());
    app.start();
    rt.run();
    std::vector<int> levels;
    for (int e = 0; e < app.config().blocks; ++e) {
      levels.push_back(app.level_of(e));
    }
    return levels;
  };
  EXPECT_EQ(final_levels(2), final_levels(8));
}

TEST(Amr, SurvivesRescaleMidRun) {
  charm::Runtime rt(runtime_config(8));
  Amr app(rt, small_config());
  app.driver().at_iteration(
      4, [](charm::Runtime& r) { r.ccs().request_rescale(4); });
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  EXPECT_EQ(rt.num_pes(), 4);

  // The mesh (and therefore total model cells) must match an undisturbed
  // run: refinement decisions are placement- and rescale-independent.
  charm::Runtime ref_rt(runtime_config(8));
  Amr ref(ref_rt, small_config());
  ref.start();
  ref_rt.run();
  EXPECT_DOUBLE_EQ(app.total_model_cells(), ref.total_model_cells());
}

TEST(Amr, PeriodicLbRecordsImbalanceMetrics) {
  charm::Runtime rt(runtime_config(4));
  Amr app(rt, small_config());
  app.driver().set_lb_period(3);
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  ASSERT_FALSE(rt.lb_history().empty());
  for (const auto& step : rt.lb_history()) {
    EXPECT_GE(step.pre_ratio, 1.0);
    EXPECT_GE(step.post_ratio, 1.0);
    EXPECT_EQ(step.objects, 16);
    // AtSync LB with all PEs available: the guard forbids regressions.
    EXPECT_LE(step.post_ratio, step.pre_ratio + 1e-12);
  }
}

TEST(AmrCalibration, ScalingCurveDecreasesWithReplicas) {
  // Compute-dominated sizing (the tiny small_config() is latency-bound and
  // legitimately does not strong-scale).
  AmrConfig config = small_config();
  config.blocks = 32;
  config.cells_per_block = 65536;
  const auto points = measure_scaling<Amr>(config, {1, 4, 16}, /*lb_period=*/4);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].time_per_step_s, points[2].time_per_step_s);
}

TEST(AmrCalibration, RescaleUnderImbalanceMigratesObjects) {
  const auto timing = measure_rescale<Amr>(small_config(), 8, 4, /*warmup=*/6);
  EXPECT_EQ(timing.old_pes, 8);
  EXPECT_EQ(timing.new_pes, 4);
  EXPECT_GT(timing.migrated_objects, 0);
  EXPECT_GT(timing.total(), 0.0);
}

TEST(AmrCalibration, LbProfileReportsImbalance) {
  const LbProfile profile =
      measure_lb_profile<Amr>(small_config(), /*replicas=*/4, /*lb_period=*/3);
  EXPECT_GT(profile.lb_steps, 0);
  EXPECT_GE(profile.pre_ratio, 1.0);
  EXPECT_GE(profile.post_ratio, 1.0);
  EXPECT_LE(profile.post_ratio, profile.pre_ratio + 1e-12);
}

}  // namespace
}  // namespace ehpc::apps
