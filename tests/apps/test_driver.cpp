#include "apps/driver.hpp"

#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"

namespace ehpc::apps {
namespace {

charm::RuntimeConfig pes(int n) {
  charm::RuntimeConfig cfg;
  cfg.num_pes = n;
  cfg.pes_per_node = 4;
  return cfg;
}

JacobiConfig tiny(int iters) {
  JacobiConfig cfg;
  cfg.grid_n = 64;
  cfg.blocks_x = 4;
  cfg.blocks_y = 4;
  cfg.max_real_block = 16;
  cfg.max_iterations = iters;
  return cfg;
}

TEST(IterationDriver, CompletionCallbackFiresOnce) {
  charm::Runtime rt(pes(2));
  Jacobi2D app(rt, tiny(5));
  int completions = 0;
  app.driver().set_on_complete([&] { ++completions; });
  app.start();
  rt.run();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(app.driver().finished());
}

TEST(IterationDriver, HooksFireAtExactIteration) {
  charm::Runtime rt(pes(2));
  Jacobi2D app(rt, tiny(8));
  std::vector<int> fired;
  app.driver().at_iteration(3, [&](charm::Runtime&) { fired.push_back(3); });
  app.driver().at_iteration(6, [&](charm::Runtime&) { fired.push_back(6); });
  app.start();
  rt.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 6}));
}

TEST(IterationDriver, HookFiresOnlyOnce) {
  // Even when the iteration re-runs after a failure rollback, a hook does
  // not fire twice.
  charm::Runtime rt(pes(2));
  Jacobi2D app(rt, tiny(10));
  int fired = 0;
  app.driver().set_disk_checkpoint_period(3);
  app.driver().at_iteration(4, [&](charm::Runtime& r) {
    ++fired;
    r.fail_and_recover();  // rolls back to iteration 3; 4 re-runs
  });
  app.start();
  rt.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(app.driver().finished());
}

TEST(IterationDriver, EndTimesMonotone) {
  charm::Runtime rt(pes(2));
  Jacobi2D app(rt, tiny(10));
  app.start();
  rt.run();
  const auto& times = app.driver().iteration_end_times();
  ASSERT_EQ(times.size(), 10u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(IterationDriver, RescaleIterationsRecorded) {
  charm::Runtime rt(pes(4));
  Jacobi2D app(rt, tiny(10));
  app.driver().at_iteration(4, [](charm::Runtime& r) { r.ccs().request_rescale(2); });
  app.start();
  rt.run();
  ASSERT_EQ(app.driver().rescale_iterations().size(), 1u);
  EXPECT_EQ(app.driver().rescale_iterations()[0], 4);
}

TEST(IterationDriver, LbPeriodPausesButCompletes) {
  charm::Runtime rt(pes(4));
  Jacobi2D with_lb(rt, tiny(9));
  with_lb.driver().set_lb_period(3);
  with_lb.start();
  rt.run();
  EXPECT_TRUE(with_lb.driver().finished());

  charm::Runtime rt2(pes(4));
  Jacobi2D without(rt2, tiny(9));
  without.start();
  rt2.run();
  EXPECT_GT(rt.now(), rt2.now());  // LB steps cost virtual time
}

// Recovery must leave resuming the app to the restart handler alone. The
// run is long and the downtime short, so a second resume from the
// interrupted code path would land mid-iteration and trip the next disk
// checkpoint's quiescence check.
charm::RuntimeConfig fast_recovery() {
  charm::RuntimeConfig cfg = pes(4);
  cfg.failure_detection_s = 1e-4;
  cfg.startup_alpha_s = 0.0;
  cfg.startup_per_pe_s = 0.0;
  return cfg;
}

JacobiConfig jacobi256() {
  JacobiConfig cfg;
  cfg.grid_n = 256;
  cfg.blocks_x = 4;
  cfg.blocks_y = 4;
  cfg.max_iterations = 200;
  return cfg;
}

TEST(IterationDriver, FailureFromHookResumesOnce) {
  charm::Runtime rt(fast_recovery());
  Jacobi2D app(rt, jacobi256());
  app.driver().set_disk_checkpoint_period(4);
  app.driver().at_iteration(10, [](charm::Runtime& r) { r.fail_and_recover(); });
  app.start();
  ASSERT_NO_THROW(rt.run());
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.recoveries(), 1);
  // Rolled back to iteration 8, so iterations 9 and 10 end twice, and the
  // re-run of 9 ends only after the downtime.
  const auto& times = app.driver().iteration_end_times();
  ASSERT_EQ(times.size(), 202u);
  EXPECT_GT(times[10] - times[9], 1e-4);
}

TEST(IterationDriver, FailureDuringDiskCheckpointResumesOnce) {
  charm::Runtime rt(fast_recovery());
  Jacobi2D app(rt, jacobi256());
  app.driver().set_disk_checkpoint_period(4);
  // Iteration 8's checkpoint starts right after this hook; the failure
  // lands inside its write window.
  app.driver().at_iteration(8, [](charm::Runtime& r) {
    r.schedule_external(r.now() + 1e-7, [](charm::Runtime& r2) { r2.fail_and_recover(); });
  });
  app.start();
  ASSERT_NO_THROW(rt.run());
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.recoveries(), 1);
  // The write being interrupted never completed, so the run rolls back to
  // iteration 4's checkpoint: iterations 5-8 end twice, and the re-run of 5
  // ends only after the downtime.
  const auto& times = app.driver().iteration_end_times();
  ASSERT_EQ(times.size(), 204u);
  EXPECT_GT(times[8] - times[7], 1e-4);
}

TEST(IterationDriver, RejectsBadArguments) {
  charm::Runtime rt(pes(2));
  JacobiConfig cfg = tiny(5);
  cfg.max_iterations = 5;
  Jacobi2D app(rt, cfg);
  EXPECT_THROW(app.driver().at_iteration(2, nullptr), PreconditionError);
  EXPECT_THROW(app.driver().set_disk_checkpoint_period(-1), PreconditionError);
}

}  // namespace
}  // namespace ehpc::apps
