#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"
#include "charm/runtime.hpp"

namespace ehpc::charm {
namespace {

apps::JacobiConfig small_jacobi(int iters) {
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

TEST(FaultTolerance, DiskCheckpointsTakenPeriodically) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  // Checkpoints after iterations 4 and 8 (12 ends the run before another).
  EXPECT_EQ(rt.disk_checkpoints_taken(), 2);
  EXPECT_TRUE(rt.has_disk_checkpoint());
}

TEST(FaultTolerance, DiskCheckpointAddsDowntime) {
  auto elapsed = [](int period) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(period);
    app.start();
    rt.run();
    return rt.now();
  };
  EXPECT_GT(elapsed(4), elapsed(0));
}

TEST(FaultTolerance, RecoveryPreservesNumerics) {
  auto final_residual = [](bool fail) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(10, [](Runtime& r) { r.fail_and_recover(); });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultTolerance, RecoveryRollsBackToCheckpoint) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  app.driver().at_iteration(10, [](Runtime& r) { r.fail_and_recover(); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.recoveries(), 1);
  // Iterations 9..10 re-executed after rolling back to iteration 8: the
  // reduction fires more times than the iteration count.
  EXPECT_GT(app.driver().iteration_end_times().size(), 12u);
}

TEST(FaultTolerance, RecoveryChargesDowntime) {
  auto elapsed = [](bool fail) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(10, [](Runtime& r) { r.fail_and_recover(); });
    }
    app.start();
    rt.run();
    return rt.now();
  };
  const double with = elapsed(true);
  const double without = elapsed(false);
  // At least the failure-detection delay plus restart must be added.
  EXPECT_GT(with, without + 5.0);
}

TEST(FaultTolerance, FailureWithoutCheckpointThrows) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(6));
  app.driver().at_iteration(2, [](Runtime& r) {
    EXPECT_THROW(r.fail_and_recover(), PreconditionError);
  });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
}

TEST(FaultTolerance, RecoveryAfterRescaleUsesCheckpointPeCount) {
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi(14));
  app.driver().set_disk_checkpoint_period(4);
  // Checkpoint at 4 and 8 (at 8 PEs), shrink at 9, fail at 12: recovery
  // restores the PE count in force at the last checkpoint (8).
  app.driver().at_iteration(9, [](Runtime& r) { r.ccs().request_rescale(4); });
  app.driver().at_iteration(12, [](Runtime& r) { r.fail_and_recover(); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 8);
  EXPECT_EQ(rt.recoveries(), 1);
}

TEST(FaultTolerance, NodeLossRecoveryRemapsOntoSurvivingPes) {
  // Checkpoint at 8 PEs, then lose a whole node (4 PEs with pes_per_node=4):
  // recovery restarts on the 4 survivors. Every element checkpointed on PEs
  // 4..7 must be re-placed onto a surviving PE — the recovery path used to
  // restore the checkpoint-time placement unconditionally, leaving elements
  // on PEs that no longer exist.
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  app.driver().at_iteration(6, [](Runtime& r) { r.fail_and_recover(4); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 4);
  EXPECT_EQ(rt.recoveries(), 1);
  for (ElementId e = 0; e < rt.num_elements(0); ++e) {
    EXPECT_LT(rt.pe_of(0, e), rt.num_pes()) << "element " << e;
    EXPECT_GE(rt.pe_of(0, e), 0) << "element " << e;
  }
}

TEST(FaultTolerance, NodeLossRecoveryBalancesSurvivors) {
  // The re-placement goes through the LB seam, not a modulo fold: with 16
  // equal-footprint blocks on 4 survivors, no survivor ends up hosting more
  // than half the array.
  Runtime rt(pes(8));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  app.driver().at_iteration(6, [](Runtime& r) { r.fail_and_recover(4); });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  std::vector<int> per_pe(4, 0);
  for (ElementId e = 0; e < rt.num_elements(0); ++e) {
    per_pe[static_cast<std::size_t>(rt.pe_of(0, e))]++;
  }
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_GT(per_pe[static_cast<std::size_t>(pe)], 0) << "pe " << pe;
    EXPECT_LE(per_pe[static_cast<std::size_t>(pe)], 8) << "pe " << pe;
  }
}

TEST(FaultTolerance, NodeLossRecoveryPreservesNumerics) {
  auto final_residual = [](bool fail) {
    Runtime rt(pes(8));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(6, [](Runtime& r) { r.fail_and_recover(4); });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultRaces, FailureWithMessagesInFlightRetiresDeadEvents) {
  // Inject the failure shortly *after* an iteration boundary, while the next
  // iteration's broadcasts and halo exchanges are still in flight. Recovery
  // must retire those dead-configuration arrival events through the PE epoch
  // guard instead of delivering them into the restarted configuration, and
  // the re-executed iterations must reproduce the failure-free numerics.
  auto final_residual = [](bool fail) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(6, [](Runtime& r) {
        r.schedule_external(r.now() + 1e-5,
                            [](Runtime& r2) { r2.fail_and_recover(); });
      });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    EXPECT_EQ(rt.recoveries(), fail ? 1 : 0);
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultRaces, SecondFailureBeforeRestartCompletes) {
  // The second failure lands inside the first recovery's downtime window
  // (failure detection alone is 5 s), before its restart event has fired.
  // The stale restart must be retired by the epoch guard — only the second
  // recovery's restart may resume the application, exactly once.
  auto final_residual = [](bool fail) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(6, [](Runtime& r) {
        r.fail_and_recover();
        r.schedule_external(r.now() + 1.0,
                            [](Runtime& r2) { r2.fail_and_recover(); });
      });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    EXPECT_EQ(rt.recoveries(), fail ? 2 : 0);
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultRaces, FailureDuringRescaleDowntimeSupersedesTheRescale) {
  // A node dies while a 8 -> 4 rescale is mid-flight (inside its modeled
  // checkpoint/restart/restore window). The recovery resets to the disk
  // checkpoint's PE count and the rescale's stale resume event is retired;
  // the run must still finish with correct numerics.
  auto final_residual = [](bool fail) {
    Runtime rt(pes(8));
    apps::Jacobi2D app(rt, small_jacobi(14));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(9, [](Runtime& r) {
        r.ccs().request_rescale(4);
        // The rescale starts at this same boundary; its downtime is far
        // longer than 1e-5 s, so the failure lands inside the window.
        r.schedule_external(r.now() + 1e-5,
                            [](Runtime& r2) { r2.fail_and_recover(); });
      });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    if (fail) {
      EXPECT_EQ(rt.recoveries(), 1);
      EXPECT_EQ(rt.num_pes(), 8);  // checkpoint-time PE count, not the target
    }
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultRaces, FailureInsideEntryMethodIsAContractViolation) {
  // fail_and_recover destroys the executing element under its own feet; the
  // runtime forbids calling it from inside an entry method even when a disk
  // checkpoint exists.
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  bool checked = false;
  app.driver().at_iteration(6, [&checked](Runtime& r) {
    r.send(0, 0, 8, [&checked](Chare&, Runtime& r2) {
      EXPECT_THROW(r2.fail_and_recover(), PreconditionError);
      checked = true;
    });
  });
  app.start();
  rt.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(app.driver().finished());
}

TEST(FaultTolerance, CorrelatedLossRemapsSurvivorsPreservingOrder) {
  // Lose PEs {1, 2} of 4 together (one failure domain): survivors {0, 3}
  // renumber to {0, 1} with their relative order preserved, and every
  // element must land on a surviving PE.
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  app.driver().at_iteration(6, [](Runtime& r) {
    r.fail_and_recover(std::vector<PeId>{1, 2});
  });
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.num_pes(), 2);
  EXPECT_EQ(rt.recoveries(), 1);
  for (ElementId e = 0; e < rt.num_elements(0); ++e) {
    EXPECT_GE(rt.pe_of(0, e), 0) << "element " << e;
    EXPECT_LT(rt.pe_of(0, e), 2) << "element " << e;
  }
}

TEST(FaultTolerance, CorrelatedLossRecoveryPreservesNumerics) {
  auto final_residual = [](bool fail) {
    Runtime rt(pes(8));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      // A non-contiguous failed set: the remap must renumber around holes.
      app.driver().at_iteration(6, [](Runtime& r) {
        r.fail_and_recover(std::vector<PeId>{0, 2, 5});
      });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    if (fail) {
      EXPECT_EQ(rt.num_pes(), 5);
    }
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(final_residual(true), final_residual(false));
}

TEST(FaultTolerance, CorrelatedLossValidatesTheFailedSet) {
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(12));
  app.driver().set_disk_checkpoint_period(4);
  bool checked = false;
  app.driver().at_iteration(6, [&checked](Runtime& r) {
    // Duplicates, out-of-range PEs, an empty set and a set with no
    // survivor are all contract violations.
    EXPECT_THROW(r.fail_and_recover(std::vector<PeId>{1, 1}),
                 PreconditionError);
    EXPECT_THROW(r.fail_and_recover(std::vector<PeId>{4}),
                 PreconditionError);
    EXPECT_THROW(r.fail_and_recover(std::vector<PeId>{-1}),
                 PreconditionError);
    EXPECT_THROW(r.fail_and_recover(std::vector<PeId>{}),
                 PreconditionError);
    EXPECT_THROW(r.fail_and_recover(std::vector<PeId>{0, 1, 2, 3}),
                 PreconditionError);
    checked = true;
  });
  app.start();
  rt.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(app.driver().finished());
  EXPECT_EQ(rt.recoveries(), 0);
}

TEST(FaultTolerance, DiskSlowerThanSharedMemory) {
  // The disk checkpoint of the same state must cost more virtual time than
  // the in-memory rescale checkpoint stage. An expand checkpoints before it
  // balances, so it writes the same elements from the same PEs as the disk
  // checkpoint taken just before it.
  Runtime rt(pes(4));
  apps::Jacobi2D app(rt, small_jacobi(4));
  double disk_stage = -1.0;
  rt.disk_checkpoint_then([&disk_stage](Runtime& r) { disk_stage = r.now(); });
  rt.run();
  rt.ccs().request_rescale(8);
  ASSERT_TRUE(rt.poll_rescale());
  ASSERT_EQ(rt.rescale_history().size(), 1u);
  const double shm_stage = rt.rescale_history().front().checkpoint_s;
  EXPECT_GT(shm_stage, 0.0);
  EXPECT_GT(disk_stage, shm_stage);
}

// A disk checkpoint becomes the recovery target only when its write
// completes. A failure strictly inside the write window rolls back to the
// previous checkpoint: here iteration 8's write dies 0.1 us in, so the run
// resumes from iteration 4 and iterations 5-8 end twice.
TEST(FaultRaces, FailureInsideDiskWriteRollsBackToThePreviousCheckpoint) {
  auto run = [](bool fail) {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(12));
    app.driver().set_disk_checkpoint_period(4);
    if (fail) {
      app.driver().at_iteration(8, [](Runtime& r) {
        r.schedule_external(r.now() + 1e-7,
                            [](Runtime& r2) { r2.fail_and_recover(); });
      });
    }
    app.start();
    rt.run();
    EXPECT_TRUE(app.driver().finished());
    EXPECT_EQ(rt.recoveries(), fail ? 1 : 0);
    // Iteration 8's first write never completed, so it is not counted.
    EXPECT_EQ(rt.disk_checkpoints_taken(), 2);
    EXPECT_EQ(app.driver().iteration_end_times().size(), fail ? 16u : 12u);
    return app.residual();
  };
  EXPECT_DOUBLE_EQ(run(true), run(false));
}

// With no earlier checkpoint to fall back on, the same in-window failure is
// unrecoverable; at exactly the completion instant (inclusive) the new
// checkpoint is already the recovery target.
TEST(FaultRaces, DiskWriteCommitsAtItsCompletionInstant) {
  const double done = [] {
    Runtime rt(pes(4));
    apps::Jacobi2D app(rt, small_jacobi(4));
    double at = -1.0;
    rt.disk_checkpoint_then([&at](Runtime& r) { at = r.now(); });
    rt.run();
    return at;
  }();
  ASSERT_GT(done, 0.0);

  Runtime inside(pes(4));
  apps::Jacobi2D inside_app(inside, small_jacobi(4));
  bool threw = false;
  inside.schedule_external(done / 2, [&threw](Runtime& r) {
    EXPECT_FALSE(r.has_disk_checkpoint());
    try {
      r.fail_and_recover();
    } catch (const PreconditionError&) {
      threw = true;
    }
  });
  inside.disk_checkpoint_then([](Runtime&) {});
  inside.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(inside.recoveries(), 0);
  EXPECT_TRUE(inside.has_disk_checkpoint());  // the write still completed

  // Scheduled before the write starts, the failure event runs ahead of the
  // write's own completion event at the same instant.
  Runtime at_end(pes(4));
  apps::Jacobi2D at_end_app(at_end, small_jacobi(4));
  at_end.schedule_external(done, [](Runtime& r) { r.fail_and_recover(); });
  bool resumed = false;
  at_end.disk_checkpoint_then([&resumed](Runtime&) { resumed = true; });
  EXPECT_NO_THROW(at_end.run());
  EXPECT_EQ(at_end.recoveries(), 1);
  EXPECT_FALSE(resumed);  // the recovery's restart handler resumes instead
}

}  // namespace
}  // namespace ehpc::charm
