// Golden pin of every checkpoint path of the runtime.
//
// Rescales checkpoint to shared memory, restart and restore; fault tolerance
// checkpoints to disk and recovers from it. Both paths share one writer, one
// reader, one restart and one I/O cost model, so these runs pin what the
// paths produce: the final virtual time, every iteration end time, every LB
// step's imbalance accounting, every rescale stage and the final mapping.
// The runtime is deterministic, so the values are pinned to the bit, as hex
// floats, under each of the three real load balancers.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "charm/runtime.hpp"

namespace ehpc::charm {
namespace {

struct Golden {
  double now = 0.0;
  std::vector<double> end_times;
  std::vector<double> lb_ratios;       ///< pre, post of each LB step
  std::vector<int> lb_migrated;        ///< migrations of each LB step
  std::vector<double> rescale_stages;  ///< lb, ckpt, restart, restore, bytes
  std::vector<int> rescale_pes;        ///< old, new, migrated of each rescale
  std::vector<PeId> mapping;
};

using Setup = std::function<void(apps::IterationDriver&)>;

Golden observe(const std::string& lb, int num_pes, int iterations,
               const Setup& setup) {
  RuntimeConfig cfg;
  cfg.num_pes = num_pes;
  cfg.pes_per_node = 4;
  cfg.load_balancer = lb;
  Runtime rt(cfg);
  apps::JacobiConfig jc;
  jc.grid_n = 256;
  jc.blocks_x = 4;
  jc.blocks_y = 4;
  jc.max_real_block = 32;
  jc.max_iterations = iterations;
  apps::Jacobi2D app(rt, jc);
  app.driver().set_disk_checkpoint_period(4);
  setup(app.driver());
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());

  Golden got;
  got.now = rt.now();
  got.end_times = app.driver().iteration_end_times();
  for (const auto& s : rt.lb_history()) {
    got.lb_ratios.push_back(s.pre_ratio);
    got.lb_ratios.push_back(s.post_ratio);
    got.lb_migrated.push_back(s.migrated);
  }
  for (const auto& t : rt.rescale_history()) {
    got.rescale_stages.insert(got.rescale_stages.end(),
                              {t.load_balance_s, t.checkpoint_s, t.restart_s,
                               t.restore_s, t.checkpoint_modeled_bytes});
    got.rescale_pes.insert(got.rescale_pes.end(),
                           {t.old_pes, t.new_pes, t.migrated_objects});
  }
  got.mapping = rt.mapping(app.array());
  return got;
}

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.end_times, want.end_times);
  EXPECT_EQ(got.lb_ratios, want.lb_ratios);
  EXPECT_EQ(got.lb_migrated, want.lb_migrated);
  EXPECT_EQ(got.rescale_stages, want.rescale_stages);
  EXPECT_EQ(got.rescale_pes, want.rescale_pes);
  EXPECT_EQ(got.mapping, want.mapping);
}

const std::vector<std::string> kStrategies{"greedy", "refine", "commrefine"};

/// 4 PEs, disk checkpoints every 4 iterations, a failure at iteration 10
/// that rolls back to iteration 8 on the checkpoint-time PE count. The
/// re-run of iterations 9-12 starts only once the downtime has passed.
Golden disk_recovery(const std::string& lb) {
  return observe(lb, 4, 12, [](apps::IterationDriver& d) {
    d.at_iteration(10, [](Runtime& r) { r.fail_and_recover(); });
  });
}

/// 8 PEs: shrink to 4 at iteration 1, expand back to 8 at 3, checkpoint at
/// 4 on 8 PEs, lose a node after 6 (recovery onto 4 PEs, back to 4),
/// checkpoint at 8 on 4 PEs, then lose PEs {0, 2} together after 10
/// (recovery onto 2 PEs, back to 8). Each failure lands 10 us after its
/// iteration ends, so every recovery's downtime shows in the end times.
Golden rescales_and_node_losses(const std::string& lb) {
  return observe(lb, 8, 14, [](apps::IterationDriver& d) {
    d.at_iteration(1, [](Runtime& r) { r.ccs().request_rescale(4); });
    d.at_iteration(3, [](Runtime& r) { r.ccs().request_rescale(8); });
    d.at_iteration(6, [](Runtime& r) {
      r.schedule_external(r.now() + 1e-5,
                          [](Runtime& r2) { r2.fail_and_recover(4); });
    });
    d.at_iteration(10, [](Runtime& r) {
      r.schedule_external(r.now() + 1e-5, [](Runtime& r2) {
        r2.fail_and_recover(std::vector<PeId>{0, 2});
      });
    });
  });
}

/// 4 PEs: the failure lands 10 us after iteration 6 ends, while the next
/// iteration's messages are in flight.
Golden in_flight_failure(const std::string& lb) {
  return observe(lb, 4, 12, [](apps::IterationDriver& d) {
    d.at_iteration(6, [](Runtime& r) {
      r.schedule_external(r.now() + 1e-5,
                          [](Runtime& r2) { r2.fail_and_recover(); });
    });
  });
}

// Jacobi's recovery LB sees equal checkpoint footprints, so the three
// strategies agree on every value of the two runs without a rescale.
TEST(CheckpointGolden, DiskRecoveryUnderEachStrategy) {
  const Golden want =
      {0x1.626f6f24fe8p+2,
       {0x1.21d72f15302ccp-10, 0x1.21d72f15302ccp-9, 0x1.b2c2c69fc842cp-9,
        0x1.21d72f15302c6p-8, 0x1.a27e049beda14p-8, 0x1.eaf3d06139ac4p-8,
        0x1.19b4ce1342dbcp-7, 0x1.3defb3f5e8e1bp-7, 0x1.7e431eb9479c9p-7,
        0x1.a27e049beda28p-7, 0x1.623916cc2a876p+2, 0x1.624b343f1bda4p+2,
        0x1.625d51b20d2d2p+2, 0x1.626f6f24fe8p+2},
       {0x1p+0, 0x1p+0},
       {0},
       {},
       {},
       {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}};
  for (const auto& lb : kStrategies) {
    SCOPED_TRACE(lb);
    expect_golden(disk_recovery(lb), want);
  }
}

TEST(CheckpointGolden, RescalesAndNodeLossesUnderEachStrategy) {
  const std::vector<Golden> want{
      // greedy
      {0x1.8596d190c2d92p+3,
       {0x1.bd016e38439dap-10, 0x1.0d442ab9657dp-1, 0x1.0dd51650f0159p-1,
        0x1.2bfc7ca4ea9bap+0, 0x1.2c87d58559652p+0, 0x1.2cf715e0e775fp+0,
        0x1.aca5c733817fdp+2, 0x1.acb7e4a672d2bp+2, 0x1.acca021964259p+2,
        0x1.acdc1f8c55787p+2, 0x1.acfc4941b727bp+2, 0x1.ad0e66b4a87a9p+2,
        0x1.855780f88d208p+3, 0x1.85615b701affcp+3, 0x1.856b35e7a8dfp+3,
        0x1.8575105f36be4p+3, 0x1.858cf71934f9ep+3, 0x1.8596d190c2d92p+3},
       {0x1p+0, 0x1p+0, 0x1p+1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.7fffffffffffep+0,
        0x1p+0},
       {8, 8, 8, 12},
       {0x1.5a4215cf1f377p-9, 0x1.e85d88c4c9734p-13, 0x1.0a3d70a3d70a4p-1,
        0x1.e85d88c4c9734p-13, 0x1.00cd8236eba06p+19, 0x1.5a4215cf1f377p-9,
        0x1.e85d88c4c9734p-13, 0x1.47ae147ae147bp-1, 0x1.e85d88c4c9734p-13,
        0x1.00cd8236eba06p+19},
       {8, 4, 8, 4, 8, 8},
       {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}},
      // refine
      {0x1.8596d88fc3326p+3,
       {0x1.bd016e38439dap-10, 0x1.0d442ab9657dp-1, 0x1.0dd51650f0159p-1,
        0x1.2bfc8f4ceb89cp+0, 0x1.2c87fad55b416p+0, 0x1.2cf74dd8ea405p+0,
        0x1.aca5d53182327p+2, 0x1.acb7f2a473855p+2, 0x1.acca101764d83p+2,
        0x1.acdc2d8a562b1p+2, 0x1.acfc573fb7da5p+2, 0x1.ad0e74b2a92d3p+2,
        0x1.855787f78d79cp+3, 0x1.8561626f1b59p+3, 0x1.856b3ce6a9384p+3,
        0x1.8575175e37178p+3, 0x1.858cfe1835532p+3, 0x1.8596d88fc3326p+3},
       {0x1p+0, 0x1p+0, 0x1p+1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.7fffffffffffep+0,
        0x1p+0},
       {8, 8, 8, 8},
       {0x1.5a4215cf1f377p-9, 0x1.e85d88c4c9734p-13, 0x1.0a3d70a3d70a4p-1,
        0x1.e85d88c4c9734p-13, 0x1.00cd8236eba06p+19, 0x1.5a4215cf1f377p-9,
        0x1.e85d88c4c9734p-13, 0x1.47ae147ae147bp-1, 0x1.e85d88c4c9734p-13,
        0x1.00cd8236eba06p+19},
       {8, 4, 8, 4, 8, 8},
       {0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}},
      // commrefine
      {0x1.8596d190c2d92p+3,
       {0x1.bd016e38439dap-10, 0x1.0d442ab9657dp-1, 0x1.0dd51650f0159p-1,
        0x1.2bfc7ca4ea9bap+0, 0x1.2c87d58559652p+0, 0x1.2cf715e0e775fp+0,
        0x1.aca5c733817fdp+2, 0x1.acb7e4a672d2bp+2, 0x1.acca021964259p+2,
        0x1.acdc1f8c55787p+2, 0x1.acfc4941b727bp+2, 0x1.ad0e66b4a87a9p+2,
        0x1.855780f88d208p+3, 0x1.85615b701affcp+3, 0x1.856b35e7a8dfp+3,
        0x1.8575105f36be4p+3, 0x1.858cf71934f9ep+3, 0x1.8596d190c2d92p+3},
       {0x1p+0, 0x1p+0, 0x1p+1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.7fffffffffffep+0,
        0x1p+0},
       {8, 8, 8, 8},
       {0x1.5a4215cf1f377p-9, 0x1.e85d88c4c9734p-13, 0x1.0a3d70a3d70a4p-1,
        0x1.e85d88c4c9734p-13, 0x1.00cd8236eba06p+19, 0x1.5a4215cf1f377p-9,
        0x1.e85d88c4c9734p-13, 0x1.47ae147ae147bp-1, 0x1.e85d88c4c9734p-13,
        0x1.00cd8236eba06p+19},
       {8, 4, 8, 4, 8, 8},
       {0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}}};
  ASSERT_EQ(want.size(), kStrategies.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(kStrategies[i]);
    expect_golden(rescales_and_node_losses(kStrategies[i]), want[i]);
  }
}

TEST(CheckpointGolden, InFlightFailureUnderEachStrategy) {
  const Golden want =
      {0x1.626f991669914p+2,
       {0x1.21d72f15302ccp-10, 0x1.21d72f15302ccp-9, 0x1.b2c2c69fc842cp-9,
        0x1.21d72f15302c6p-8, 0x1.a27e049beda14p-8, 0x1.eaf3d06139ac4p-8,
        0x1.61e2beaf5ff0cp+2, 0x1.61f4dc225143ap+2, 0x1.6206f99542968p+2,
        0x1.6219170833e96p+2, 0x1.623940bd9598ap+2, 0x1.624b5e3086eb8p+2,
        0x1.625d7ba3783e6p+2, 0x1.626f991669914p+2},
       {0x1p+0, 0x1p+0},
       {0},
       {},
       {},
       {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}};
  for (const auto& lb : kStrategies) {
    SCOPED_TRACE(lb);
    expect_golden(in_flight_failure(lb), want);
  }
}

}  // namespace
}  // namespace ehpc::charm
