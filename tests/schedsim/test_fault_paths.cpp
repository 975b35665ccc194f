// Regression tests for the fault/recovery paths of the shared ExecHarness:
// the crash/checkpoint virtual-time tie contract (a checkpoint becomes the
// rollback target only once its write completes), the straggler slowdown
// lifecycle across crashes/evictions/budget kills, and the deterministic
// victim tie-break for same-timestamp events.

#include <gtest/gtest.h>

#include "elastic/policy.hpp"
#include "schedsim/calibrate.hpp"
#include "schedsim/exec.hpp"
#include "schedsim/simulator.hpp"
#include "sim/simulation.hpp"

namespace ehpc::schedsim {
namespace {

using elastic::JobClass;
using elastic::JobId;
using elastic::PolicyMode;

SubmittedJob job(int id, JobClass cls, int priority, double submit) {
  SubmittedJob j;
  j.spec = elastic::spec_for_class(cls, id, priority);
  j.job_class = cls;
  j.submit_time = submit;
  return j;
}

elastic::PolicyConfig rigid_min() {
  elastic::PolicyConfig cfg;
  cfg.mode = PolicyMode::kRigidMin;
  return cfg;
}

/// The checkpoint write pause of one medium job at its rigid-min width,
/// under `plan` (the window during which the snapshot is not yet durable).
double write_pause(const FaultPlan& plan) {
  const auto workloads = analytic_workloads();
  const auto& w = workloads.at(JobClass::kMedium);
  const int replicas =
      elastic::spec_for_class(JobClass::kMedium, 0, 3).min_replicas;
  return w.rescale.checkpoint_s(replicas) * plan.disk_factor;
}

SimResult run_single_medium(const FaultPlan& plan) {
  SchedSimulator sim(64, rigid_min(), analytic_workloads());
  sim.set_fault_plan(plan);
  return sim.run({job(0, JobClass::kMedium, 3, 0.0)});
}

// ---- crash/checkpoint tie contract (the torn-checkpoint bug) ----

TEST(CheckpointTie, CrashInsideWriteWindowRollsBackToPreviousCheckpoint) {
  // The tick at t=100 snapshots progress and starts writing; the crash lands
  // strictly inside the write window, so the snapshot died with the process
  // and the job must roll back to its previous durable checkpoint (here: the
  // start). The harness used to stage the snapshot as the rollback target at
  // tick time, losing zero work for a crash mid-write.
  FaultPlan plan;
  plan.checkpoint_period_s = 100.0;
  const double pause = write_pause(plan);
  ASSERT_GT(pause, 0.0);
  plan.crash_times = {100.0 + pause / 2.0};
  const SimResult result = run_single_medium(plan);
  ASSERT_EQ(result.jobs.size(), 1u);
  // All 100 s of pre-tick progress are lost, not zero.
  EXPECT_NEAR(result.jobs[0].lost_work_s, 100.0, 1e-6);
}

TEST(CheckpointTie, CrashAtExactWriteCompletionUsesTheFreshCheckpoint) {
  // A crash at exactly the instant the checkpoint write completes rolls back
  // to the checkpoint completing *at* that instant, not the previous one:
  // the completion timestamp is inclusive.
  FaultPlan plan;
  plan.checkpoint_period_s = 100.0;
  plan.crash_times = {100.0 + write_pause(plan)};
  const SimResult result = run_single_medium(plan);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_NEAR(result.jobs[0].lost_work_s, 0.0, 1e-9);
}

TEST(CheckpointTie, CrashTyingTheTickStartKeepsThePreviousCheckpoint) {
  // Crash and checkpoint tick at the same virtual timestamp: events at equal
  // times pop in schedule order and fault events are scheduled before the
  // checkpoint chain, so the crash fires first and the tick never begins for
  // the now-paused victim. The rollback target is the previous completed
  // checkpoint (t=100); work since it is lost.
  FaultPlan plan;
  plan.checkpoint_period_s = 100.0;
  plan.crash_times = {200.0};
  const double pause = write_pause(plan);
  const SimResult result = run_single_medium(plan);
  ASSERT_EQ(result.jobs.size(), 1u);
  // Progress between the end of the t=100 write and the crash at t=200.
  EXPECT_NEAR(result.jobs[0].lost_work_s, 100.0 - pause, 1e-6);
}

// ---- straggler slowdown lifecycle ----

TEST(StragglerLifecycle, CrashReplacesTheStragglerProcess) {
  // A crash restarts every process of the job, so the straggler PE dies with
  // it: after recovery the job must run at full speed, making its completion
  // time identical to a crash-only run. The slowdown used to silently
  // survive the crash and drag the restarted job.
  auto completion_with = [](bool straggler) {
    FaultPlan plan;
    plan.crash_times = {60.0};
    if (straggler) {
      plan.straggler_at_s = 50.0;
      plan.straggler_factor = 3.0;
    }
    const SimResult result = run_single_medium(plan);
    return result.jobs.at(0).complete_time;
  };
  EXPECT_DOUBLE_EQ(completion_with(true), completion_with(false));
}

TEST(StragglerLifecycle, EvictionReplacesTheStragglerProcess) {
  auto completion_with = [](bool straggler) {
    FaultPlan plan;
    plan.evict_times = {60.0};
    if (straggler) {
      plan.straggler_at_s = 50.0;
      plan.straggler_factor = 3.0;
    }
    const SimResult result = run_single_medium(plan);
    return result.jobs.at(0).complete_time;
  };
  EXPECT_DOUBLE_EQ(completion_with(true), completion_with(false));
}

/// Minimal instant-action harness (the SimHarness hooks, trimmed) that
/// exposes per-job exec state so lifecycle tests can inspect fault fields
/// the public result does not surface.
class InspectHarness final : public ExecHarness {
 public:
  using ExecHarness::ExecHarness;
  const JobExec& exec_of(JobId id) { return exec(id); }

 private:
  void start_job(JobId id, int replicas) override {
    JobExec& e = exec(id);
    e.started = true;
    e.replicas = replicas;
    e.record.start_time = sim().now();
    e.accrue_from = sim().now();
    schedule_completion(id);
  }
  // Rigid-min single-job runs never rescale.
  void shrink_job(JobId, int) override { FAIL() << "unexpected shrink"; }
  void expand_job(JobId, int) override { FAIL() << "unexpected expand"; }
};

TEST(StragglerLifecycle, BudgetKillClearsTheStragglerState) {
  // The max_failed_nodes budget kills the straggling job outright; the
  // slowdown must not outlive the job's processes (it used to persist on the
  // dead exec, double-charging any later accounting against it).
  FaultPlan plan;
  plan.straggler_at_s = 50.0;
  plan.straggler_factor = 3.0;
  plan.crash_times = {60.0};
  plan.max_failed_nodes = 0;

  sim::Simulation sim;
  const auto workloads = analytic_workloads();
  InspectHarness harness(sim, 64, rigid_min(), workloads);
  harness.set_fault_plan(plan);
  const SimResult result = harness.run({job(0, JobClass::kMedium, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].failed);
  EXPECT_DOUBLE_EQ(harness.exec_of(0).slowdown, 1.0);
}

TEST(StragglerLifecycle, CrashClearsTheSlowdownOnTheExec) {
  // Direct state check of the crash path (completion-time equality above is
  // the behavioural symptom; this pins the field itself).
  FaultPlan plan;
  plan.straggler_at_s = 50.0;
  plan.straggler_factor = 3.0;
  plan.crash_times = {60.0};

  sim::Simulation sim;
  const auto workloads = analytic_workloads();
  InspectHarness harness(sim, 64, rigid_min(), workloads);
  harness.set_fault_plan(plan);
  const SimResult result = harness.run({job(0, JobClass::kMedium, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].failed);
  EXPECT_DOUBLE_EQ(harness.exec_of(0).slowdown, 1.0);
}

// ---- same-timestamp victim determinism ----

TEST(VictimTieBreak, SameTimestampCrashesReevaluateTheVictimInPlanOrder) {
  // Two crashes at the identical virtual time are applied in plan order and
  // each re-picks its victim (widest running job, ties by lowest id). Both
  // hit the wide job here — its width is unchanged by the rollback — so with
  // a budget of 1 the second same-instant crash kills it while the narrow
  // job survives untouched.
  FaultPlan plan;
  plan.crash_times = {60.0, 60.0};
  plan.max_failed_nodes = 1;
  SchedSimulator sim(64, rigid_min(), analytic_workloads());
  sim.set_fault_plan(plan);
  const SimResult result = sim.run({job(0, JobClass::kXLarge, 3, 0.0),
                                    job(1, JobClass::kSmall, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_TRUE(result.jobs[0].failed);
  EXPECT_FALSE(result.jobs[1].failed);
  EXPECT_EQ(result.metrics.jobs_failed, 1.0);
  EXPECT_EQ(result.metrics.failures, 2.0);
}

}  // namespace
}  // namespace ehpc::schedsim
