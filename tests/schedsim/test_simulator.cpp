#include "schedsim/simulator.hpp"

#include <gtest/gtest.h>

#include "schedsim/calibrate.hpp"

namespace ehpc::schedsim {
namespace {

using elastic::JobClass;
using elastic::PolicyConfig;
using elastic::PolicyMode;

SubmittedJob job(int id, JobClass cls, int priority, double submit) {
  SubmittedJob j;
  j.spec = elastic::spec_for_class(cls, id, priority);
  j.job_class = cls;
  j.submit_time = submit;
  return j;
}

PolicyConfig cfg(PolicyMode mode, double gap = 180.0) {
  PolicyConfig c;
  c.mode = mode;
  c.rescale_gap_s = gap;
  return c;
}

TEST(SchedSimulator, SingleJobRunsAtMaxAndMatchesModel) {
  auto workloads = analytic_workloads();
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  auto result = sim.run({job(0, JobClass::kMedium, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  const auto& w = workloads.at(JobClass::kMedium);
  EXPECT_DOUBLE_EQ(result.jobs[0].start_time, 0.0);
  EXPECT_NEAR(result.jobs[0].complete_time, w.runtime_at(w.max_replicas), 1e-6);
  EXPECT_EQ(result.rescale_count, 0);
}

TEST(SchedSimulator, MinPolicyRunsSlowerThanMaxForOneJob) {
  auto workloads = analytic_workloads();
  const auto mix = std::vector<SubmittedJob>{job(0, JobClass::kLarge, 3, 0.0)};
  SchedSimulator min_sim(64, cfg(PolicyMode::kRigidMin), workloads);
  SchedSimulator max_sim(64, cfg(PolicyMode::kRigidMax), workloads);
  EXPECT_GT(min_sim.run(mix).metrics.total_time_s,
            max_sim.run(mix).metrics.total_time_s);
}

TEST(SchedSimulator, ElasticShrinksForHighPriorityArrival) {
  auto workloads = analytic_workloads();
  SchedSimulator sim(64, cfg(PolicyMode::kElastic, 0.0), workloads);
  // Two large jobs fill the cluster (the later one is the eligible victim —
  // Fig. 2 protects runningJobs[0]); a high-priority xlarge arrival forces a
  // shrink.
  auto result = sim.run({job(0, JobClass::kLarge, 1, 0.0),
                         job(1, JobClass::kLarge, 1, 1.0),
                         job(2, JobClass::kXLarge, 5, 10.0)});
  EXPECT_GE(result.rescale_count, 1);
  // The high-priority job started long before the victims finished.
  EXPECT_LT(result.jobs[2].start_time, result.jobs[0].complete_time);
}

TEST(SchedSimulator, MoldableNeverRescales) {
  auto workloads = analytic_workloads();
  SchedSimulator sim(64, cfg(PolicyMode::kMoldable, 0.0), workloads);
  JobMixGenerator gen(3);
  auto result = sim.run(gen.generate(12, 60.0));
  EXPECT_EQ(result.rescale_count, 0);
}

TEST(SchedSimulator, AllJobsCompleteUnderEveryPolicy) {
  auto workloads = analytic_workloads();
  JobMixGenerator gen(17);
  const auto mix = gen.generate(16, 90.0);
  for (auto mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                    PolicyMode::kMoldable, PolicyMode::kElastic}) {
    SchedSimulator sim(64, cfg(mode), workloads);
    auto result = sim.run(mix);
    EXPECT_EQ(result.jobs.size(), mix.size()) << to_string(mode);
    for (const auto& rec : result.jobs) {
      EXPECT_GE(rec.start_time, rec.submit_time);
      EXPECT_GT(rec.complete_time, rec.start_time);
    }
  }
}

TEST(SchedSimulator, DeterministicRuns) {
  auto workloads = analytic_workloads();
  JobMixGenerator gen(5);
  const auto mix = gen.generate(10, 45.0);
  SchedSimulator a(64, cfg(PolicyMode::kElastic), workloads);
  SchedSimulator b(64, cfg(PolicyMode::kElastic), workloads);
  const auto ra = a.run(mix);
  const auto rb = b.run(mix);
  EXPECT_DOUBLE_EQ(ra.metrics.total_time_s, rb.metrics.total_time_s);
  EXPECT_DOUBLE_EQ(ra.metrics.utilization, rb.metrics.utilization);
  EXPECT_EQ(ra.rescale_count, rb.rescale_count);
}

TEST(SchedSimulator, UtilizationWithinBounds) {
  auto workloads = analytic_workloads();
  JobMixGenerator gen(23);
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  auto result = sim.run(gen.generate(16, 90.0));
  EXPECT_GT(result.metrics.utilization, 0.0);
  EXPECT_LE(result.metrics.utilization, 1.0);
}

TEST(SchedSimulator, RescaleOverheadExtendsRuntime) {
  // A shrunk job must take strictly longer than running undisturbed at its
  // best (max-replica) configuration.
  auto workloads = analytic_workloads();
  SchedSimulator sim(64, cfg(PolicyMode::kElastic, 0.0), workloads);
  auto result = sim.run({job(0, JobClass::kLarge, 1, 0.0),
                         job(1, JobClass::kLarge, 1, 1.0),
                         job(2, JobClass::kXLarge, 5, 10.0)});
  EXPECT_GE(result.rescale_count, 1);
  const auto& w = workloads.at(JobClass::kLarge);
  // Job 1 is the shrink victim: its span exceeds the undisturbed runtime at
  // its starting allocation (32 = max for large).
  EXPECT_GT(result.jobs[1].complete_time - result.jobs[1].start_time,
            w.runtime_at(w.max_replicas) * 1.001);
}

TEST(SchedSimulator, BatchResultCarriesNoStepSeries) {
  // Fig. 9's step series are the cluster substrate's; the pure simulator
  // records none, but its metrics still see the job's utilization.
  auto workloads = analytic_workloads();
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  auto result = sim.run({job(0, JobClass::kSmall, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_GT(result.metrics.utilization, 0.0);
  EXPECT_TRUE(result.utilization.empty());
  EXPECT_TRUE(result.replicas.empty());
}

TEST(SchedSimulator, CalibratedWorkloadsAlsoRun) {
  auto workloads = calibrated_workloads();
  JobMixGenerator gen(2);
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  auto result = sim.run(gen.generate(8, 90.0));
  EXPECT_EQ(result.jobs.size(), 8u);
  EXPECT_GT(result.metrics.utilization, 0.0);
}

}  // namespace
}  // namespace ehpc::schedsim
