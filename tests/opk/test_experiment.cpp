#include "opk/experiment.hpp"

#include <gtest/gtest.h>

#include "schedsim/calibrate.hpp"
#include "schedsim/simulator.hpp"

#include "../trace/vector_trace_source.hpp"

namespace ehpc::opk {
namespace {

using elastic::JobClass;
using elastic::PolicyMode;
using schedsim::SubmittedJob;

SubmittedJob job(int id, JobClass cls, int priority, double submit) {
  SubmittedJob j;
  j.spec = elastic::spec_for_class(cls, id, priority);
  j.job_class = cls;
  j.submit_time = submit;
  return j;
}

ExperimentConfig config(PolicyMode mode, double gap = 180.0) {
  ExperimentConfig cfg;
  cfg.policy.mode = mode;
  cfg.policy.rescale_gap_s = gap;
  return cfg;
}

TEST(ClusterExperiment, SingleJobIncludesStartupOverheads) {
  auto workloads = schedsim::analytic_workloads();
  ClusterExperiment exp(config(PolicyMode::kElastic), workloads);
  auto result = exp.run({job(0, JobClass::kMedium, 3, 0.0)});
  ASSERT_EQ(result.jobs.size(), 1u);
  // Unlike the simulator, the response time covers scheduling latency,
  // reconcile latency and pod startup.
  EXPECT_GT(result.jobs[0].start_time, 0.5);
  EXPECT_LT(result.jobs[0].start_time, 30.0);
}

TEST(ClusterExperiment, ActualSlowerThanSimulationForSameMix) {
  auto workloads = schedsim::analytic_workloads();
  const std::vector<SubmittedJob> mix{job(0, JobClass::kMedium, 3, 0.0),
                                      job(1, JobClass::kSmall, 2, 30.0),
                                      job(2, JobClass::kLarge, 4, 60.0)};
  schedsim::SchedSimulator sim(64, config(PolicyMode::kElastic).policy,
                               workloads);
  const auto simulated = sim.run(mix);
  ClusterExperiment exp(config(PolicyMode::kElastic), workloads);
  const auto actual = exp.run(mix);
  EXPECT_GE(actual.metrics.total_time_s, simulated.metrics.total_time_s);
  // But not pathologically so: overheads are seconds, jobs run for minutes.
  EXPECT_LT(actual.metrics.total_time_s,
            simulated.metrics.total_time_s * 1.5);
}

TEST(ClusterExperiment, RescaleBeforePodsReadyIsDeferredNotFatal) {
  // With rescale_gap 0, the policy can rescale a job whose pods are still
  // scheduling (start_time is seconds after the decision on this
  // substrate). The harness must park the target until readiness — it used
  // to trip `exec.started` preconditions — and overlapping handshakes must
  // be able to queue multiple ready-waiters on one job. This mix (back-to-
  // back bursts of short jobs around a big one) reproduces the original
  // crash seen with the amr_rescale scenario at rescale_gap=0.
  auto workloads = schedsim::analytic_workloads();
  // Short jobs: done in ~a minute, so starts/rescales/completions overlap
  // with pod startup of later submissions.
  for (auto& [cls, w] : workloads) w.total_steps = 2000;
  ClusterExperiment exp(config(PolicyMode::kElastic, 0.0), workloads);
  std::vector<SubmittedJob> mix;
  const JobClass classes[] = {JobClass::kXLarge, JobClass::kSmall,
                              JobClass::kLarge, JobClass::kMedium};
  for (int i = 0; i < 12; ++i) {
    mix.push_back(job(i, classes[i % 4], 1 + (i * 3) % 5, 1.0 * i));
  }
  const auto result = exp.run(mix);
  ASSERT_EQ(result.jobs.size(), 12u);
  EXPECT_GT(result.rescale_count, 0);
}

TEST(ClusterExperiment, ElasticRescalesOnCluster) {
  auto workloads = schedsim::analytic_workloads();
  ClusterExperiment exp(config(PolicyMode::kElastic, 0.0), workloads);
  // Two large jobs fill the cluster; job 1 is the unprotected victim for
  // the high-priority xlarge arrival.
  auto result = exp.run({job(0, JobClass::kLarge, 1, 0.0),
                         job(1, JobClass::kLarge, 1, 1.0),
                         job(2, JobClass::kXLarge, 5, 30.0)});
  EXPECT_GE(result.rescale_count, 1);
  EXPECT_EQ(result.jobs.size(), 3u);
}

TEST(ClusterExperiment, PodsAllGoneAfterRun) {
  auto workloads = schedsim::analytic_workloads();
  ClusterExperiment exp(config(PolicyMode::kMoldable), workloads);
  exp.run({job(0, JobClass::kSmall, 1, 0.0), job(1, JobClass::kMedium, 2, 10.0)});
  EXPECT_EQ(exp.cluster().used_cpus(), 0);
}

TEST(ClusterExperiment, AllPoliciesFinishAMix) {
  auto workloads = schedsim::analytic_workloads();
  schedsim::JobMixGenerator gen(31);
  const auto mix = gen.generate(8, 60.0);
  for (auto mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                    PolicyMode::kMoldable, PolicyMode::kElastic}) {
    ClusterExperiment exp(config(mode), workloads);
    auto result = exp.run(mix);
    EXPECT_EQ(result.jobs.size(), mix.size()) << elastic::to_string(mode);
  }
}

TEST(ClusterExperiment, UtilizationTraceRecorded) {
  auto workloads = schedsim::analytic_workloads();
  ClusterExperiment exp(config(PolicyMode::kElastic), workloads);
  auto result = exp.run({job(0, JobClass::kMedium, 3, 0.0)});
  EXPECT_TRUE(result.trace.has("util"));
  EXPECT_TRUE(result.trace.has("job.0.replicas"));
}

TEST(ClusterExperiment, SingleShot) {
  auto workloads = schedsim::analytic_workloads();
  ClusterExperiment exp(config(PolicyMode::kElastic), workloads);
  exp.run({job(0, JobClass::kSmall, 1, 0.0)});
  EXPECT_THROW(exp.run({job(1, JobClass::kSmall, 1, 0.0)}), PreconditionError);
}

TEST(ClusterExperiment, DeterministicAcrossRuns) {
  auto workloads = schedsim::analytic_workloads();
  schedsim::JobMixGenerator gen(13);
  const auto mix = gen.generate(6, 45.0);
  ClusterExperiment a(config(PolicyMode::kElastic), workloads);
  ClusterExperiment b(config(PolicyMode::kElastic), workloads);
  EXPECT_DOUBLE_EQ(a.run(mix).metrics.total_time_s,
                   b.run(mix).metrics.total_time_s);
}

TEST(ClusterExperiment, StreamMatchesBatchRun) {
  // The two drive modes order same-time events and fold records
  // differently, but on the cluster substrate too they must land on the
  // same makespan and utilization bits: both close the utilization window
  // as each job ends, so pod-teardown usage after the last completion is
  // excluded either way.
  auto workloads = schedsim::analytic_workloads();
  schedsim::JobMixGenerator gen(11);
  const auto mix = gen.generate(24, 40.0);
  for (auto mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                    PolicyMode::kMoldable, PolicyMode::kElastic}) {
    ClusterExperiment batch(config(mode), workloads);
    const auto a = batch.run(mix).metrics;
    trace::VectorTraceSource source(mix);
    ClusterExperiment stream(config(mode), workloads);
    const auto b = stream.run_stream(source).metrics;
    EXPECT_EQ(a.total_time_s, b.total_time_s) << elastic::to_string(mode);
    EXPECT_EQ(a.utilization, b.utilization) << elastic::to_string(mode);
  }
}

}  // namespace
}  // namespace ehpc::opk
