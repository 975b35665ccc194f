#include "opk/experiment.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

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
  EXPECT_FALSE(result.utilization.empty());
  ASSERT_EQ(result.replicas.count(0), 1u);
  // Replicas go up once the pods are ready and back to zero at completion.
  const auto& series = result.replicas.at(0);
  ASSERT_GE(series.size(), 2u);
  EXPECT_GT(series.front().second, 0);
  EXPECT_EQ(series.back().second, 0);
}

/// Fig. 9's raw step series of one small elastic run, pinned exactly. Two
/// large jobs fill the cluster, a high-priority xlarge arrival shrinks both
/// (32 -> 24 and 32 -> 8) and later expands (32 -> 56 -> 64), and a small
/// job's 1 s task timeout kills it while its pods are still pending, so its
/// only replica step is the 0 at the kill.
TEST(ClusterExperiment, StepSeriesGoldenValues) {
  auto workloads = schedsim::analytic_workloads();
  for (auto& [cls, w] : workloads) w.total_steps = 1000;
  ClusterExperiment exp(config(PolicyMode::kElastic, 0.0), workloads);
  SubmittedJob doomed = job(3, JobClass::kSmall, 2, 5.0);
  doomed.task_timeout_s = 1.0;
  const auto result = exp.run(
      {job(0, JobClass::kLarge, 1, 0.0), job(1, JobClass::kLarge, 1, 1.0),
       job(2, JobClass::kXLarge, 5, 4.0), doomed});
  ASSERT_EQ(result.jobs.size(), 4u);
  EXPECT_EQ(result.rescale_count, 4);
  EXPECT_TRUE(result.jobs[3].timed_out);

  const std::vector<std::pair<double, double>> utilization{
      {0x1.999999999999ap-3, 0x0p+0},     {0x1p-2, 0x1p-1},
      {0x1.3333333333333p+0, 0x1p-1},     {0x1.4p+0, 0x1p+0},
      {0x1.2p+1, 0x1p+0},                 {0x1.ap+1, 0x1p+0},
      {0x1.0cccccccccccdp+2, 0x1p+0},     {0x1.1p+2, 0x1p+0},
      {0x1.407e3f9265688p+2, 0x1p+0},     {0x1.4cccccccccccdp+2, 0x1p+0},
      {0x1.5p+2, 0x1p+0},                 {0x1.807e3f9265688p+2, 0x1.4p-1},
      {0x1.83b172c5989bbp+2, 0x1p+0},     {0x1.8cccccccccccdp+2, 0x1p+0},
      {0x1.9p+2, 0x1p+0},                 {0x1.9c7da96e41aefp+2, 0x1p+0},
      {0x1.ccccccccccccdp+2, 0x1.cp-1},   {0x1.dp+2, 0x1p+0},
      {0x1.dc7da96e41aefp+2, 0x1.cp-1},   {0x1.dfb0dca174e22p+2, 0x1p+0},
      {0x1.01d8b962cc4dep+3, 0x1p+0},     {0x1.28p+3, 0x1p+0},
      {0x1.2fd86e50ba711p+3, 0x1p+0},     {0x1.06cd0082178eep+4, 0x1p+0},
      {0x1.16cd0082178eep+4, 0x1.4p-1},   {0x1.1799cd4ee45bbp+4, 0x1p+0},
      {0x1.3799cd4ee45bbp+4, 0x1p+0},     {0x1.007f3c23ccd7cp+5, 0x1p+0},
      {0x1.087f3c23ccd7cp+5, 0x1.cp-1},   {0x1.08e5a28a333e2p+5, 0x1p+0},
      {0x1.18e5a28a333e2p+5, 0x1p+0},     {0x1.35598ff851e37p+5, 0x1p+0},
      {0x1.3d598ff851e37p+5, 0x0p+0}};
  EXPECT_EQ(result.utilization, utilization);

  const std::map<elastic::JobId, std::vector<std::pair<double, int>>>
      replicas{{0,
                {{0x1.2p+1, 32},
                 {0x1.46ebd835f99b9p+2, 24},
                 {0x1.0399cd4ee45bbp+4, 0}}},
               {1,
                {{0x1.ap+1, 32},
                 {0x1.06f39fc45ce5p+2, 8},
                 {0x1.fdcb4514667c5p+4, 0}}},
               {2,
                {{0x1.2fd86e50ba711p+3, 32},
                 {0x1.39999ee7c39c4p+4, 56},
                 {0x1.19c05f8d4d2fdp+5, 64},
                 {0x1.33bff65eb849dp+5, 0}}},
               {3, {{0x1.8p+2, 0}}}};
  EXPECT_EQ(result.replicas, replicas);
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
