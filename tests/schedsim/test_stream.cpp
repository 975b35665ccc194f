// Streaming-replay semantics of the shared harness: run_stream equivalence
// with the batch path, queue/task timeouts, per-job failure budgets, their
// interactions, and the bounded-memory invariant (peak live JobExec records
// track concurrency, not trace length).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "schedsim/calibrate.hpp"
#include "schedsim/simulator.hpp"
#include "trace/sources.hpp"

#include "../trace/vector_trace_source.hpp"

namespace ehpc::schedsim {
namespace {

using elastic::JobClass;
using elastic::JobRecord;
using elastic::PolicyConfig;
using elastic::PolicyMode;
using trace::VectorTraceSource;

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

TEST(RunStream, MatchesBatchRunOnEveryPolicy) {
  const auto workloads = analytic_workloads();
  JobMixGenerator gen(7);
  const auto mix = gen.generate(24, 45.0);
  for (const auto mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                          PolicyMode::kMoldable, PolicyMode::kElastic}) {
    SchedSimulator batch(64, cfg(mode), workloads);
    const auto batch_result = batch.run(mix);

    VectorTraceSource source(mix);
    SchedSimulator stream(64, cfg(mode), workloads);
    const auto stream_result = stream.run_stream(source);

    const auto& a = batch_result.metrics;
    const auto& b = stream_result.metrics;
    EXPECT_EQ(a.total_time_s, b.total_time_s) << to_string(mode);
    // Batch folds job records into the collector in id order at the end of
    // the run; streaming folds in completion order as jobs retire. The sums
    // agree only to rounding, so order-dependent aggregates use a relative
    // tolerance; counts stay exact. Utilization does not depend on the fold
    // order: both paths close its window as each job ends.
    EXPECT_NEAR(a.weighted_response_s, b.weighted_response_s,
                1e-9 * a.weighted_response_s)
        << to_string(mode);
    EXPECT_NEAR(a.weighted_completion_s, b.weighted_completion_s,
                1e-9 * a.weighted_completion_s)
        << to_string(mode);
    EXPECT_EQ(a.utilization, b.utilization) << to_string(mode);
    EXPECT_EQ(a.jobs_failed, b.jobs_failed) << to_string(mode);
    EXPECT_EQ(a.jobs_abandoned, b.jobs_abandoned) << to_string(mode);
    EXPECT_EQ(a.jobs_timed_out, b.jobs_timed_out) << to_string(mode);
    EXPECT_NEAR(a.goodput, b.goodput, 1e-12) << to_string(mode);
    EXPECT_EQ(batch_result.rescale_count, stream_result.rescale_count)
        << to_string(mode);

    // Streaming keeps summaries only.
    EXPECT_TRUE(stream_result.jobs.empty());
    EXPECT_EQ(stream_result.stream.jobs_submitted,
              static_cast<long>(mix.size()));
    EXPECT_GT(stream_result.stream.peak_live_jobs, 0);
  }
}

TEST(RunStream, DeterministicAcrossRuns) {
  const auto workloads = analytic_workloads();
  trace::SyntheticTraceConfig tcfg;
  tcfg.num_jobs = 300;
  tcfg.submission_gap_s = 30.0;
  tcfg.defaults.queue_timeout_s = 1800.0;
  tcfg.defaults.task_timeout_s = 900.0;

  std::map<std::string, double> first;
  for (int round = 0; round < 2; ++round) {
    trace::SyntheticTraceSource source(tcfg);
    SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
    const auto result = sim.run_stream(source);
    if (round == 0) {
      first["total"] = result.metrics.total_time_s;
      first["util"] = result.metrics.utilization;
      first["resp"] = result.metrics.weighted_response_s;
      first["abandoned"] = result.metrics.jobs_abandoned;
      first["timed_out"] = result.metrics.jobs_timed_out;
      first["p99"] = result.stream.response_p99;
    } else {
      EXPECT_EQ(first["total"], result.metrics.total_time_s);
      EXPECT_EQ(first["util"], result.metrics.utilization);
      EXPECT_EQ(first["resp"], result.metrics.weighted_response_s);
      EXPECT_EQ(first["abandoned"], result.metrics.jobs_abandoned);
      EXPECT_EQ(first["timed_out"], result.metrics.jobs_timed_out);
      EXPECT_EQ(first["p99"], result.stream.response_p99);
    }
  }
}

TEST(RunStream, RetireObserverSeesEveryJobExactlyOnce) {
  const auto workloads = analytic_workloads();
  JobMixGenerator gen(11);
  const auto mix = gen.generate(16, 60.0);
  VectorTraceSource source(mix);
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  std::vector<JobRecord> retired;
  const auto result = sim.run_stream(
      source, [&](const JobRecord& rec) { retired.push_back(rec); });
  ASSERT_EQ(retired.size(), mix.size());
  std::vector<elastic::JobId> ids;
  for (const auto& rec : retired) {
    ids.push_back(rec.id);
    EXPECT_GE(rec.complete_time, rec.submit_time);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(result.stream.jobs_submitted, static_cast<long>(mix.size()));
}

TEST(RunStream, QueueTimeoutAbandonsUnstartedJob) {
  const auto workloads = analytic_workloads();
  // 16 slots, rigid-max mediums (width 16): job 1 cannot start until job 0
  // finishes, and its queue timeout expires first.
  const auto& w = workloads.at(JobClass::kMedium);
  const double runtime = w.runtime_at(16);
  auto blocked = job(1, JobClass::kMedium, 3, 0.0);
  blocked.queue_timeout_s = runtime / 2;

  VectorTraceSource source({job(0, JobClass::kMedium, 3, 0.0), blocked});
  SchedSimulator sim(16, cfg(PolicyMode::kRigidMax), workloads);
  std::vector<JobRecord> retired;
  const auto result = sim.run_stream(
      source, [&](const JobRecord& rec) { retired.push_back(rec); });

  EXPECT_EQ(result.metrics.jobs_abandoned, 1.0);
  EXPECT_EQ(result.metrics.jobs_timed_out, 0.0);
  ASSERT_EQ(retired.size(), 2u);
  const auto& abandoned =
      retired[0].id == 1 ? retired[0] : retired[1];
  EXPECT_TRUE(abandoned.abandoned);
  EXPECT_FALSE(abandoned.timed_out);
  // Abandoned unstarted: both timestamps pin to the abandon time, and the
  // job contributed no useful work.
  EXPECT_DOUBLE_EQ(abandoned.start_time, abandoned.complete_time);
  EXPECT_DOUBLE_EQ(abandoned.complete_time,
                   abandoned.submit_time + runtime / 2);
  EXPECT_EQ(abandoned.goodput(), 0.0);
}

TEST(RunStream, QueueTimeoutDoesNotFireOnceStarted) {
  const auto workloads = analytic_workloads();
  auto only = job(0, JobClass::kMedium, 3, 0.0);
  only.queue_timeout_s = 1.0;  // starts immediately, so this never fires
  VectorTraceSource source({only});
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  const auto result = sim.run_stream(source);
  EXPECT_EQ(result.metrics.jobs_abandoned, 0.0);
  EXPECT_EQ(result.stream.jobs_submitted, 1);
}

TEST(RunStream, TaskTimeoutKillsAndChargesRunningJob) {
  const auto workloads = analytic_workloads();
  const auto& w = workloads.at(JobClass::kMedium);
  const double runtime = w.runtime_at(w.max_replicas);
  auto killed = job(0, JobClass::kMedium, 3, 0.0);
  killed.task_timeout_s = runtime / 2;

  VectorTraceSource source({killed});
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  std::vector<JobRecord> retired;
  const auto result = sim.run_stream(
      source, [&](const JobRecord& rec) { retired.push_back(rec); });

  EXPECT_EQ(result.metrics.jobs_timed_out, 1.0);
  EXPECT_EQ(result.metrics.jobs_abandoned, 0.0);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_TRUE(retired[0].timed_out);
  EXPECT_FALSE(retired[0].abandoned);
  // Killed after exactly task_timeout_s of runtime; the spent span is
  // charged as zero goodput.
  EXPECT_DOUBLE_EQ(retired[0].complete_time,
                   retired[0].start_time + runtime / 2);
  EXPECT_EQ(retired[0].goodput(), 0.0);
  // The kill released the slots: virtual time ends at the kill.
  EXPECT_DOUBLE_EQ(result.metrics.total_time_s, runtime / 2);
}

TEST(RunStream, TaskTimeoutAfterCompletionIsInert) {
  const auto workloads = analytic_workloads();
  const auto& w = workloads.at(JobClass::kMedium);
  auto easy = job(0, JobClass::kMedium, 3, 0.0);
  easy.task_timeout_s = 2.0 * w.runtime_at(w.max_replicas);
  VectorTraceSource source({easy});
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  const auto result = sim.run_stream(source);
  EXPECT_EQ(result.metrics.jobs_timed_out, 0.0);
  EXPECT_NEAR(result.metrics.total_time_s, w.runtime_at(w.max_replicas), 1e-6);
}

TEST(RunStream, QueueAndTaskTimeoutInteraction) {
  // Job 1 carries BOTH limits; it abandons in the queue, so the task
  // timeout must never arm (abandoning is not a start).
  const auto workloads = analytic_workloads();
  const auto& w = workloads.at(JobClass::kMedium);
  const double runtime = w.runtime_at(16);
  auto both = job(1, JobClass::kMedium, 3, 0.0);
  both.queue_timeout_s = runtime / 4;
  both.task_timeout_s = runtime / 8;  // tighter than the queue timeout

  VectorTraceSource source({job(0, JobClass::kMedium, 3, 0.0), both});
  SchedSimulator sim(16, cfg(PolicyMode::kRigidMax), workloads);
  const auto result = sim.run_stream(source);
  EXPECT_EQ(result.metrics.jobs_abandoned, 1.0);
  EXPECT_EQ(result.metrics.jobs_timed_out, 0.0);
}

TEST(RunStream, PerJobFailureBudgetOverridesPlan) {
  const auto workloads = analytic_workloads();
  FaultPlan plan;
  plan.crash_times = {50.0};
  plan.checkpoint_period_s = 30.0;
  plan.max_failed_nodes = -1;  // plan-level budget: unlimited

  // Budget 0: the first crash fails the job even though the plan allows any
  // number of crashes (the per-job override is what prun's maxFailedNodes
  // does).
  auto strict = job(0, JobClass::kMedium, 3, 0.0);
  strict.max_failed_nodes = 0;
  {
    VectorTraceSource source({strict});
    SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
    sim.set_fault_plan(plan);
    const auto result = sim.run_stream(source);
    EXPECT_EQ(result.metrics.jobs_failed, 1.0);
  }

  // Unset budget falls back to the plan (unlimited): the job recovers.
  {
    VectorTraceSource source({job(0, JobClass::kMedium, 3, 0.0)});
    SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
    sim.set_fault_plan(plan);
    const auto result = sim.run_stream(source);
    EXPECT_EQ(result.metrics.jobs_failed, 0.0);
    EXPECT_EQ(result.metrics.failures, 1.0);
  }
}

TEST(RunStream, PeakLiveJobsTracksConcurrencyNotTraceLength) {
  const auto workloads = analytic_workloads();
  trace::SyntheticTraceConfig tcfg;
  tcfg.num_jobs = 5000;
  tcfg.submission_gap_s = 60.0;
  tcfg.defaults.queue_timeout_s = 3600.0;
  tcfg.defaults.task_timeout_s = 900.0;
  trace::SyntheticTraceSource source(tcfg);
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  const auto result = sim.run_stream(source);
  EXPECT_EQ(result.stream.jobs_submitted, 5000);
  // The queue timeout bounds queued jobs at queue_timeout/gap = 60 and the
  // cluster bounds running ones; 5000 submitted jobs never pile up.
  EXPECT_LT(result.stream.peak_live_jobs, 200);
  EXPECT_GT(result.stream.peak_live_jobs, 0);
  // Online percentiles came from retired summaries, not retained records.
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_GT(result.stream.response_p99, result.stream.response_p50);
}

// The million-job regression (ISSUE tentpole): completes in seconds and the
// peak live JobExec count stays at the in-flight scale. LABEL slow.
TEST(RunStreamMillion, BoundedMemoryMillionJobReplay) {
  const auto workloads = analytic_workloads();
  trace::SyntheticTraceConfig tcfg;
  tcfg.num_jobs = 1000000;
  tcfg.submission_gap_s = 60.0;
  tcfg.defaults.queue_timeout_s = 3600.0;
  tcfg.defaults.task_timeout_s = 900.0;
  trace::SyntheticTraceSource source(tcfg);
  SchedSimulator sim(64, cfg(PolicyMode::kElastic), workloads);
  const auto result = sim.run_stream(source);
  EXPECT_EQ(result.stream.jobs_submitted, 1000000);
  EXPECT_LT(result.stream.peak_live_jobs, 200);
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_TRUE(result.utilization.empty());
  const double accounted = result.metrics.jobs_abandoned +
                           result.metrics.jobs_timed_out +
                           result.metrics.jobs_failed;
  EXPECT_LT(accounted, 1000000.0);
  EXPECT_GT(result.metrics.utilization, 0.9);
}

}  // namespace
}  // namespace ehpc::schedsim
