#include "elastic/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ehpc::elastic {
namespace {

JobRecord rec(JobId id, int prio, double submit, double start, double complete) {
  JobRecord r;
  r.id = id;
  r.priority = prio;
  r.submit_time = submit;
  r.start_time = start;
  r.complete_time = complete;
  return r;
}

/// Announce a record's submission and end, then fold it: the pattern of a
/// caller that has no usage trace to interleave.
void feed(MetricsCollector& mc, const JobRecord& r) {
  mc.note_submit(r.submit_time);
  mc.note_complete(r.complete_time);
  mc.add_job(r);
}

TEST(JobRecord, DerivedTimes) {
  const JobRecord r = rec(0, 1, 10.0, 25.0, 100.0);
  EXPECT_DOUBLE_EQ(r.response_time(), 15.0);
  EXPECT_DOUBLE_EQ(r.completion_time(), 90.0);
}

TEST(MetricsCollector, TotalTimeSpansSubmitToLastComplete) {
  MetricsCollector mc(64);
  feed(mc, rec(0, 1, 0.0, 0.0, 50.0));
  feed(mc, rec(1, 1, 10.0, 20.0, 200.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.total_time_s, 200.0);
}

TEST(MetricsCollector, WeightedMeansUsePriority) {
  MetricsCollector mc(64);
  // Response times 10 (prio 1) and 40 (prio 3): weighted mean 32.5.
  feed(mc, rec(0, 1, 0.0, 10.0, 100.0));
  feed(mc, rec(1, 3, 0.0, 40.0, 100.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.weighted_response_s, (10.0 * 1 + 40.0 * 3) / 4.0);
  EXPECT_DOUBLE_EQ(m.weighted_completion_s, 100.0);
}

TEST(MetricsCollector, UtilizationFromStepTrace) {
  MetricsCollector mc(64);
  mc.note_submit(0.0);
  mc.record_usage(0.0, 64);   // full for the first half
  mc.record_usage(50.0, 0);   // idle for the second half
  mc.note_complete(100.0);
  mc.add_job(rec(0, 1, 0.0, 0.0, 100.0));
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 0.5, 1e-12);
}

TEST(MetricsCollector, UtilizationClampedToWindow) {
  MetricsCollector mc(64);
  mc.record_usage(0.0, 0);     // before the window: sets the initial level
  mc.note_submit(100.0);
  mc.record_usage(100.0, 32);  // half-busy throughout the window
  mc.note_complete(200.0);
  mc.add_job(rec(0, 1, 100.0, 100.0, 200.0));
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 0.5, 1e-12);
}

TEST(MetricsCollector, RejectsInvalidInput) {
  MetricsCollector mc(64);
  EXPECT_THROW(mc.add_job(rec(0, 1, 10.0, 5.0, 20.0)), PreconditionError);
  EXPECT_THROW(mc.record_usage(0.0, 65), PreconditionError);
  EXPECT_THROW(mc.record_usage(0.0, -1), PreconditionError);
  EXPECT_THROW(mc.compute(), PreconditionError);  // no jobs
  // A record whose submission and end were never announced, and an end
  // announced before any submission.
  EXPECT_THROW(mc.add_job(rec(0, 1, 0.0, 0.0, 10.0)), PreconditionError);
  EXPECT_THROW(mc.note_complete(10.0), PreconditionError);
  mc.note_submit(0.0);
  mc.note_complete(10.0);
  EXPECT_THROW(mc.add_job(rec(0, 1, 0.0, 0.0, 20.0)), PreconditionError);
}

TEST(MetricsCollector, LbStepsAveragedIntoRunMetrics) {
  MetricsCollector mc(64);
  feed(mc, rec(0, 1, 0.0, 0.0, 50.0));
  mc.record_lb_step(2.0, 10.0);
  mc.record_lb_step(1.5, 20.0);
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.lb_post_ratio, 1.75);
  EXPECT_DOUBLE_EQ(m.lb_migrations_per_step, 15.0);
  EXPECT_DOUBLE_EQ(m.lb_steps, 2.0);
}

TEST(MetricsCollector, NoLbStepsYieldBalancedDefaults) {
  MetricsCollector mc(64);
  feed(mc, rec(0, 1, 0.0, 0.0, 50.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.lb_post_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.lb_migrations_per_step, 0.0);
  EXPECT_DOUBLE_EQ(m.lb_steps, 0.0);
}

TEST(MetricsCollector, RejectsInvalidLbStep) {
  MetricsCollector mc(64);
  EXPECT_THROW(mc.record_lb_step(0.5, 1.0), PreconditionError);
  EXPECT_THROW(mc.record_lb_step(1.5, -1.0), PreconditionError);
}

TEST(AverageMetrics, ComponentwiseMean) {
  RunMetrics a{100.0, 0.8, 10.0, 50.0, 1.2, 4.0, 2.0};
  RunMetrics b{200.0, 0.6, 30.0, 70.0, 1.8, 8.0, 4.0};
  const RunMetrics avg = average_metrics({a, b});
  EXPECT_DOUBLE_EQ(avg.total_time_s, 150.0);
  EXPECT_DOUBLE_EQ(avg.utilization, 0.7);
  EXPECT_DOUBLE_EQ(avg.weighted_response_s, 20.0);
  EXPECT_DOUBLE_EQ(avg.weighted_completion_s, 60.0);
  EXPECT_DOUBLE_EQ(avg.lb_post_ratio, 1.5);
  EXPECT_DOUBLE_EQ(avg.lb_migrations_per_step, 6.0);
  EXPECT_DOUBLE_EQ(avg.lb_steps, 3.0);
}

TEST(AverageMetrics, EmptyThrows) {
  EXPECT_THROW(average_metrics({}), PreconditionError);
}

TEST(AverageMetrics, IncludesAbandonedAndTimedOutCounts) {
  RunMetrics a;
  a.jobs_abandoned = 2.0;
  a.jobs_timed_out = 4.0;
  RunMetrics b;
  b.jobs_abandoned = 4.0;
  b.jobs_timed_out = 0.0;
  const RunMetrics avg = average_metrics({a, b});
  EXPECT_DOUBLE_EQ(avg.jobs_abandoned, 3.0);
  EXPECT_DOUBLE_EQ(avg.jobs_timed_out, 2.0);
}

// Latent bug (pre-fix): an abandoned job has start_time == complete_time,
// so goodput() took the `span <= 0` branch and returned 1.0 — a job that
// produced nothing was credited with perfect goodput.
TEST(JobRecord, AbandonedJobHasZeroGoodput) {
  JobRecord r = rec(0, 1, 10.0, 50.0, 50.0);
  r.abandoned = true;
  EXPECT_EQ(r.goodput(), 0.0);
}

// Latent bug (pre-fix): a task-timeout kill looked like a normal (early)
// completion, so the killed job's goodput was ~1 even though its output was
// discarded and its runtime charged.
TEST(JobRecord, TimedOutJobHasZeroGoodput) {
  JobRecord r = rec(0, 1, 0.0, 5.0, 905.0);
  r.timed_out = true;
  EXPECT_EQ(r.goodput(), 0.0);
}

TEST(JobRecord, InstantCompletionWithoutFlagsKeepsFullGoodput) {
  // The span <= 0 branch still means "no failures, no lost work" for a
  // genuinely instant job.
  EXPECT_EQ(rec(0, 1, 10.0, 50.0, 50.0).goodput(), 1.0);
}

TEST(MetricsCollector, CountsAbandonedAndTimedOutJobs) {
  MetricsCollector mc(64);
  feed(mc, rec(0, 1, 0.0, 0.0, 100.0));
  JobRecord ab = rec(1, 2, 0.0, 60.0, 60.0);
  ab.abandoned = true;
  feed(mc, ab);
  JobRecord to = rec(2, 3, 0.0, 10.0, 90.0);
  to.timed_out = true;
  feed(mc, to);
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.jobs_abandoned, 1.0);
  EXPECT_DOUBLE_EQ(m.jobs_timed_out, 1.0);
  EXPECT_DOUBLE_EQ(m.jobs_failed, 0.0);
  // Mean goodput over {1, 0, 0}.
  EXPECT_NEAR(m.goodput, 1.0 / 3.0, 1e-12);
}

// The batch harness announces every job's end in time order as it happens
// but folds the records in id order after the run, when usage steps past
// the last completion (pod teardown) have already arrived. The streaming
// harness folds each record at its end. Both must produce the same bits:
// the window closes at note_complete, never at add_job.
TEST(MetricsCollector, FoldOrderDoesNotMoveTheWindow) {
  struct Event {
    enum Kind { kSubmit, kUsage, kComplete } kind;
    double t;
    int value;  // used slots (kUsage) or index into `records` (kComplete)
  };
  std::vector<JobRecord> records;  // id order
  records.push_back(rec(0, 2, 0.0, 5.0, 120.0));
  records.push_back(rec(1, 5, 30.0, 31.0, 260.0));
  JobRecord ab = rec(2, 1, 50.0, 95.0, 95.0);
  ab.abandoned = true;
  records.push_back(ab);
  JobRecord fl = rec(3, 3, 60.0, 70.0, 210.0);
  fl.failed = true;
  fl.lost_work_s = 30.0;
  fl.recovery_s = 12.0;
  records.push_back(fl);
  JobRecord to = rec(4, 4, 60.0, 80.0, 180.0);
  to.timed_out = true;
  records.push_back(to);
  const std::vector<Event> events{
      {Event::kUsage, 0.0, 0},      {Event::kSubmit, 0.0, 0},
      {Event::kUsage, 5.0, 16},     {Event::kSubmit, 30.0, 0},
      {Event::kUsage, 31.0, 48},    {Event::kSubmit, 50.0, 0},
      {Event::kSubmit, 60.0, 0},    {Event::kSubmit, 60.0, 0},
      {Event::kUsage, 70.0, 56},    {Event::kUsage, 80.0, 64},
      {Event::kComplete, 95.0, 2},  {Event::kComplete, 120.0, 0},
      {Event::kUsage, 120.0, 40},   {Event::kComplete, 180.0, 4},
      {Event::kUsage, 180.0, 24},   {Event::kComplete, 210.0, 3},
      {Event::kUsage, 210.0, 16},   {Event::kComplete, 260.0, 1},
      // Teardown: the level before it differs from the last in-window one,
      // so a window closed at fold time would count (300 - 260) * 12.
      {Event::kUsage, 260.0, 12},   {Event::kUsage, 300.0, 0},
  };

  MetricsCollector batch(64);
  MetricsCollector stream(64);
  for (const Event& e : events) {
    for (MetricsCollector* mc : {&batch, &stream}) {
      switch (e.kind) {
        case Event::kSubmit:
          mc->note_submit(e.t);
          break;
        case Event::kUsage:
          mc->record_usage(e.t, e.value);
          break;
        case Event::kComplete:
          mc->note_complete(e.t);
          break;
      }
    }
    if (e.kind == Event::kComplete) stream.add_job(records[e.value]);
  }
  for (const JobRecord& r : records) batch.add_job(r);
  for (MetricsCollector* mc : {&batch, &stream}) mc->record_lb_step(1.4, 10.0);

  const RunMetrics b = batch.compute();
  const RunMetrics s = stream.compute();
  EXPECT_EQ(b.total_time_s, 260.0);
  EXPECT_EQ(b.total_time_s, s.total_time_s);
  EXPECT_EQ(b.utilization, s.utilization);
  EXPECT_EQ(b.jobs_failed, s.jobs_failed);
  EXPECT_EQ(b.jobs_abandoned, s.jobs_abandoned);
  EXPECT_EQ(b.jobs_timed_out, s.jobs_timed_out);
  EXPECT_EQ(b.lb_post_ratio, s.lb_post_ratio);
  EXPECT_EQ(b.lb_migrations_per_step, s.lb_migrations_per_step);
  EXPECT_EQ(b.lb_steps, s.lb_steps);
  // The window ends at the last completion: 0-5 idle, then 16, 48, 56, 64,
  // 40, 24 and 16 slots up to 260 s.
  const double busy = 16.0 * 26 + 48.0 * 39 + 56.0 * 10 + 64.0 * 40 +
                      40.0 * 60 + 24.0 * 30 + 16.0 * 50;
  EXPECT_NEAR(b.utilization, busy / 260.0 / 64.0, 1e-12);
  EXPECT_EQ(b.jobs_failed, 1.0);
  EXPECT_EQ(b.jobs_abandoned, 1.0);
  EXPECT_EQ(b.jobs_timed_out, 1.0);
}

TEST(MetricsCollector, StreamingUsageAfterLastCompletionDoesNotLeak) {
  MetricsCollector mc(64);
  mc.note_submit(0.0);
  mc.record_usage(0.0, 64);
  mc.note_complete(100.0);
  mc.add_job(rec(0, 1, 0.0, 0.0, 100.0));
  // Pod teardown events after the last completion must not extend the
  // utilization window.
  mc.record_usage(150.0, 0);
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 1.0, 1e-12);
}

}  // namespace
}  // namespace ehpc::elastic
