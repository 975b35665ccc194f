// The trace-campaign scenario family: the trace_replay registry entry,
// trace spec keys, streaming sweeps on both substrates, parallel
// determinism (threads=1 bit-identical to threads=8), cron
// placement-independence across substrates, and priority tie-breaking.
// These run in the tsan/asan CI lanes like every scenario test — keep the
// specs small.

#include <gtest/gtest.h>

#include <vector>

#include "expect_identical.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;
using elastic::RunMetrics;

/// A small streaming spec: a short synthetic trace with both prun-style
/// limits set, single policy so TSan stays fast.
ScenarioSpec small_trace_spec() {
  ScenarioSpec spec;
  spec.trace_jobs = 40;
  spec.submission_gap_s = 60.0;
  spec.calibrated = false;
  spec.queue_timeout_s = 1800.0;
  spec.task_timeout_s = 900.0;
  spec.repeats = 2;
  spec.policies = {PolicyMode::kElastic};
  return spec;
}

TEST(TraceScenarios, TraceReplayIsRegisteredAndStreams) {
  const ScenarioSpec& spec =
      ScenarioRegistry::instance().require("trace_replay");
  EXPECT_TRUE(spec.is_trace());
  EXPECT_GT(spec.trace_jobs, 0);
  EXPECT_GE(spec.queue_timeout_s, 0.0);
  EXPECT_GE(spec.task_timeout_s, 0.0);
  EXPECT_NO_THROW(spec.validate());
}

TEST(TraceScenarios, SpecKeysParseAndValidate) {
  Config cfg;
  cfg.set("scenario", "trace_replay");
  cfg.set("trace_jobs", "100");
  cfg.set("cron_period", "600");
  cfg.set("cron_phase", "30");
  cfg.set("cron_end", "1200");
  cfg.set("cron_class", "large");
  cfg.set("cron_priority", "5");
  cfg.set("queue_timeout", "900");
  cfg.set("task_timeout", "450");
  const ScenarioSpec spec = resolve_scenario(cfg);
  EXPECT_EQ(spec.trace_jobs, 100);
  EXPECT_EQ(spec.cron_period_s, 600.0);
  EXPECT_EQ(spec.cron_phase_s, 30.0);
  EXPECT_EQ(spec.cron_end_s, 1200.0);
  EXPECT_EQ(spec.cron_class, "large");
  EXPECT_EQ(spec.cron_priority, 5);
  EXPECT_EQ(spec.queue_timeout_s, 900.0);
  EXPECT_EQ(spec.task_timeout_s, 450.0);
  EXPECT_TRUE(spec.is_trace());
}

TEST(TraceScenarios, ValidationRejectsBadTraceParameters) {
  ScenarioSpec spec = small_trace_spec();
  spec.trace_jobs = -1;
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = small_trace_spec();
  spec.cron_period_s = 100.0;
  spec.cron_end_s = -1.0;
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = small_trace_spec();
  spec.cron_period_s = 100.0;
  spec.cron_end_s = 500.0;
  spec.cron_class = "gigantic";
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = small_trace_spec();
  spec.cron_period_s = 100.0;
  spec.cron_end_s = 500.0;
  spec.cron_priority = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

// The core determinism guarantee extended to streaming cells: a trace sweep
// fanned out over 8 threads is bit-identical to the serial run, on both
// substrates.
TEST(TraceScenarios, ParallelSweepBitIdenticalOnSchedSim) {
  const ScenarioSpec spec = small_trace_spec();
  expect_identical(run_sweep(spec, 1), run_sweep(spec, 8));
}

TEST(TraceScenarios, ParallelSweepBitIdenticalOnCluster) {
  ScenarioSpec spec = small_trace_spec();
  spec.substrate = Substrate::kCluster;
  spec.trace_jobs = 12;
  spec.repeats = 1;
  expect_identical(run_sweep(spec, 1), run_sweep(spec, 8));
}

// Cron occurrences are defined by (period, phase, end) alone, so the same
// cron schedule must yield the same number of submissions on both
// substrates, and the run must be deterministic per substrate.
TEST(TraceScenarios, CronIsDeterministicAndPlacementIndependent) {
  ScenarioSpec spec;
  spec.cron_period_s = 300.0;
  spec.cron_phase_s = 0.0;
  spec.cron_end_s = 1500.0;  // 6 occurrences
  spec.cron_class = "small";
  spec.calibrated = false;
  spec.policies = {PolicyMode::kElastic};
  spec.repeats = 1;

  const auto workloads = workloads_for(spec);
  const auto sched_a =
      run_policies(spec, spec.seed, workloads).at(PolicyMode::kElastic);
  const auto sched_b =
      run_policies(spec, spec.seed, workloads).at(PolicyMode::kElastic);
  EXPECT_EQ(sched_a.stream.jobs_submitted, 6);
  expect_identical(sched_a.metrics, sched_b.metrics, "schedsim cron");

  ScenarioSpec cluster = spec;
  cluster.substrate = Substrate::kCluster;
  const auto clus =
      run_policies(cluster, cluster.seed, workloads).at(PolicyMode::kElastic);
  EXPECT_EQ(clus.stream.jobs_submitted, 6);
  // The cluster substrate pays operator/pod overheads, so metrics differ —
  // but every cron job must be accounted for identically.
  EXPECT_EQ(clus.metrics.jobs_abandoned, sched_a.metrics.jobs_abandoned);
}

// Composite merge: synthetic + cron on one stream, replayed through the
// sweep engine on both substrates without double-counting.
TEST(TraceScenarios, CompositeSyntheticPlusCronRunsOnBothSubstrates) {
  ScenarioSpec spec = small_trace_spec();
  spec.trace_jobs = 10;
  spec.cron_period_s = 120.0;
  spec.cron_phase_s = 60.0;
  spec.cron_end_s = 540.0;  // 5 occurrences
  spec.repeats = 1;
  for (const Substrate substrate :
       {Substrate::kSchedSim, Substrate::kCluster}) {
    spec.substrate = substrate;
    const auto result = run_policies(spec, spec.seed, workloads_for(spec))
                            .at(PolicyMode::kElastic);
    EXPECT_EQ(result.stream.jobs_submitted, 15) << to_string(substrate);
    EXPECT_TRUE(result.jobs.empty()) << to_string(substrate);
  }
}

// Equal-priority jobs must be admitted in job-id order (the policy engine's
// deterministic tie-break), so a trace of identical jobs starts in
// submission order.
TEST(TraceScenarios, PriorityTiesBreakByJobId) {
  ScenarioSpec spec;
  spec.cron_period_s = 1.0;
  spec.cron_phase_s = 0.0;
  spec.cron_end_s = 7.0;  // 8 near-simultaneous identical jobs
  spec.cron_class = "small";
  spec.cron_priority = 3;
  spec.calibrated = false;
  spec.policies = {PolicyMode::kRigidMin};
  spec.repeats = 1;
  const auto result = run_policies(spec, spec.seed, workloads_for(spec))
                          .at(PolicyMode::kRigidMin);
  EXPECT_EQ(result.stream.jobs_submitted, 8);
  // All 8 small jobs (min width 2) fit in 64 slots: none abandon, none wait
  // out of order. Streaming retires records, so assert via the counters.
  EXPECT_EQ(result.metrics.jobs_abandoned, 0.0);
  EXPECT_EQ(result.metrics.jobs_failed, 0.0);
}

}  // namespace
}  // namespace ehpc::scenario
