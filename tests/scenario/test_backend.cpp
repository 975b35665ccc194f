#include "scenario/backend.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "expect_identical.hpp"
#include "schedsim/simulator.hpp"
#include "trace/failures.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;

ScenarioSpec fast_spec() {
  ScenarioSpec spec;
  spec.calibrated = false;  // analytic curves: no minicharm runs
  spec.num_jobs = 6;
  spec.repeats = 2;
  return spec;
}

// The pinned random mix for seed 2025 (6 jobs, 90 s apart): classes, ids,
// priorities and submission times must never drift, or every committed
// baseline silently changes meaning.
TEST(ScenarioBackend, MixSequenceIsPinnedForSeed2025) {
  const auto mix = make_mix(fast_spec(), 2025);
  ASSERT_EQ(mix.size(), 6u);
  const struct {
    int id;
    elastic::JobClass cls;
    int priority;
    double submit;
  } expected[] = {
      {0, elastic::JobClass::kSmall, 3, 0.0},
      {1, elastic::JobClass::kSmall, 3, 90.0},
      {2, elastic::JobClass::kSmall, 5, 180.0},
      {3, elastic::JobClass::kMedium, 4, 270.0},
      {4, elastic::JobClass::kXLarge, 4, 360.0},
      {5, elastic::JobClass::kXLarge, 2, 450.0},
  };
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(mix[i].spec.id, expected[i].id) << i;
    EXPECT_EQ(mix[i].job_class, expected[i].cls) << i;
    EXPECT_EQ(mix[i].spec.priority, expected[i].priority) << i;
    EXPECT_DOUBLE_EQ(mix[i].submit_time, expected[i].submit) << i;
  }
}

TEST(ScenarioBackend, MixRespectsSpecJobCountAndGap) {
  ScenarioSpec spec = fast_spec();
  spec.num_jobs = 9;
  spec.submission_gap_s = 30.0;
  const auto mix = make_mix(spec, 7);
  ASSERT_EQ(mix.size(), 9u);
  EXPECT_DOUBLE_EQ(mix[8].submit_time, 8 * 30.0);
}

// On the simulator substrate make_backend is a SchedSimulator carrying the
// spec's fault plan, its failure trace resolved into explicit events, for
// both the batch and the streaming entry point.
TEST(ScenarioBackend, MakeBackendMatchesDirectSimulator) {
  const std::string path = ::testing::TempDir() + "backend_outage.csv";
  std::ofstream(path, std::ios::trunc) << "200,crash\n350,evict\n";
  ScenarioSpec spec = fast_spec();
  spec.trace_jobs = 8;  // a trace spec streams; make_mix still reads num_jobs
  spec.faults.checkpoint_period_s = 120.0;
  spec.faults.failure_trace_path = path;
  const auto workloads = workloads_for(spec);
  const auto policy = policy_for(spec, PolicyMode::kElastic);
  auto backend = make_backend(spec, policy, workloads);
  schedsim::SchedSimulator simulator(spec.total_slots(), policy, workloads);
  simulator.set_fault_plan(trace::resolve_failure_trace(spec.faults));

  const auto mix = make_mix(spec, 2025);
  const auto via_backend = backend->run(mix);
  const auto direct = simulator.run(mix);
  EXPECT_GT(direct.metrics.failures, 0.0);  // the trace's crash landed
  expect_identical(via_backend.metrics, direct.metrics, "run");
  EXPECT_EQ(via_backend.rescale_count, direct.rescale_count);

  const auto streamed = backend->run_stream(*make_trace_source(spec, 2025));
  const auto direct_streamed =
      simulator.run_stream(*make_trace_source(spec, 2025));
  EXPECT_GT(direct_streamed.metrics.failures, 0.0);
  expect_identical(streamed.metrics, direct_streamed.metrics, "run_stream");
  EXPECT_EQ(streamed.stream.jobs_submitted, 8);
  EXPECT_EQ(streamed.rescale_count, direct_streamed.rescale_count);
}

TEST(ScenarioBackend, BackendIsReusableAndDeterministic) {
  const ScenarioSpec spec = fast_spec();
  auto backend = make_backend(spec, policy_for(spec, PolicyMode::kElastic),
                              workloads_for(spec));
  const auto mix = make_mix(spec, 42);
  const auto first = backend->run(mix);
  const auto second = backend->run(mix);
  EXPECT_DOUBLE_EQ(first.metrics.total_time_s, second.metrics.total_time_s);
  EXPECT_DOUBLE_EQ(first.metrics.utilization, second.metrics.utilization);
}

TEST(ScenarioBackend, ClusterBackendRunsWithOperatorOverheads) {
  ScenarioSpec spec = fast_spec();
  spec.substrate = Substrate::kCluster;
  spec.num_jobs = 3;
  const auto workloads = workloads_for(spec);
  const auto mix = make_mix(spec, 2025);
  const auto policy = policy_for(spec, PolicyMode::kElastic);

  auto cluster_backend = make_backend(spec, policy, workloads);
  const auto actual = cluster_backend->run(mix);
  EXPECT_EQ(actual.jobs.size(), 3u);

  // The same mix through the pure simulator finishes no later: the cluster
  // substrate adds pod scheduling/startup and handshake latencies.
  ScenarioSpec sim_spec = spec;
  sim_spec.substrate = Substrate::kSchedSim;
  const auto simulated = make_backend(sim_spec, policy, workloads)->run(mix);
  EXPECT_GE(actual.metrics.total_time_s, simulated.metrics.total_time_s);
}

TEST(ScenarioBackend, PolicyForCarriesTheRescaleGap) {
  ScenarioSpec spec = fast_spec();
  spec.rescale_gap_s = 123.0;
  const auto policy = policy_for(spec, PolicyMode::kMoldable);
  EXPECT_EQ(policy.mode, PolicyMode::kMoldable);
  EXPECT_DOUBLE_EQ(policy.rescale_gap_s, 123.0);
}

}  // namespace
}  // namespace ehpc::scenario
