// Scenario-level ports of the former schedsim sweep tests, driving the same
// physics through the unified scenario API.

#include "scenario/sweep.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;

ScenarioSpec fast_spec() {
  ScenarioSpec spec;
  spec.repeats = 4;         // keep unit tests quick
  spec.calibrated = false;  // analytic curves: no minicharm runs
  spec.seed = 99;
  return spec;
}

TEST(Sweep, ComparePoliciesCoversAllFour) {
  const auto metrics = compare_policies(fast_spec());
  EXPECT_EQ(metrics.size(), 4u);
  for (const auto& [mode, m] : metrics) {
    EXPECT_GT(m.total_time_s, 0.0) << to_string(mode);
    EXPECT_GT(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0);
  }
}

TEST(Sweep, ComparePoliciesHonoursThePolicySubset) {
  ScenarioSpec spec = fast_spec();
  spec.policies = {PolicyMode::kElastic, PolicyMode::kMoldable};
  const auto metrics = compare_policies(spec);
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.count(PolicyMode::kRigidMin), 0u);
}

TEST(Sweep, ElasticBeatsRigidOnUtilization) {
  // The paper's headline: elastic has the highest utilization and the
  // lowest total time of the four policies.
  ScenarioSpec spec = fast_spec();
  spec.repeats = 8;
  spec.submission_gap_s = 90.0;
  const auto metrics = compare_policies(spec);
  const auto& elastic = metrics.at(PolicyMode::kElastic);
  EXPECT_GE(elastic.utilization, metrics.at(PolicyMode::kRigidMin).utilization);
  EXPECT_GE(elastic.utilization, metrics.at(PolicyMode::kRigidMax).utilization);
  EXPECT_LE(elastic.total_time_s,
            metrics.at(PolicyMode::kRigidMin).total_time_s);
  EXPECT_LE(elastic.total_time_s,
            metrics.at(PolicyMode::kRigidMax).total_time_s);
}

TEST(Sweep, SubmissionGapSweepProducesOnePointPerValue) {
  ScenarioSpec spec = fast_spec();
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, 150.0, 300.0};
  const auto points = run_sweep(spec).points;
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].x, 0.0);
  EXPECT_DOUBLE_EQ(points[2].x, 300.0);
  for (const auto& pt : points) EXPECT_EQ(pt.metrics.size(), 4u);
}

TEST(Sweep, UtilizationDropsAsGapGrows) {
  ScenarioSpec spec = fast_spec();
  spec.repeats = 6;
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, 300.0};
  const auto points = run_sweep(spec).points;
  for (auto mode : {PolicyMode::kRigidMin, PolicyMode::kElastic}) {
    EXPECT_GT(points[0].metrics.at(mode).utilization,
              points[1].metrics.at(mode).utilization)
        << to_string(mode);
  }
}

TEST(Sweep, RescaleGapSweepElasticApproachesMoldable) {
  // Paper Fig. 8: as T_rescale_gap grows, the elastic scheduler converges to
  // the moldable scheduler (which never rescales).
  ScenarioSpec spec = fast_spec();
  spec.repeats = 6;
  spec.axis = SweepAxis::kRescaleGap;
  spec.axis_values = {0.0, 100000.0};
  const auto points = run_sweep(spec).points;
  const auto& far = points[1].metrics;
  EXPECT_NEAR(far.at(PolicyMode::kElastic).total_time_s,
              far.at(PolicyMode::kMoldable).total_time_s,
              far.at(PolicyMode::kMoldable).total_time_s * 0.02);
  // And at gap 0 the elastic scheduler must differ (it rescales).
  const auto& near_ = points[0].metrics;
  EXPECT_LT(near_.at(PolicyMode::kElastic).total_time_s,
            near_.at(PolicyMode::kMoldable).total_time_s * 1.001);
}

TEST(Sweep, RunSingleReturnsTraces) {
  // Fig. 9's step series come from the cluster substrate.
  ScenarioSpec spec = fast_spec();
  spec.substrate = Substrate::kCluster;
  const auto result = run_single(spec, PolicyMode::kElastic, 42);
  EXPECT_EQ(result.jobs.size(), 16u);
  EXPECT_FALSE(result.utilization.empty());
  EXPECT_EQ(result.replicas.size(), 16u);
}

TEST(Sweep, RunPoliciesKeepsFullResultsPerPolicy) {
  const ScenarioSpec spec = fast_spec();
  const auto mix = make_mix(spec, 7);
  const auto results = run_policies(spec, mix);
  EXPECT_EQ(results.size(), 4u);
  for (const auto& [mode, result] : results) {
    EXPECT_EQ(result.jobs.size(), mix.size()) << to_string(mode);
    EXPECT_TRUE(result.utilization.empty());  // schedsim records no series
  }
  // Rigid policies never rescale; this mix makes elastic do so.
  EXPECT_EQ(results.at(PolicyMode::kRigidMin).rescale_count, 0);
  EXPECT_EQ(results.at(PolicyMode::kRigidMax).rescale_count, 0);
}

TEST(Sweep, RunRepeatsAveragesAnExplicitPolicyConfig) {
  const ScenarioSpec spec = fast_spec();
  elastic::PolicyConfig policy;
  policy.mode = PolicyMode::kElastic;
  policy.rescale_gap_s = 180.0;
  const auto averaged = run_repeats(spec, policy);
  EXPECT_GT(averaged.total_time_s, 0.0);
  // Must agree with what compare_policies reports for the same mode, since
  // both average the same per-repeat runs.
  ScenarioSpec subset = spec;
  subset.policies = {PolicyMode::kElastic};
  EXPECT_DOUBLE_EQ(averaged.total_time_s,
                   compare_policies(subset).at(PolicyMode::kElastic).total_time_s);
}

TEST(Sweep, RegistryScenarioRunsEndToEnd) {
  ScenarioSpec spec =
      ScenarioRegistry::instance().require("burst_arrival");
  spec.repeats = 2;
  spec.calibrated = false;
  const auto metrics = compare_policies(spec);
  EXPECT_EQ(metrics.size(), 4u);
  EXPECT_GT(metrics.at(PolicyMode::kElastic).utilization, 0.0);
}

}  // namespace
}  // namespace ehpc::scenario
