// Scenario-level ports of the former schedsim sweep tests, driving the same
// physics through the unified scenario API.

#include "scenario/sweep.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "expect_identical.hpp"
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

TEST(Sweep, RunPoliciesReturnsClusterStepSeries) {
  // Fig. 9's step series come from the cluster substrate.
  ScenarioSpec spec = fast_spec();
  spec.substrate = Substrate::kCluster;
  spec.policies = {PolicyMode::kElastic};
  const auto results = run_policies(spec, 42, workloads_for(spec));
  ASSERT_EQ(results.size(), 1u);
  const auto& result = results.at(PolicyMode::kElastic);
  EXPECT_EQ(result.jobs.size(), 16u);
  EXPECT_FALSE(result.utilization.empty());
  EXPECT_EQ(result.replicas.size(), 16u);
}

TEST(Sweep, RunPoliciesKeepsFullResultsPerPolicy) {
  const ScenarioSpec spec = fast_spec();
  const auto mix = make_mix(spec, 7);
  const auto results = run_policies(spec, 7, workloads_for(spec));
  EXPECT_EQ(results.size(), 4u);
  for (const auto& [mode, result] : results) {
    EXPECT_EQ(result.jobs.size(), mix.size()) << to_string(mode);
    EXPECT_TRUE(result.utilization.empty());  // schedsim records no series
  }
  // Rigid policies never rescale; this mix makes elastic do so.
  EXPECT_EQ(results.at(PolicyMode::kRigidMin).rescale_count, 0);
  EXPECT_EQ(results.at(PolicyMode::kRigidMax).rescale_count, 0);
}

// A sweep cell is one run_policies call on one derived input: at
// repeats=1 the sweep's single point equals a direct call bit for bit, for
// a mix spec and a trace spec on both substrates.
TEST(Sweep, SingleRepeatSweepEqualsRunPolicies) {
  ScenarioSpec mix_spec = fast_spec();
  mix_spec.num_jobs = 6;
  ScenarioSpec trace_spec = fast_spec();
  trace_spec.trace_jobs = 10;
  for (ScenarioSpec spec : {mix_spec, trace_spec}) {
    spec.repeats = 1;
    for (const Substrate substrate :
         {Substrate::kSchedSim, Substrate::kCluster}) {
      spec.substrate = substrate;
      const std::string where =
          std::string(spec.is_trace() ? "trace " : "mix ") +
          to_string(substrate) + " ";
      const auto sweep = run_sweep(spec);
      const auto direct = run_policies(spec, spec.seed, workloads_for(spec));
      ASSERT_EQ(sweep.points.size(), 1u) << where;
      ASSERT_EQ(sweep.points[0].metrics.size(), direct.size()) << where;
      for (const auto& [mode, result] : direct) {
        expect_identical(sweep.points[0].metrics.at(mode), result.metrics,
                         where + to_string(mode));
      }
    }
  }
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

/// Collects render_sweep's tables the way bench::Reporter does.
struct TableSink {
  std::deque<Table> tables;
  std::vector<std::string> ids;
  std::vector<std::string> titles;
  Table& add_table(const std::string& id, const std::string& title,
                   std::vector<std::string> headers) {
    ids.push_back(id);
    titles.push_back(title);
    return tables.emplace_back(std::move(headers));
  }
};

TEST(Sweep, RenderSweepLaysOutOneTablePerMetric) {
  SweepResult sweep;
  for (const double x : {0.0, 1.5}) {
    SweepPoint point;
    point.x = x;
    point.metrics[PolicyMode::kElastic].utilization = 0.12345 + x;
    point.metrics[PolicyMode::kRigidMin].utilization = 0.5;
    point.metrics[PolicyMode::kElastic].goodput = 1.0 / 3.0;
    point.metrics[PolicyMode::kRigidMin].goodput = x;
    sweep.points.push_back(point);
  }
  TableSink sink;
  render_sweep(sink, sweep,
               {{"util", "Utilization", &elastic::RunMetrics::utilization},
                {"goodput", "Goodput", &elastic::RunMetrics::goodput}},
               {"gap_s", {PolicyMode::kElastic, PolicyMode::kRigidMin}, 0, 4});
  ASSERT_EQ(sink.tables.size(), 2u);
  EXPECT_EQ(sink.ids, (std::vector<std::string>{"util", "goodput"}));
  EXPECT_EQ(sink.titles, (std::vector<std::string>{"Utilization", "Goodput"}));
  const Table& util = sink.tables[0];
  EXPECT_EQ(util.header(),
            (std::vector<std::string>{"gap_s", "elastic", "min_replicas"}));
  ASSERT_EQ(util.rows(), 2u);
  EXPECT_EQ(util.row(0), (std::vector<std::string>{"0", "0.1235", "0.5"}));
  EXPECT_EQ(util.row(1), (std::vector<std::string>{"2", "1.6235", "0.5"}));
  EXPECT_EQ(sink.tables[1].row(1),
            (std::vector<std::string>{"2", "0.3333", "1.5"}));

  // An lb_strategy axis labels its rows with the strategy names.
  const std::vector<std::string> names{"greedy", "refine"};
  SweepResult lb;
  for (const double x : {1.0, 0.0}) {
    SweepPoint point;
    point.x = x;
    point.metrics[PolicyMode::kElastic].utilization = x;
    lb.points.push_back(point);
  }
  TableSink lb_sink;
  SweepColumns columns{"lb_strategy", {PolicyMode::kElastic}};
  columns.x_names = &names;
  render_sweep(lb_sink, lb,
               {{"util", "Utilization", &elastic::RunMetrics::utilization}},
               columns);
  EXPECT_EQ(lb_sink.tables[0].row(0),
            (std::vector<std::string>{"refine", "1"}));
  EXPECT_EQ(lb_sink.tables[0].row(1),
            (std::vector<std::string>{"greedy", "0"}));
}

}  // namespace
}  // namespace ehpc::scenario
