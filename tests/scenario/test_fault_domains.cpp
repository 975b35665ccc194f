// Correlated failure domains and recovery storms: registry entries, config
// keys, FaultPlan coverage of the new fields, correlated metrics on both
// substrates, storm restore sharing, and failure-trace replay determinism
// (these run in the tsan/asan CI lanes like every scenario test — keep the
// specs small).

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/error.hpp"
#include "expect_identical.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;
using elastic::RunMetrics;

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

/// A small correlated-loss spec: few short-gap jobs, four 16-slot domains
/// and one domain crash while most jobs are resident, single policy so
/// TSan stays fast.
ScenarioSpec small_domain_spec() {
  ScenarioSpec spec;
  spec.num_jobs = 6;
  spec.submission_gap_s = 30.0;
  spec.repeats = 2;
  spec.policies = {PolicyMode::kElastic};
  spec.faults.domain_sizes = {16, 16, 16, 16};
  spec.faults.domain_crashes = {{250.0, 0}};
  spec.faults.checkpoint_period_s = 100.0;
  return spec;
}

TEST(FaultDomainScenarios, BothAreRegisteredAndValid) {
  auto& registry = ScenarioRegistry::instance();
  for (const char* name : {"fault_correlated", "fault_storm"}) {
    const ScenarioSpec* spec = registry.find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_FALSE(spec->faults.empty()) << name;
    EXPECT_FALSE(spec->faults.domain_sizes.empty()) << name;
    EXPECT_FALSE(spec->faults.domain_crashes.empty()) << name;
    EXPECT_NO_THROW(spec->validate()) << name;
  }
  EXPECT_GT(registry.require("fault_storm").faults.restore_bandwidth, 0.0);
}

TEST(FaultDomainScenarios, PlanEmptyAndValidateCoverNewFields) {
  schedsim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.domain_sizes = {16};  // a domain map alone schedules nothing
  EXPECT_TRUE(plan.empty());
  plan.domain_crashes = {{100.0, 0}};
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.failure_trace_path = "outage.csv";
  EXPECT_FALSE(plan.empty());

  // A domain crash needs a domain map, an in-range index and a
  // non-negative time; restore_bandwidth and domain sizes must be sane.
  plan = {};
  plan.domain_crashes = {{100.0, 0}};
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.domain_sizes = {16, 16};
  EXPECT_NO_THROW(plan.validate());
  plan.domain_crashes = {{100.0, 2}};
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.domain_crashes = {{-1.0, 0}};
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.domain_crashes.clear();
  plan.domain_sizes = {16, 0};
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.domain_sizes = {16};
  plan.restore_bandwidth = -1.0;
  EXPECT_THROW(plan.validate(), PreconditionError);
}

TEST(FaultDomainScenarios, ConfigKeysRoundTripThroughSpecFromConfig) {
  const char* argv[] = {"test",
                        "scenario=fault_correlated",
                        "fault_domains=16,16,32",
                        "fault_domain_crash_times=500:1,1300:2",
                        "restore_bandwidth=2",
                        "repeats=2"};
  const Config cfg = Config::from_args(6, argv, scenario_config_keys());
  const ScenarioSpec spec = resolve_scenario(cfg);
  EXPECT_EQ(spec.faults.domain_sizes, (std::vector<int>{16, 16, 32}));
  ASSERT_EQ(spec.faults.domain_crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.faults.domain_crashes[0].time_s, 500.0);
  EXPECT_EQ(spec.faults.domain_crashes[0].domain, 1);
  EXPECT_EQ(spec.faults.domain_crashes[1].domain, 2);
  EXPECT_DOUBLE_EQ(spec.faults.restore_bandwidth, 2.0);
  const std::string text = describe(spec);
  EXPECT_NE(text.find("fault_domains=16,16,32"), std::string::npos);
  EXPECT_NE(text.find("fault_domain_crash_times=500:1,1300:2"),
            std::string::npos);
  EXPECT_NE(text.find("restore_bandwidth=2"), std::string::npos);
}

TEST(FaultDomainScenarios, BadConfigValuesAreRejected) {
  for (const char* bad :
       {"fault_domains=16,-4", "fault_domains=16,x", "fault_domains=",
        "fault_domain_crash_times=500", "fault_domain_crash_times=x:1",
        "fault_domain_crash_times=500:-1",
        "fault_domain_crash_times=500:1.5",
        "fault_domain_crash_times=500:4294967297"}) {  // 2^32 + 1, not 1
    const char* argv[] = {"test", "scenario=fault_correlated", bad};
    const Config cfg = Config::from_args(3, argv, scenario_config_keys());
    EXPECT_THROW(resolve_scenario(cfg), ConfigError) << bad;
  }
  // The domain map must fit the cluster.
  const char* argv[] = {"test", "scenario=fault_correlated",
                        "fault_domains=64,64"};
  const Config cfg = Config::from_args(3, argv, scenario_config_keys());
  EXPECT_THROW(resolve_scenario(cfg), ConfigError);
  // Sizes past INT_MAX, alone (2^32 + 16 must not wrap to 16) or summed.
  for (const char* wide :
       {"fault_domains=4294967312", "fault_domains=2000000000,2000000000"}) {
    const char* wide_argv[] = {"test", wide};
    EXPECT_THROW(resolve_scenario(
                     Config::from_args(2, wide_argv, scenario_config_keys())),
                 ConfigError)
        << wide;
  }
}

TEST(FaultDomainScenarios, DomainCrashSurfacesCorrelatedMetrics) {
  const auto m = compare_policies(small_domain_spec(), 1)
                     .at(PolicyMode::kElastic);
  EXPECT_GT(m.correlated_failures, 0.0);
  EXPECT_GT(m.failures, 0.0);
  EXPECT_GT(m.recovery_time_s, 0.0);
  EXPECT_LT(m.goodput, 1.0);
  EXPECT_GT(m.goodput, 0.0);
}

TEST(FaultDomainScenarios, SchedSimIsBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = small_domain_spec();
  expect_identical(run_sweep(spec, 1), run_sweep(spec, 8));
}

TEST(FaultDomainScenarios, ClusterIsBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = small_domain_spec();
  spec.substrate = Substrate::kCluster;
  spec.num_jobs = 4;
  expect_identical(run_sweep(spec, 1), run_sweep(spec, 8));
}

TEST(FaultDomainScenarios, ClusterSeesTheCorrelatedBurst) {
  // Same spec as the schedsim burst test: six jobs keep domain 0 occupied
  // at the crash instant (four short-gap jobs all finish before 250 s).
  ScenarioSpec spec = small_domain_spec();
  spec.substrate = Substrate::kCluster;
  const auto m = compare_policies(spec, 1).at(PolicyMode::kElastic);
  EXPECT_GT(m.correlated_failures, 0.0);
  EXPECT_GT(m.failures, 0.0);
  EXPECT_GT(m.recovery_time_s, 0.0);
}

TEST(FaultDomainScenarios, RestoreBandwidthSharingDelaysStormRecovery) {
  // A 32-slot domain crash sends several jobs into restore at once. With
  // unlimited bandwidth the restores overlap freely; with a single restore
  // lane they share it and each one stretches.
  ScenarioSpec spec;
  spec.num_jobs = 8;
  spec.submission_gap_s = 20.0;
  spec.repeats = 2;
  spec.policies = {PolicyMode::kElastic};
  spec.faults.domain_sizes = {32, 32};
  spec.faults.domain_crashes = {{300.0, 0}};
  spec.faults.checkpoint_period_s = 100.0;

  spec.faults.restore_bandwidth = 0.0;
  const auto isolated = compare_policies(spec, 1).at(PolicyMode::kElastic);
  spec.faults.restore_bandwidth = 1.0;
  const auto shared = compare_policies(spec, 1).at(PolicyMode::kElastic);

  ASSERT_GT(isolated.correlated_failures, 0.0);
  EXPECT_EQ(isolated.storm_delay_s, 0.0);
  // storm_peak_restorers is a per-run peak averaged over repeats, so any
  // value above 1 proves restores overlapped in at least one repeat.
  EXPECT_GT(shared.storm_peak_restorers, 1.0);
  EXPECT_GT(shared.storm_delay_s, 0.0);
  EXPECT_GT(shared.recovery_time_s, isolated.recovery_time_s);
  // Unlimited bandwidth still reports how deep the storm got.
  EXPECT_GT(isolated.storm_peak_restorers, 1.0);
}

TEST(FaultDomainScenarios, FailureTraceReplayMatchesExplicitPlan) {
  // The same outage expressed as a CSV trace and as explicit plan events
  // must be bit-identical — and the trace replay itself must be
  // deterministic across thread counts (the resolve happens once per
  // backend construction, before any parallel repeat).
  const std::string path = write_temp("domain_outage.csv",
                                      "250,domain,0\n"
                                      "400,crash\n");
  ScenarioSpec explicit_spec = small_domain_spec();
  explicit_spec.faults.domain_crashes = {{250.0, 0}};
  explicit_spec.faults.crash_times = {400.0};

  ScenarioSpec traced = small_domain_spec();
  traced.faults.domain_crashes.clear();
  traced.faults.failure_trace_path = path;

  expect_identical(run_sweep(explicit_spec, 1), run_sweep(traced, 8));
}

}  // namespace
}  // namespace ehpc::scenario
