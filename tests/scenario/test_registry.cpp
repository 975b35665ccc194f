#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ehpc::scenario {
namespace {

TEST(ScenarioRegistry, BuiltInScenariosAreRegistered) {
  auto& registry = ScenarioRegistry::instance();
  for (const char* name :
       {"policy_compare", "fig7_submission_gap", "fig8_rescale_gap", "table1",
        "fig9_cluster", "quickstart", "burst_arrival"}) {
    const ScenarioSpec* spec = registry.find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_FALSE(spec->description.empty()) << name;
    EXPECT_NO_THROW(spec->validate()) << name;
  }
}

TEST(ScenarioRegistry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : ScenarioRegistry::instance().scenarios()) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
}

TEST(ScenarioRegistry, DuplicateNameIsAHardError) {
  auto& registry = ScenarioRegistry::instance();
  const std::size_t before = registry.scenarios().size();
  ScenarioSpec dup;
  dup.name = "table1";  // collides with a built-in
  dup.description = "imposter";
  try {
    registry.add(dup);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("table1"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("already registered"),
              std::string::npos);
  }
  // The rejected spec must not have been (partially) registered.
  EXPECT_EQ(registry.scenarios().size(), before);
  EXPECT_EQ(registry.require("table1").description.find("imposter"),
            std::string::npos);
}

TEST(ScenarioRegistry, SweepScenariosMatchTheFigures) {
  auto& registry = ScenarioRegistry::instance();
  const ScenarioSpec& fig7 = registry.require("fig7_submission_gap");
  EXPECT_EQ(fig7.axis, SweepAxis::kSubmissionGap);
  EXPECT_EQ(fig7.axis_values.size(), 8u);
  const ScenarioSpec& fig8 = registry.require("fig8_rescale_gap");
  EXPECT_EQ(fig8.axis, SweepAxis::kRescaleGap);
  EXPECT_EQ(fig8.axis_values.size(), 8u);
  const ScenarioSpec& fig9 = registry.require("fig9_cluster");
  EXPECT_EQ(fig9.substrate, Substrate::kCluster);
  EXPECT_EQ(fig9.repeats, 1);
}

TEST(ScenarioRegistry, FindReturnsNullForUnknown) {
  EXPECT_EQ(ScenarioRegistry::instance().find("nope"), nullptr);
}

TEST(ScenarioRegistry, RequireListsKnownNamesOnError) {
  try {
    ScenarioRegistry::instance().require("nope");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("fig7_submission_gap"), std::string::npos);
  }
}

TEST(ScenarioRegistry, ResolveScenarioOverlaysConfig) {
  const char* argv[] = {"test", "scenario=fig7_submission_gap", "repeats=3"};
  const Config cfg = Config::from_args(3, argv, scenario_config_keys());
  const ScenarioSpec spec = resolve_scenario(cfg);
  EXPECT_EQ(spec.name, "fig7_submission_gap");
  EXPECT_EQ(spec.repeats, 3);
  EXPECT_EQ(spec.axis, SweepAxis::kSubmissionGap);
}

TEST(ScenarioRegistry, ResolveScenarioUsesDefaultName) {
  const char* argv[] = {"test"};
  const Config cfg = Config::from_args(1, argv, scenario_config_keys());
  EXPECT_EQ(resolve_scenario(cfg, "quickstart").name, "quickstart");
  EXPECT_EQ(resolve_scenario(cfg).name, "custom");  // paper defaults
}

TEST(ScenarioRegistry, ListScenariosTextMentionsEveryScenarioAndKey) {
  const std::string text = list_scenarios_text();
  for (const auto& spec : ScenarioRegistry::instance().scenarios()) {
    EXPECT_NE(text.find(spec.name), std::string::npos) << spec.name;
    EXPECT_NE(text.find(spec.description), std::string::npos) << spec.name;
  }
  for (const auto& key : spec_config_keys()) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

Config config_of_description(const std::string& text) {
  std::vector<std::string> tokens{"test"};
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = std::min(text.find(' ', start), text.size());
    tokens.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  std::vector<const char*> argv;
  for (const auto& token : tokens) argv.push_back(token.c_str());
  return Config::from_args(static_cast<int>(argv.size()), argv.data(),
                           spec_config_keys());
}

// describe() of every registry scenario, pinned byte for byte: recorded
// bench configs and --list-scenarios output must not drift.
TEST(ScenarioRegistry, DescribeIsPinnedForEveryScenario) {
  const std::map<std::string, std::string> golden{
      {"policy_compare",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=100 seed=2025"},
      {"fig7_submission_gap",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=submission_gap sweep_values=0,30,60,90,120,180,240,300 "
       "repeats=100 seed=2025"},
      {"fig8_rescale_gap",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=rescale_gap sweep_values=0,60,120,180,300,600,900,1200 "
       "repeats=100 seed=2025"},
      {"table1",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=1 seed=2025"},
      {"fig9_cluster",
       "substrate=cluster nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=1 seed=2025"},
      {"quickstart",
       "substrate=cluster nodes=4 cpus_per_node=16 num_jobs=3 "
       "submission_gap=90 rescale_gap=30 calibrated=true app=jacobi "
       "policies=elastic sweep_axis=none repeats=1 seed=2025"},
      {"burst_arrival",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=32 "
       "submission_gap=0 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"amr_imbalance",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=refine_rate sweep_values=0,0.06,0.12,0.24 repeats=20 "
       "seed=2025"},
      {"amr_rescale",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=30 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=rescale_gap sweep_values=0,60,180,600 repeats=20 "
       "seed=2025"},
      {"amr_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy policies=elastic "
       "sweep_axis=lb_strategy sweep_values=0,1,2 repeats=20 seed=2025"},
      {"graph_superstep",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=graph "
       "graph_vertices=4096 graph_skew=0.8 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=graph_skew sweep_values=0,0.5,0.9 repeats=20 seed=2025"},
      {"graph_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=graph "
       "graph_vertices=4096 graph_skew=0.9 lb_strategy=greedy "
       "net_model=fattree net_oversub=4 policies=elastic "
       "sweep_axis=lb_strategy sweep_values=1,3 repeats=20 seed=2025"},
      {"fault_recovery",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "fault_times=400,1100 evict_times=700 checkpoint_period=300 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"fault_churn",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=300 max_failed_nodes=2 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=fault_mtbf sweep_values=600,1200,2400,4800 repeats=20 "
       "seed=2025"},
      {"fault_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy fault_mtbf=900 "
       "checkpoint_period=300 policies=elastic sweep_axis=lb_strategy "
       "sweep_values=0,1,2 repeats=20 seed=2025"},
      {"fault_correlated",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=300 fault_domains=16,16,16,16 "
       "fault_domain_crash_times=500:1,1300:3 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"fault_storm",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=24 "
       "submission_gap=30 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=200 fault_domains=32,32 "
       "fault_domain_crash_times=600:0 restore_bandwidth=2 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"k8s_scale",
       "substrate=cluster nodes=1000 cpus_per_node=16 num_jobs=100 "
       "pods_per_job=100 submission_gap=10 rescale_gap=300 "
       "calibrated=false app=jacobi policies=min_replicas sweep_axis=none "
       "repeats=1 seed=2025"},
      {"trace_replay",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=60 rescale_gap=180 calibrated=false app=jacobi "
       "trace_jobs=2000 queue_timeout=3600 task_timeout=900 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=3 seed=2025"},
  };
  const auto& scenarios = ScenarioRegistry::instance().scenarios();
  EXPECT_EQ(scenarios.size(), golden.size());
  for (const auto& spec : scenarios) {
    ASSERT_EQ(golden.count(spec.name), 1u) << spec.name;
    EXPECT_EQ(describe(spec), golden.at(spec.name)) << spec.name;
  }
}

TEST(ScenarioRegistry, DescribeParseDescribeIsTheIdentity) {
  for (const auto& spec : ScenarioRegistry::instance().scenarios()) {
    const std::string text = describe(spec);
    EXPECT_EQ(describe(spec_from_config(config_of_description(text))), text)
        << spec.name;
  }
}

}  // namespace
}  // namespace ehpc::scenario
