#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "charm/load_balancer.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;

Config config_of(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return Config::from_args(static_cast<int>(args.size()), args.data());
}

TEST(ScenarioSpec, DefaultsMatchThePaperSetup) {
  const ScenarioSpec spec;
  EXPECT_EQ(spec.substrate, Substrate::kSchedSim);
  EXPECT_EQ(spec.total_slots(), 64);  // 4 nodes x 16 vCPUs
  EXPECT_EQ(spec.num_jobs, 16);
  EXPECT_DOUBLE_EQ(spec.submission_gap_s, 90.0);
  EXPECT_DOUBLE_EQ(spec.rescale_gap_s, 180.0);
  EXPECT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.repeats, 100);
  EXPECT_EQ(spec.seed, 2025u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpec, ConfigOverlaysEveryKey) {
  const auto cfg = config_of(
      {"substrate=cluster", "nodes=2", "cpus_per_node=8", "num_jobs=5",
       "submission_gap=10", "rescale_gap=20", "calibrated=false",
       "policies=elastic,moldable", "sweep_axis=submission_gap",
       "sweep_values=0,30,60", "repeats=7", "seed=11"});
  const ScenarioSpec spec = spec_from_config(cfg);
  EXPECT_EQ(spec.substrate, Substrate::kCluster);
  EXPECT_EQ(spec.total_slots(), 16);
  EXPECT_EQ(spec.num_jobs, 5);
  EXPECT_DOUBLE_EQ(spec.submission_gap_s, 10.0);
  EXPECT_DOUBLE_EQ(spec.rescale_gap_s, 20.0);
  EXPECT_FALSE(spec.calibrated);
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], PolicyMode::kElastic);
  EXPECT_EQ(spec.policies[1], PolicyMode::kMoldable);
  EXPECT_EQ(spec.axis, SweepAxis::kSubmissionGap);
  EXPECT_EQ(spec.axis_values, (std::vector<double>{0.0, 30.0, 60.0}));
  EXPECT_EQ(spec.repeats, 7);
  EXPECT_EQ(spec.seed, 11u);
}

TEST(ScenarioSpec, UnsetKeysKeepTheBaseSpec) {
  ScenarioSpec base;
  base.num_jobs = 42;
  base.substrate = Substrate::kCluster;
  const ScenarioSpec spec = spec_from_config(config_of({"seed=3"}), base);
  EXPECT_EQ(spec.num_jobs, 42);
  EXPECT_EQ(spec.substrate, Substrate::kCluster);
  EXPECT_EQ(spec.seed, 3u);
}

TEST(ScenarioSpec, PoliciesAllExpandsToAllFour) {
  const ScenarioSpec spec = spec_from_config(config_of({"policies=all"}));
  EXPECT_EQ(spec.policies.size(), 4u);
}

TEST(ScenarioSpec, BadValuesRaiseConfigError) {
  EXPECT_THROW(spec_from_config(config_of({"substrate=cloud"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"sweep_axis=priority"})),
               ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"policies=greedy"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"policies="})), ConfigError);
  EXPECT_THROW(
      spec_from_config(config_of({"sweep_axis=rescale_gap",
                                  "sweep_values=1,x"})),
      ConfigError);
}

TEST(ScenarioSpec, ValidateRejectsInconsistentSpecs) {
  ScenarioSpec spec;
  spec.num_jobs = 0;
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.axis = SweepAxis::kRescaleGap;  // no values
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.axis_values = {1.0};  // values without an axis
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.policies.clear();
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(ScenarioSpec, DescribeRoundTripsThroughConfigKeys) {
  ScenarioSpec spec;
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0, 30};
  const std::string text = describe(spec);
  // Every token of the description must be a known config key.
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    const std::string key = token.substr(0, eq);
    const auto& keys = spec_config_keys();
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }
}

Config config_of_text(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens{"test"};
  for (std::string token; in >> token;) tokens.push_back(token);
  std::vector<const char*> argv;
  for (const auto& token : tokens) argv.push_back(token.c_str());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

std::string error_of(const std::function<void()>& body) {
  try {
    body();
  } catch (const ConfigError& err) {
    return err.what();
  }
  return "";
}

TEST(ScenarioSpec, MalformedValuesAreRejectedNamingKeyAndValue) {
  for (const char* arg :
       {"submission_gap=abc", "num_jobs=16x", "calibrated=maybe",
        "repeats=2.9", "seed=-1", "trace_jobs=99999999999"}) {
    const std::string text = arg;
    const std::string key = text.substr(0, text.find('='));
    const std::string value = text.substr(text.find('=') + 1);
    const std::string what =
        error_of([&] { spec_from_config(config_of({arg})); });
    if (what.empty()) {
      ADD_FAILURE() << arg << " was accepted";
      continue;
    }
    EXPECT_NE(what.find(key), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, DescribeRoundTripsEveryDoubleExactly) {
  struct Case {
    const char* arg;
    std::function<double(const ScenarioSpec&)> field;
  };
  const std::vector<Case> cases{
      {"submission_gap=3.75", [](auto& s) { return s.submission_gap_s; }},
      {"rescale_gap=0.5", [](auto& s) { return s.rescale_gap_s; }},
      {"straggler_at=12.5", [](auto& s) { return s.faults.straggler_at_s; }},
      {"straggler_factor=1.125",
       [](auto& s) { return s.faults.straggler_factor; }},
      {"queue_timeout=0.25", [](auto& s) { return s.queue_timeout_s; }},
      {"cron_period=7.5", [](auto& s) { return s.cron_period_s; }},
      {"fault_mtbf=450.5", [](auto& s) { return s.faults.crash_mtbf_s; }},
      {"refine_rate=0.0625", [](auto& s) { return s.refine_rate; }},
      {"fault_detection=10", [](auto& s) { return s.faults.detection_s; }},
  };
  for (const auto& c : cases) {
    const ScenarioSpec spec = spec_from_config(config_of({c.arg}));
    const std::string text = describe(spec);
    const ScenarioSpec back = spec_from_config(config_of_text(text));
    EXPECT_EQ(c.field(back), c.field(spec)) << c.arg << " -> " << text;
  }
}

TEST(ScenarioSpec, DescribeKeepsShortNumbersShort) {
  ScenarioSpec spec;
  spec.app = "amr";
  const std::string text = describe(spec);
  EXPECT_NE(text.find(" submission_gap=90 "), std::string::npos) << text;
  EXPECT_NE(text.find(" refine_rate=0.12 "), std::string::npos) << text;
}

/// The help entry of one key: its line plus any continuation lines.
std::string help_entry(const std::string& key) {
  const std::string help = spec_config_help();
  const std::size_t start = help.find("  " + key + "=");
  EXPECT_NE(start, std::string::npos) << key;
  std::size_t end = start;
  do {
    end = help.find('\n', end + 1);
  } while (end != std::string::npos && end + 3 < help.size() &&
           help[end + 1] == ' ' && help[end + 2] == ' ' &&
           help[end + 3] == ' ');
  return help.substr(start, end - start);
}

TEST(ScenarioSpec, HelpAndErrorsListEveryAxisAndLoadBalancer) {
  const std::string axis_help = help_entry("sweep_axis");
  const std::string axis_error =
      error_of([] { sweep_axis_from_string("bogus"); });
  for (int a = static_cast<int>(SweepAxis::kNone);
       a <= static_cast<int>(SweepAxis::kNetOversub); ++a) {
    const std::string name = to_string(static_cast<SweepAxis>(a));
    EXPECT_NE(axis_help.find(name), std::string::npos) << name;
    EXPECT_NE(axis_error.find(name), std::string::npos) << name;
  }
  const std::string lb_help = help_entry("lb_strategy");
  const std::string lb_error =
      error_of([] { spec_from_config(config_of({"lb_strategy=bogus"})); });
  for (const auto& lb : charm::load_balancer_names()) {
    EXPECT_NE(lb_help.find(lb), std::string::npos) << lb;
    EXPECT_NE(lb_error.find(lb), std::string::npos) << lb;
  }
}

TEST(ScenarioSpec, EveryAxisNameRoundTrips) {
  for (int a = static_cast<int>(SweepAxis::kNone);
       a <= static_cast<int>(SweepAxis::kNetOversub); ++a) {
    const auto axis = static_cast<SweepAxis>(a);
    EXPECT_EQ(sweep_axis_from_string(to_string(axis)), axis);
  }
}

TEST(ScenarioSpec, SweepValuesAreCheckedLikeTheScalarKey) {
  ScenarioSpec spec;
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, -1.0};  // a negative gap, like submission_gap=-1
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.axis = SweepAxis::kFaultMtbf;
  spec.axis_values = {600.0, 0.0};  // 0 turns the crash chain off
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.app = "amr";
  spec.axis = SweepAxis::kLbStrategy;
  spec.axis_values = {0.0, 1.5};  // values index load_balancer_names()
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.axis_values = {0.0, static_cast<double>(
                               charm::load_balancer_names().size() - 1)};
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace ehpc::scenario
