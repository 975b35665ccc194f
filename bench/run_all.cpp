// bench_run_all: run every registered bench (all eight figure/table drivers
// are linked into this binary) and write CSVs + summary.json to out_dir.
// `--quick` selects the CI-sized profile used for the committed baselines:
//
//   bench_run_all --quick out_dir=bench/baselines/quick
//
// Scenario mode bypasses the bench registry and runs any scenario from the
// scenario registry (with per-key overrides) through the sweep engine:
//
//   bench_run_all --list-scenarios
//   bench_run_all scenario=fig7_submission_gap repeats=20 threads=8
//
// See bench_compare for diffing the output against a committed baseline.

#include <cmath>
#include <iostream>

#include "bench/lib/runner.hpp"
#include "charm/load_balancer.hpp"
#include "bench/lib/timer.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;

namespace {

/// Render a sweep as one table per §4.3 metric (columns = policies), the
/// same layout the figure benches use.
void report_sweep(bench::Reporter& rep, const scenario::ScenarioSpec& spec,
                  const scenario::SweepResult& sweep) {
  const bool axis_in_seconds =
      spec.axis == scenario::SweepAxis::kSubmissionGap ||
      spec.axis == scenario::SweepAxis::kRescaleGap;
  const std::string x_label =
      spec.axis == scenario::SweepAxis::kNone
          ? "x"
          : to_string(spec.axis) + (axis_in_seconds ? "_s" : "");
  const auto x_cell = [&](double x) {
    if (spec.axis == scenario::SweepAxis::kLbStrategy) {
      return charm::load_balancer_names().at(static_cast<std::size_t>(x));
    }
    return format_double(x, std::floor(x) == x ? 0 : 3);
  };
  std::vector<std::pair<std::string, double elastic::RunMetrics::*>>
      metrics{{"utilization", &elastic::RunMetrics::utilization},
              {"total_time_s", &elastic::RunMetrics::total_time_s},
              {"response_s", &elastic::RunMetrics::weighted_response_s},
              {"completion_s", &elastic::RunMetrics::weighted_completion_s}};
  // LB imbalance health matters exactly when the runtime LB has real work.
  if (spec.app == "amr") {
    metrics.emplace_back("lb_post_ratio", &elastic::RunMetrics::lb_post_ratio);
    metrics.emplace_back("lb_migrations_per_step",
                         &elastic::RunMetrics::lb_migrations_per_step);
  }
  // Recovery accounting matters exactly when the plan injects failures (or
  // the sweep axis does).
  if (!spec.faults.empty() || spec.axis == scenario::SweepAxis::kFaultMtbf ||
      spec.axis == scenario::SweepAxis::kCheckpointPeriod) {
    metrics.emplace_back("recovery_time_s",
                         &elastic::RunMetrics::recovery_time_s);
    metrics.emplace_back("lost_work_s", &elastic::RunMetrics::lost_work_s);
    metrics.emplace_back("goodput", &elastic::RunMetrics::goodput);
    metrics.emplace_back("jobs_failed", &elastic::RunMetrics::jobs_failed);
  }

  for (const auto& [id, member] : metrics) {
    std::vector<std::string> headers{x_label};
    for (const auto mode : spec.policies) {
      headers.push_back(elastic::to_string(mode));
    }
    Table& table =
        rep.add_table(id, id + " per policy (" + spec.name + ")", headers);
    for (const auto& point : sweep.points) {
      std::vector<std::string> row{x_cell(point.x)};
      for (const auto mode : spec.policies) {
        row.push_back(format_double(point.metrics.at(mode).*member, 3));
      }
      table.add_row(row);
    }
  }
  rep.note("scenario " + spec.name + ": " + spec.description);
  rep.note(describe(spec));
}

int run_scenario_mode(const Config& cfg) {
  // Bench-loop flags have no effect on a scenario run; reject them instead
  // of silently ignoring them.
  for (const char* key : {"quick", "only", "list"}) {
    if (cfg.has(key)) {
      std::cerr << "error: '" << key << "' does not apply to scenario mode\n";
      return 2;
    }
  }
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::resolve_scenario(cfg);
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 2;
  }

  const int threads = cfg.get_int("threads", 1);
  std::cout << "[scenario] " << spec.name << " (threads=" << threads << ") ..."
            << std::flush;
  bench::Reporter reporter("scenario_" + spec.name);
  bench::Timer timer;
  scenario::SweepResult sweep;
  try {
    sweep = scenario::run_sweep(spec, threads);
  } catch (const std::exception& err) {
    std::cout << " FAILED\n";
    std::cerr << "error: scenario " << spec.name << ": " << err.what() << "\n";
    return 1;
  }
  reporter.set_wall_ms(timer.elapsed_ms());
  report_sweep(reporter, spec, sweep);

  std::map<std::string, std::string> config;
  for (const auto& key : scenario::spec_config_keys()) {
    if (auto value = cfg.get(key)) config[key] = *value;
  }
  config["scenario"] = spec.name;
  reporter.set_config(std::move(config));

  std::cout << " " << format_double(reporter.wall_ms(), 0) << " ms\n"
            << reporter.to_text();
  if (auto dir = cfg.get("out_dir")) {
    bench::write_outputs({reporter}, *dir, "scenario");
    std::cout << "wrote " << *dir << "/summary.json\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunAllHooks hooks;
  hooks.extra_keys = scenario::scenario_config_keys();
  hooks.extra_keys.push_back("list_scenarios");
  hooks.extra_usage =
      "  list_scenarios=false  list registered scenarios and exit\n"
      "  scenario=NAME         run one registry scenario through the sweep\n"
      "                        engine instead of the bench registry; all\n"
      "                        scenario keys (num_jobs=, sweep_values=, ...)\n"
      "                        become overrides\n";
  hooks.handle = [](const Config& cfg) {
    if (cfg.get_bool("list_scenarios", false)) {
      std::cout << scenario::list_scenarios_text();
      return 0;
    }
    if (cfg.has("scenario")) return run_scenario_mode(cfg);
    // Without scenario=, the spec keys would be parsed but never reach the
    // bench loop (which only forwards seed/threads) — keep unknown-key
    // strictness by rejecting them instead of silently ignoring them.
    for (const auto& key : scenario::spec_config_keys()) {
      if (key != "seed" && cfg.has(key)) {
        std::cerr << "error: '" << key
                  << "' only applies to scenario mode; add scenario=NAME "
                     "(see --list-scenarios)\n";
        return 2;
      }
    }
    return -1;  // fall through to the bench loop
  };
  try {
    return ehpc::bench::run_all_main(argc, argv, &hooks);
  } catch (const ConfigError& err) {  // a flag value that does not parse
    std::cerr << "error: " << err.what() << "\n";
    return 2;
  }
}
