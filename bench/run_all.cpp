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

#include <iostream>

#include "bench/lib/runner.hpp"
#include "bench/lib/timer.hpp"
#include "charm/load_balancer.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;

namespace {

/// Render a sweep as one table per §4.3 metric (columns = policies), the
/// same layout the figure benches use.
void add_sweep_tables(bench::Reporter& rep, const scenario::ScenarioSpec& spec,
                      const scenario::SweepResult& sweep) {
  const bool axis_in_seconds =
      spec.axis == scenario::SweepAxis::kSubmissionGap ||
      spec.axis == scenario::SweepAxis::kRescaleGap;
  scenario::SweepColumns columns{
      spec.axis == scenario::SweepAxis::kNone
          ? "x"
          : to_string(spec.axis) + (axis_in_seconds ? "_s" : ""),
      spec.policies};
  if (spec.axis == scenario::SweepAxis::kLbStrategy) {
    columns.x_names = &charm::load_balancer_names();
  }
  std::vector<scenario::SweepTable> tables;
  const auto add = [&](const std::string& id,
                       double elastic::RunMetrics::*metric) {
    tables.push_back({id, id + " per policy (" + spec.name + ")", metric});
  };
  add("utilization", &elastic::RunMetrics::utilization);
  add("total_time_s", &elastic::RunMetrics::total_time_s);
  add("response_s", &elastic::RunMetrics::weighted_response_s);
  add("completion_s", &elastic::RunMetrics::weighted_completion_s);
  // LB imbalance health matters exactly when the runtime LB has real work.
  if (spec.app == "amr") {
    add("lb_post_ratio", &elastic::RunMetrics::lb_post_ratio);
    add("lb_migrations_per_step", &elastic::RunMetrics::lb_migrations_per_step);
  }
  // Recovery accounting matters exactly when the plan injects failures (or
  // the sweep axis does).
  if (!spec.faults.empty() || spec.axis == scenario::SweepAxis::kFaultMtbf ||
      spec.axis == scenario::SweepAxis::kCheckpointPeriod) {
    add("recovery_time_s", &elastic::RunMetrics::recovery_time_s);
    add("lost_work_s", &elastic::RunMetrics::lost_work_s);
    add("goodput", &elastic::RunMetrics::goodput);
    add("jobs_failed", &elastic::RunMetrics::jobs_failed);
  }
  scenario::render_sweep(rep, sweep, tables, columns);
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
  add_sweep_tables(reporter, spec, sweep);

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
