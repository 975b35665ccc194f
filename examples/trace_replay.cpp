// Replay a job trace under the scenario's policies and compare the paper's
// four metrics. With any trace key set (trace=, trace_jobs=, cron_period=)
// the replay streams through the bounded-memory trace engine: submissions
// are pulled lazily from the TraceSource and finished jobs retire to
// summaries, so a CSV or synthetic trace of any length replays in memory
// proportional to in-flight jobs. Without trace keys the scenario's
// generated job mix runs on the batch path, as before.
//
// Usage: trace_replay [scenario=NAME] [trace=path.csv] [trace_jobs=N]
//                     [cron_period=S] [queue_timeout=S] [task_timeout=S]
//                     [substrate=schedsim|cluster] [key=value ...]
// Any scenario key works as an override (see usage text on bad flags).
// CSV lines are: id,class,priority,submit_time[,queue_timeout[,task_timeout
// [,max_failed_nodes]]] with class one of small|medium|large|xlarge;
// malformed lines are hard errors naming the line number.

#include <iostream>

#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec;
  try {
    const Config cfg =
        Config::from_args(argc, argv, scenario::scenario_config_keys());
    spec = scenario::resolve_scenario(cfg);
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n"
              << "usage: trace_replay [scenario=NAME] [trace=path.csv] "
              << "[key=value ...]\n\nscenario keys:\n"
              << scenario::spec_config_help();
    return 2;
  }

  try {
    if (spec.is_trace()) {
      std::cout << "Streaming trace replay (" << scenario::describe(spec)
                << ")\n\n";
      const auto results = scenario::run_policies(
          spec, spec.seed, scenario::workloads_for(spec));
      Table table({"scheduler", "jobs", "peak_live", "abandoned", "timed_out",
                   "resp_p50", "resp_p99", "utilization", "total_s"});
      for (const PolicyMode mode : spec.policies) {
        const auto& result = results.at(mode);
        const auto& m = result.metrics;
        table.add_row({elastic::to_string(mode),
                       std::to_string(result.stream.jobs_submitted),
                       std::to_string(result.stream.peak_live_jobs),
                       std::to_string(static_cast<long>(m.jobs_abandoned)),
                       std::to_string(static_cast<long>(m.jobs_timed_out)),
                       format_double(result.stream.response_p50, 1),
                       format_double(result.stream.response_p99, 1),
                       format_double(m.utilization, 4),
                       format_double(m.total_time_s, 1)});
      }
      std::cout << table.to_text();
      return 0;
    }

    std::cout << "Replaying a generated mix of " << spec.num_jobs
              << " jobs\n\n";
    const auto results = scenario::run_policies(
        spec, spec.seed, scenario::workloads_for(spec));
    Table table({"scheduler", "total_s", "utilization", "response_s",
                 "completion_s", "rescales"});
    for (const PolicyMode mode : spec.policies) {
      const auto& result = results.at(mode);
      table.add_row({elastic::to_string(mode),
                     format_double(result.metrics.total_time_s, 1),
                     format_double(result.metrics.utilization, 4),
                     format_double(result.metrics.weighted_response_s, 2),
                     format_double(result.metrics.weighted_completion_s, 2),
                     std::to_string(result.rescale_count)});
    }
    std::cout << table.to_text();
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
  return 0;
}
