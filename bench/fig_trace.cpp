// Beyond-paper figure: the streaming trace-campaign engine at production
// trace lengths. Each scale row replays a synthetic arrival trace through
// `run_stream` (the `trace_replay` scenario with prun-style queue/task
// timeouts) and records *deterministic* cells:
//
//   peak_live        high-water mark of in-flight JobExec records — the
//                    bounded-memory claim: it tracks concurrency, not trace
//                    length, so 10k -> 1M grows jobs 100x while peak_live
//                    stays flat
//   completed/abandoned/timed_out  per-outcome job counts
//   resp_p50/p99     online P² percentiles of response time, folded as jobs
//                    retire (no per-job records are retained)
//
// Replay throughput (jobs/s wall clock) goes into a note, not a compared
// cell — timing is machine-dependent; the bench's total wall_ms is guarded
// by the perf-gate wall ceiling and the micro floor lives in
// micro_benchmarks (BM_TraceReplay).
//
// The second table compares the four policies on the `trace_replay`
// scenario itself (both tails of the same streamed trace per policy).

#include <algorithm>
#include <string>
#include <vector>

#include "bench/lib/registry.hpp"
#include "bench/lib/timer.hpp"
#include "common/table.hpp"
#include "scenario/backend.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const auto seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  const long max_jobs = cfg.get_int("max_jobs", 1000000);
  const long policy_jobs = cfg.get_int("policy_jobs", 2000);

  const scenario::ScenarioSpec base =
      scenario::ScenarioRegistry::instance().require("trace_replay");

  // ---- scale rows: one streamed replay per trace length ----
  Table& scale = rep.add_table(
      "fig_trace_scale",
      "Streaming replay vs trace length (trace_replay scenario, elastic "
      "policy): memory tracks in-flight jobs, not trace length",
      {"jobs", "peak_live", "completed", "abandoned", "timed_out", "resp_p50",
       "resp_p99", "utilization", "total_time_s"});

  std::string timing = "wall clock per row:";
  for (const long jobs : {10000L, 100000L, 1000000L}) {
    if (jobs > max_jobs) continue;
    scenario::ScenarioSpec spec = base;
    spec.trace_jobs = jobs;
    spec.seed = seed;
    spec.policies = {elastic::PolicyMode::kElastic};

    bench::Timer timer;
    const schedsim::SimResult result =
        scenario::run_policies(spec, seed, scenario::workloads_for(spec))
            .at(elastic::PolicyMode::kElastic);
    const double wall_ms = timer.elapsed_ms();

    const schedsim::StreamStats& stream = result.stream;
    const elastic::RunMetrics& m = result.metrics;
    const long completed = stream.jobs_submitted -
                           static_cast<long>(m.jobs_failed) -
                           static_cast<long>(m.jobs_abandoned) -
                           static_cast<long>(m.jobs_timed_out);
    scale.add_row({std::to_string(stream.jobs_submitted),
                   std::to_string(stream.peak_live_jobs),
                   std::to_string(completed),
                   std::to_string(static_cast<long>(m.jobs_abandoned)),
                   std::to_string(static_cast<long>(m.jobs_timed_out)),
                   format_double(stream.response_p50, 1),
                   format_double(stream.response_p99, 1),
                   format_double(m.utilization, 3),
                   format_double(m.total_time_s, 1)});

    timing += " ";
    timing += std::to_string(jobs);
    timing += "j=";
    timing += format_double(wall_ms, 0);
    timing += "ms (";
    timing += format_double(1000.0 * static_cast<double>(jobs) /
                                std::max(wall_ms, 1e-9),
                            0);
    timing += " jobs/s)";
  }
  rep.note(timing);

  // ---- policy comparison on the registry scenario ----
  scenario::ScenarioSpec policy_spec = base;
  policy_spec.trace_jobs = policy_jobs;
  policy_spec.seed = seed;

  Table& policies = rep.add_table(
      "fig_trace_policies",
      "Four policies replaying the identical streamed trace (trace_replay "
      "scenario)",
      {"policy", "peak_live", "abandoned", "timed_out", "resp_p50", "resp_p99",
       "utilization", "goodput", "total_time_s"});
  const auto results = scenario::run_policies(
      policy_spec, seed, scenario::workloads_for(policy_spec));
  for (const auto& [mode, result] : results) {
    const schedsim::StreamStats& stream = result.stream;
    const elastic::RunMetrics& m = result.metrics;
    policies.add_row({elastic::to_string(mode),
                      std::to_string(stream.peak_live_jobs),
                      std::to_string(static_cast<long>(m.jobs_abandoned)),
                      std::to_string(static_cast<long>(m.jobs_timed_out)),
                      format_double(stream.response_p50, 1),
                      format_double(stream.response_p99, 1),
                      format_double(m.utilization, 3),
                      format_double(m.goodput, 3),
                      format_double(m.total_time_s, 1)});
  }

  std::string note = "(seed ";
  note += std::to_string(seed);
  note += "; all cells are virtual-time deterministic — replay throughput is "
          "reported only in the wall-clock note and via the bench wall_ms)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_trace",
    "Streaming trace campaigns: bounded-memory replay up to 1M jobs plus a "
    "policy comparison on the trace_replay scenario",
    {{"seed", "2025", "base RNG seed"},
     {"max_jobs", "1000000", "largest scale row to run"},
     {"policy_jobs", "2000", "trace length of the policy-comparison table"}},
    {{"max_jobs", "10000"}, {"policy_jobs", "500"}},
    run}};

}  // namespace
