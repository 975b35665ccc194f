// Reproduces paper Figure 8: scheduler performance vs T_rescale_gap at a
// fixed submission gap. As the gap grows, the elastic scheduler converges to
// the moldable scheduler.
//
// The paper fixes the submission gap at 180 s; with this repo's calibrated
// job durations (which match Table 1's totals) 180 s leaves too little
// contention for rescaling to matter, so the default here is 90 s — the Fig 8
// phenomenology (falling utilization, rising total time, convergence to
// moldable) is fully visible there. Pass submission_gap=180 for the paper's
// literal setting.
//
// The experiment itself is the registered "fig8_rescale_gap" scenario;
// `threads=N` (a common harness flag) fans the sweep cells out.

#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::instance().require("fig8_rescale_gap");
  spec.repeats = cfg.get_int("repeats", 100);
  spec.seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  spec.calibrated = cfg.get_bool("calibrated", true);
  spec.submission_gap_s = cfg.get_double("submission_gap", 90.0);

  scenario::render_sweep(
      rep, scenario::run_sweep(spec, cfg.get_int("threads", 1)),
      {{"fig8a_utilization",
        "Figure 8a: cluster utilization vs T_rescale_gap",
        &elastic::RunMetrics::utilization},
       {"fig8b_total_time", "Figure 8b: total time (s) vs T_rescale_gap",
        &elastic::RunMetrics::total_time_s},
       {"fig8c_response",
        "Figure 8c: weighted mean response time (s) vs T_rescale_gap",
        &elastic::RunMetrics::weighted_response_s},
       {"fig8d_completion",
        "Figure 8d: weighted mean completion time (s) vs T_rescale_gap",
        &elastic::RunMetrics::weighted_completion_s}},
      {"rescale_gap_s",
       {PolicyMode::kElastic, PolicyMode::kMoldable, PolicyMode::kRigidMin,
        PolicyMode::kRigidMax},
       0});

  std::string note = "(";
  note += std::to_string(spec.repeats);
  note += " random mixes per point, submission gap ";
  note += format_double(spec.submission_gap_s, 0);
  note += " s; elastic -> moldable as the gap grows)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig8_rescale_gap",
    "Figure 8: scheduler metrics vs T_rescale_gap (elastic converges to moldable)",
    {{"repeats", "100", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"},
     {"submission_gap", "90", "fixed submission gap in seconds"}},
    {{"repeats", "10"}},
    run}};

}  // namespace
