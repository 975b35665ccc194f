// Reproduces paper Figure 7: scheduler performance vs job submission rate.
// 16 random jobs (4 size classes, priorities 1-5), T_rescale_gap = 180 s,
// submission gap swept 0..300 s; four metrics for the four policies,
// averaged over `repeats` random mixes.
//
// The experiment itself is the registered "fig7_submission_gap" scenario;
// this driver only overlays flags and renders tables. `threads=N` (a common
// harness flag) fans the sweep cells out deterministically.

#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::instance().require("fig7_submission_gap");
  spec.repeats = cfg.get_int("repeats", 100);
  spec.seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  spec.calibrated = cfg.get_bool("calibrated", true);

  scenario::render_sweep(
      rep, scenario::run_sweep(spec, cfg.get_int("threads", 1)),
      {{"fig7a_utilization",
        "Figure 7a: cluster utilization vs submission gap",
        &elastic::RunMetrics::utilization},
       {"fig7b_total_time", "Figure 7b: total time (s) vs submission gap",
        &elastic::RunMetrics::total_time_s},
       {"fig7c_response",
        "Figure 7c: weighted mean response time (s) vs submission gap",
        &elastic::RunMetrics::weighted_response_s},
       {"fig7d_completion",
        "Figure 7d: weighted mean completion time (s) vs submission gap",
        &elastic::RunMetrics::weighted_completion_s}},
      {"gap_s",
       {PolicyMode::kElastic, PolicyMode::kMoldable, PolicyMode::kRigidMin,
        PolicyMode::kRigidMax},
       0});

  std::string note = "(";
  note += std::to_string(spec.repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(spec.seed);
  note += ", ";
  note += spec.calibrated ? "minicharm-calibrated" : "analytic";
  note += " step-time curves)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig7_submission_gap",
    "Figure 7: scheduler metrics vs job submission gap (four policies)",
    {{"repeats", "100", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"}},
    {{"repeats", "10"}},
    run}};

}  // namespace
