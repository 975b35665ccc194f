// Reproduces paper Table 1: the four scheduling policies compared on four
// metrics, with both the "Simulation" flavour (the pure scheduler-performance
// simulator, ignoring operator/pod overheads) and the "Actual" flavour (the
// same mix executed through the operator on the Kubernetes substrate).
//
// Paper setup: T_rescale_gap = 180 s, submission gap 90 s, one job set
// picked from the random generator. The experiment is the registered
// "table1" scenario, executed once per substrate through the backend seam.

#include <map>
#include <utility>

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
      scenario::ScenarioRegistry::instance().require("table1");
  spec.seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  spec.submission_gap_s = cfg.get_double("gap", 90.0);
  spec.rescale_gap_s = cfg.get_double("rescale_gap", 180.0);
  spec.calibrated = cfg.get_bool("calibrated", true);

  const auto workloads = scenario::workloads_for(spec);
  spec.substrate = scenario::Substrate::kSchedSim;
  const auto simulated = scenario::run_policies(spec, spec.seed, workloads);
  spec.substrate = scenario::Substrate::kCluster;
  const auto actual = scenario::run_policies(spec, spec.seed, workloads);

  Table& table = rep.add_table(
      "table1",
      "Table 1: actual (k8s substrate) and simulation results",
      {"scheduler", "total_actual_s", "total_sim_s", "util_actual", "util_sim",
       "response_actual_s", "response_sim_s", "completion_actual_s",
       "completion_sim_s"});

  std::map<PolicyMode, std::pair<elastic::RunMetrics, elastic::RunMetrics>> all;
  for (const PolicyMode mode : spec.policies) {
    const auto& sim_metrics = simulated.at(mode).metrics;
    const auto& act_metrics = actual.at(mode).metrics;
    all.emplace(mode, std::make_pair(act_metrics, sim_metrics));
    table.add_row({elastic::to_string(mode),
                   format_double(act_metrics.total_time_s, 0),
                   format_double(sim_metrics.total_time_s, 0),
                   format_double(act_metrics.utilization, 4),
                   format_double(sim_metrics.utilization, 4),
                   format_double(act_metrics.weighted_response_s, 2),
                   format_double(sim_metrics.weighted_response_s, 2),
                   format_double(act_metrics.weighted_completion_s, 2),
                   format_double(sim_metrics.weighted_completion_s, 2)});
  }

  const auto& [ea, es] = all.at(PolicyMode::kElastic);
  (void)es;
  bool elastic_best = true;
  for (const auto& [mode, pair] : all) {
    if (mode == PolicyMode::kElastic) continue;
    if (ea.total_time_s > pair.first.total_time_s + 1e-9 ||
        ea.utilization < pair.first.utilization - 1e-9) {
      elastic_best = false;
    }
  }
  rep.note(std::string("Elastic best on total time & utilization (actual): ") +
           (elastic_best ? "yes" : "NO — investigate"));
}

const bench::RegisterBench kReg{{
    "table1_policies",
    "Table 1: four policies, simulated and actual (k8s substrate) metrics",
    {{"seed", "2025", "job mix RNG seed"},
     {"gap", "90", "submission gap in seconds"},
     {"rescale_gap", "180", "T_rescale_gap in seconds"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"}},
    {},
    run}};

}  // namespace
