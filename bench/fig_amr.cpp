// Beyond-paper figure: the AMR irregular workload. Three panels:
//   a) scheduler metrics + LB imbalance vs refinement rate (amr_imbalance);
//   b) rescale stage timings while the mesh is heavily imbalanced, per LB
//      strategy (minicharm, cf. Figure 5 for the regular Jacobi case);
//   c) load-balancer ablation null/greedy/refine (amr_lb_ablation).
//
// The experiments are the registered "amr_imbalance" / "amr_lb_ablation"
// scenarios; this driver overlays flags and renders tables.

#include "apps/amr.hpp"
#include "apps/calibration.hpp"
#include "bench/lib/registry.hpp"
#include "charm/load_balancer.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "schedsim/calibrate.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const int repeats = cfg.get_int("repeats", 20);
  const auto seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  const int threads = cfg.get_int("threads", 1);

  // ---- panel a: refinement-rate sweep ----
  scenario::ScenarioSpec imbalance =
      scenario::ScenarioRegistry::instance().require("amr_imbalance");
  imbalance.repeats = repeats;
  imbalance.seed = seed;
  scenario::render_sweep(
      rep, scenario::run_sweep(imbalance, threads),
      {{"fig_amr_a1_utilization",
        "AMR panel a: cluster utilization vs refinement rate",
        &elastic::RunMetrics::utilization},
       {"fig_amr_a2_total_time",
        "AMR panel a: total time (s) vs refinement rate",
        &elastic::RunMetrics::total_time_s},
       {"fig_amr_a3_completion",
        "AMR panel a: weighted mean completion time (s) vs refinement rate",
        &elastic::RunMetrics::weighted_completion_s},
       {"fig_amr_a4_lb_ratio",
        "AMR panel a: mean post-LB max/avg load ratio vs refinement rate",
        &elastic::RunMetrics::lb_post_ratio}},
      {"refine_rate",
       {PolicyMode::kElastic, PolicyMode::kMoldable, PolicyMode::kRigidMin,
        PolicyMode::kRigidMax},
       3});

  // ---- panel b: rescale stage timings under imbalance, per LB strategy ----
  Table& stages = rep.add_table(
      "fig_amr_b_rescale_stages",
      "AMR panel b: 32 -> 16 shrink with a developed refinement front "
      "(minicharm, large class)",
      {"strategy", "lb_s", "ckpt_s", "restart_s", "restore_s", "total_s",
       "migrated_objects"});
  for (const std::string& lb : charm::load_balancer_names()) {
    charm::RuntimeConfig rc;
    rc.load_balancer = lb;
    const apps::AmrConfig config =
        schedsim::amr_config_for(elastic::JobClass::kLarge, /*refine_rate=*/0.12);
    const auto t = apps::measure_rescale<apps::Amr>(
        config, 32, 16, /*warmup_iterations=*/8, rc);
    stages.add_row({lb, format_double(t.load_balance_s, 4),
                    format_double(t.checkpoint_s, 4),
                    format_double(t.restart_s, 4),
                    format_double(t.restore_s, 4), format_double(t.total(), 4),
                    std::to_string(t.migrated_objects)});
  }

  // ---- panel c: LB strategy ablation on the scheduler metrics ----
  scenario::ScenarioSpec ablation =
      scenario::ScenarioRegistry::instance().require("amr_lb_ablation");
  ablation.repeats = repeats;
  ablation.seed = seed;
  const auto ablation_points = scenario::run_sweep(ablation, threads).points;
  Table& lb_table = rep.add_table(
      "fig_amr_c_lb_ablation",
      "AMR panel c: elastic policy per runtime LB strategy",
      {"strategy", "utilization", "total_s", "completion_s", "lb_post_ratio",
       "migrations_per_step"});
  for (const auto& pt : ablation_points) {
    const auto& m = pt.metrics.at(PolicyMode::kElastic);
    lb_table.add_row(
        {charm::load_balancer_names().at(static_cast<std::size_t>(pt.x)),
         format_double(m.utilization, 3), format_double(m.total_time_s, 1),
         format_double(m.weighted_completion_s, 2),
         format_double(m.lb_post_ratio, 3),
         format_double(m.lb_migrations_per_step, 2)});
  }

  std::string note = "(";
  note += std::to_string(repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(seed);
  note += "; AMR workloads are minicharm-calibrated per sweep point)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_amr",
    "AMR irregular workload: imbalance sweep, rescale stages, LB ablation",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
