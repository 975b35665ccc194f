// Beyond-paper figure: the power-law graph workload on the topology-aware
// network model. Three panels:
//   a) scheduler metrics vs the skew exponent (graph_superstep): hub
//      concentration grows along the axis and the per-point calibration
//      feeds it into the scheduler-level curves;
//   b) minicharm mean superstep time for greedy vs commrefine while the
//      fat-tree core oversubscription rises — the headline claim: the
//      comm-aware balancer wins on hub-skewed graphs and the gap widens
//      as bisection bandwidth shrinks;
//   c) load-balancer ablation on the scheduler metrics over the
//      4x-oversubscribed fat-tree (graph_lb_ablation).
//
// Panels a/c are the registered scenarios; panel b drives the runtime
// directly so the step-time mechanism is visible without the scheduler on
// top.

#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/graph.hpp"
#include "bench/lib/registry.hpp"
#include "charm/runtime.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "net/network_model.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

/// Mean virtual-time superstep seconds for the graph config on 32 PEs under
/// one (load balancer, network) combination.
double mean_step_seconds(const apps::GraphConfig& config,
                         const std::string& lb, double oversub,
                         int lb_period) {
  charm::RuntimeConfig rc;
  rc.pes_per_node = 4;
  rc.load_balancer = lb;
  rc.network = net::make_network_model("fattree", oversub);
  return apps::measure_scaling<apps::Graph>(config, {32}, lb_period, rc)
      .front()
      .time_per_step_s;
}

void run(bench::Reporter& rep, const Config& cfg) {
  const int repeats = cfg.get_int("repeats", 20);
  const auto seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  const int threads = cfg.get_int("threads", 1);
  const int vertices = cfg.get_int("vertices", 16384);

  // ---- panel a: skew sweep through the scheduler ----
  scenario::ScenarioSpec superstep =
      scenario::ScenarioRegistry::instance().require("graph_superstep");
  superstep.repeats = repeats;
  superstep.seed = seed;
  scenario::render_sweep(
      rep, scenario::run_sweep(superstep, threads),
      {{"fig_graph_a1_utilization",
        "Graph panel a: cluster utilization vs power-law skew",
        &elastic::RunMetrics::utilization},
       {"fig_graph_a2_total_time",
        "Graph panel a: total time (s) vs power-law skew",
        &elastic::RunMetrics::total_time_s},
       {"fig_graph_a3_completion",
        "Graph panel a: weighted mean completion time (s) vs power-law skew",
        &elastic::RunMetrics::weighted_completion_s}},
      {"graph_skew",
       {PolicyMode::kElastic, PolicyMode::kMoldable, PolicyMode::kRigidMin,
        PolicyMode::kRigidMax},
       3});

  // ---- panel b: oversubscription vs LB strategy on the runtime ----
  apps::GraphConfig config;
  config.vertices = vertices;
  config.parts = 64;
  config.skew = 0.9;
  config.max_iterations = 10;
  Table& oversub_table = rep.add_table(
      "fig_graph_b_oversub",
      "Graph panel b: mean superstep time (s), 32 PEs / 4 per node, "
      "skew 0.9 fat-tree, LB every 2 supersteps",
      {"net_oversub", "greedy_step_s", "commrefine_step_s",
       "commrefine_speedup"});
  // Below the switch radix (4) the core is not structurally oversubscribed
  // and the hub access links dominate, so the gap holds steady; past it the
  // per-transfer core penalty scales with oversub and the gap widens.
  for (const double oversub : {1.0, 4.0, 8.0, 16.0}) {
    const double greedy =
        mean_step_seconds(config, "greedy", oversub, /*lb_period=*/2);
    const double comm =
        mean_step_seconds(config, "commrefine", oversub, /*lb_period=*/2);
    oversub_table.add_row({format_double(oversub, 0),
                           format_double(greedy, 6), format_double(comm, 6),
                           format_double(greedy / comm, 3)});
  }

  // ---- panel c: LB ablation through the scheduler ----
  scenario::ScenarioSpec ablation =
      scenario::ScenarioRegistry::instance().require("graph_lb_ablation");
  ablation.repeats = repeats;
  ablation.seed = seed;
  const auto ablation_points = scenario::run_sweep(ablation, threads).points;
  Table& lb_table = rep.add_table(
      "fig_graph_c_lb_ablation",
      "Graph panel c: elastic policy per runtime LB strategy "
      "(fat-tree, oversub 4)",
      {"strategy", "utilization", "total_s", "completion_s",
       "migrations_per_step"});
  for (const auto& pt : ablation_points) {
    const auto& m = pt.metrics.at(PolicyMode::kElastic);
    lb_table.add_row(
        {charm::load_balancer_names().at(static_cast<std::size_t>(pt.x)),
         format_double(m.utilization, 3), format_double(m.total_time_s, 1),
         format_double(m.weighted_completion_s, 2),
         format_double(m.lb_migrations_per_step, 2)});
  }

  std::string note = "(";
  note += std::to_string(repeats);
  note += " random mixes per scenario point, seed ";
  note += std::to_string(seed);
  note += "; panel b runs minicharm directly with ";
  note += std::to_string(vertices);
  note += " vertices)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_graph",
    "Power-law graph: skew sweep, oversubscription vs comm-aware LB, "
    "LB ablation",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"},
     {"vertices", "16384", "graph size for the direct runtime panel"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
