// Ablations for the design choices DESIGN.md calls out:
//   1. reserve_slots: the literal "freeSlots - 1" of Fig. 2 vs 0.
//   2. protect_top_job: Fig. 2/3's `index > 0` walk (never shrink the
//      highest-priority running job) vs considering all victims.
//   3. Out-of-order allocation: elastic/moldable sizing vs strict
//      rigid-by-priority (rigid max), the paper's motivation for (b) in §3.2.
//   4. Load-balancer strategy inside the runtime: greedy vs refine rescale
//      cost measured on minicharm.

#include <map>

#include "apps/calibration.hpp"
#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void add_metrics_row(Table& t, const std::string& label,
                     const elastic::RunMetrics& m) {
  t.add_row({label, format_double(m.total_time_s, 1),
             format_double(m.utilization, 4),
             format_double(m.weighted_response_s, 2),
             format_double(m.weighted_completion_s, 2)});
}

void run(bench::Reporter& rep, const Config& cfg) {
  // The "policy_compare" scenario with analytic curves; each ablation
  // variant supplies its own explicit PolicyConfig.
  scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::instance().require("policy_compare");
  spec.repeats = cfg.get_int("repeats", 40);
  spec.seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  spec.calibrated = false;
  const int threads = cfg.get_int("threads", 1);
  auto run_averaged = [&](const elastic::PolicyConfig& pc) {
    return scenario::run_repeats(spec, pc, threads);
  };
  const std::vector<std::string> headers{"variant", "total_s", "utilization",
                                         "response_s", "completion_s"};

  Table& t1 = rep.add_table(
      "ablation1_reserve_slots",
      "Ablation 1: reserve_slots (the 'freeSlots - 1' of Fig. 2)", headers);
  for (int reserve : {0, 1, 2}) {
    elastic::PolicyConfig pc;
    pc.mode = PolicyMode::kElastic;
    pc.rescale_gap_s = 180.0;
    pc.reserve_slots = reserve;
    add_metrics_row(t1, "reserve=" + std::to_string(reserve),
                    run_averaged(pc));
  }

  Table& t2 = rep.add_table(
      "ablation2_protect_top_job",
      "Ablation 2: protect_top_job (Fig. 2/3 walks index > 0)", headers);
  for (bool protect : {true, false}) {
    elastic::PolicyConfig pc;
    pc.mode = PolicyMode::kElastic;
    pc.rescale_gap_s = 180.0;
    pc.protect_top_job = protect;
    add_metrics_row(t2, protect ? "protected (paper)" : "all victims",
                    run_averaged(pc));
  }

  Table& t3 = rep.add_table(
      "ablation3_out_of_order",
      "Ablation 3: out-of-order allocation (moldable sizing) vs rigid "
      "priority order",
      headers);
  for (auto mode : {PolicyMode::kMoldable, PolicyMode::kRigidMax}) {
    elastic::PolicyConfig pc;
    pc.mode = mode;
    pc.rescale_gap_s = 180.0;
    add_metrics_row(t3, elastic::to_string(mode),
                    run_averaged(pc));
  }

  Table& t4 = rep.add_table(
      "ablation4_lb_strategy",
      "Ablation 4: runtime LB strategy during a 32->16 shrink (Jacobi 8192^2, "
      "minicharm)",
      {"strategy", "lb_s", "ckpt_s", "restart_s", "restore_s", "total_s",
       "migrated_objects"});
  for (const std::string lb : {"greedy", "refine", "null"}) {
    charm::RuntimeConfig rc;
    rc.load_balancer = lb;
    const auto t = apps::measure_rescale<apps::Jacobi2D>(
        apps::jacobi_for_grid(8192), 32, 16, 3, rc);
    t4.add_row({lb, format_double(t.load_balance_s, 4),
                format_double(t.checkpoint_s, 4), format_double(t.restart_s, 4),
                format_double(t.restore_s, 4), format_double(t.total(), 4),
                std::to_string(t.migrated_objects)});
  }
}

const bench::RegisterBench kReg{{
    "ablation_policies",
    "Ablations: reserve_slots, protect_top_job, allocation order, LB strategy",
    {{"repeats", "40", "random job mixes per variant"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "10"}},
    run}};

}  // namespace
