// Beyond-paper figure: policies under failure injection. Four panels:
//   a) the fixed crash/eviction schedule (fault_recovery): every §4.3
//      metric plus the recovery accounting, per policy;
//   b) scheduler metrics vs crash MTBF with a fixed checkpoint cadence and
//      a prun-style failure budget (fault_churn);
//   c) the checkpoint-period tradeoff at a fixed MTBF: short periods pay
//      checkpoint overhead, long periods pay lost work;
//   d) load-balancer ablation under a crash chain on the AMR workload
//      (fault_lb_ablation): recovery re-placement quality per LB strategy;
//   e) rack-level correlated loss (fault_correlated): every policy under
//      two domain crashes, with the correlated-failure accounting;
//   e2) amplification: the same policies under an independent single-node
//      loss at the identical instants — the completion ratio says whether
//      elastic re-placement absorbs or amplifies the correlated burst;
//   f) recovery storm (fault_storm): the elastic policy as restore
//      bandwidth shrinks and concurrent restores start queueing.
//
// The experiments are the registered fault scenarios; this driver overlays
// flags and renders tables.

#include "bench/lib/registry.hpp"
#include "charm/load_balancer.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

std::string join_values_text(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += '/';
    out += format_double(v, 0);
  }
  return out;
}

/// One row per policy: the §4.3 metrics plus the recovery accounting.
void policy_rows(Table& table, const scenario::PolicyMetrics& metrics,
                 const std::vector<PolicyMode>& policies) {
  for (const auto mode : policies) {
    const auto& m = metrics.at(mode);
    table.add_row({elastic::to_string(mode), format_double(m.utilization, 3),
                   format_double(m.total_time_s, 1),
                   format_double(m.weighted_completion_s, 2),
                   format_double(m.recovery_time_s, 2),
                   format_double(m.lost_work_s, 2),
                   format_double(m.goodput, 4),
                   format_double(m.jobs_failed, 3)});
  }
}

void run(bench::Reporter& rep, const Config& cfg) {
  const int repeats = cfg.get_int("repeats", 20);
  const auto seed = static_cast<unsigned>(cfg.get_int("seed", 2025));
  const int threads = cfg.get_int("threads", 1);

  // ---- panel a: fixed crash/eviction schedule, per policy ----
  scenario::ScenarioSpec recovery =
      scenario::ScenarioRegistry::instance().require("fault_recovery");
  recovery.repeats = repeats;
  recovery.seed = seed;
  const auto recovery_metrics = scenario::compare_policies(recovery, threads);
  Table& recovery_table = rep.add_table(
      "fig_fault_a_recovery",
      "Fault panel a: fixed crash/eviction schedule (" +
          join_values_text(recovery.faults.crash_times) + " s crashes, " +
          join_values_text(recovery.faults.evict_times) +
          " s eviction, checkpoints every " +
          format_double(recovery.faults.checkpoint_period_s, 0) + " s)",
      {"policy", "utilization", "total_s", "completion_s", "recovery_s",
       "lost_work_s", "goodput", "jobs_failed"});
  policy_rows(recovery_table, recovery_metrics, recovery.policies);

  // ---- panel b: MTBF sweep under a failure budget ----
  scenario::ScenarioSpec churn =
      scenario::ScenarioRegistry::instance().require("fault_churn");
  churn.repeats = repeats;
  churn.seed = seed;
  scenario::render_sweep(
      rep, scenario::run_sweep(churn, threads),
      {{"fig_fault_b1_utilization",
        "Fault panel b: cluster utilization vs crash MTBF",
        &elastic::RunMetrics::utilization},
       {"fig_fault_b2_completion",
        "Fault panel b: weighted mean completion time (s) vs crash MTBF",
        &elastic::RunMetrics::weighted_completion_s},
       {"fig_fault_b3_goodput",
        "Fault panel b: mean per-job goodput vs crash MTBF",
        &elastic::RunMetrics::goodput},
       {"fig_fault_b4_jobs_failed",
        "Fault panel b: jobs killed by the failure budget vs crash MTBF",
        &elastic::RunMetrics::jobs_failed}},
      {"mtbf_s",
       {PolicyMode::kElastic, PolicyMode::kMoldable, PolicyMode::kRigidMin,
        PolicyMode::kRigidMax},
       0, 4});

  // ---- panel c: checkpoint-period tradeoff at fixed MTBF ----
  scenario::ScenarioSpec period = churn;
  period.name = "custom";
  period.faults.crash_mtbf_s = 1200.0;
  period.faults.checkpoint_period_s = 0.0;  // the axis supplies it per point
  period.axis = scenario::SweepAxis::kCheckpointPeriod;
  period.axis_values = {75, 150, 300, 600, 1200};
  const auto period_points = scenario::run_sweep(period, threads).points;
  Table& period_table = rep.add_table(
      "fig_fault_c_checkpoint_period",
      "Fault panel c: elastic policy vs checkpoint period at MTBF " +
          format_double(period.faults.crash_mtbf_s, 0) + " s",
      {"period_s", "utilization", "completion_s", "recovery_s", "lost_work_s",
       "goodput"});
  for (const auto& pt : period_points) {
    const auto& m = pt.metrics.at(PolicyMode::kElastic);
    period_table.add_row({format_double(pt.x, 0),
                          format_double(m.utilization, 3),
                          format_double(m.weighted_completion_s, 2),
                          format_double(m.recovery_time_s, 2),
                          format_double(m.lost_work_s, 2),
                          format_double(m.goodput, 4)});
  }

  // ---- panel d: LB ablation under a crash chain (AMR workload) ----
  scenario::ScenarioSpec ablation =
      scenario::ScenarioRegistry::instance().require("fault_lb_ablation");
  ablation.repeats = repeats;
  ablation.seed = seed;
  const auto ablation_points = scenario::run_sweep(ablation, threads).points;
  Table& lb_table = rep.add_table(
      "fig_fault_d_lb_ablation",
      "Fault panel d: elastic policy per runtime LB strategy, crash MTBF " +
          format_double(ablation.faults.crash_mtbf_s, 0) + " s",
      {"strategy", "utilization", "completion_s", "recovery_s", "lost_work_s",
       "goodput", "lb_post_ratio"});
  for (const auto& pt : ablation_points) {
    const auto& m = pt.metrics.at(PolicyMode::kElastic);
    lb_table.add_row(
        {charm::load_balancer_names().at(static_cast<std::size_t>(pt.x)),
         format_double(m.utilization, 3),
         format_double(m.weighted_completion_s, 2),
         format_double(m.recovery_time_s, 2),
         format_double(m.lost_work_s, 2), format_double(m.goodput, 4),
         format_double(m.lb_post_ratio, 3)});
  }

  // ---- panel e: rack-level correlated loss, per policy ----
  scenario::ScenarioSpec correlated =
      scenario::ScenarioRegistry::instance().require("fault_correlated");
  correlated.repeats = repeats;
  correlated.seed = seed;
  const auto correlated_metrics =
      scenario::compare_policies(correlated, threads);
  Table& correlated_table = rep.add_table(
      "fig_fault_e_correlated",
      "Fault panel e: rack-level correlated loss (domains " +
          std::to_string(correlated.faults.domain_sizes.size()) +
          " x 16 slots, domain crashes at 500/1300 s)",
      {"policy", "utilization", "completion_s", "recovery_s", "lost_work_s",
       "goodput", "correlated_failures", "node_failures"});
  for (const auto mode : correlated.policies) {
    const auto& m = correlated_metrics.at(mode);
    correlated_table.add_row(
        {elastic::to_string(mode), format_double(m.utilization, 3),
         format_double(m.weighted_completion_s, 2),
         format_double(m.recovery_time_s, 2),
         format_double(m.lost_work_s, 2), format_double(m.goodput, 4),
         format_double(m.correlated_failures, 3),
         format_double(m.failures, 3)});
  }

  // ---- panel e2: correlated vs independent loss at the same instants ----
  // The independent plan replaces each domain crash with a single-node
  // crash at the identical timestamp; completion_ratio > 1 means the
  // correlated burst costs more than the sum of its independent parts.
  scenario::ScenarioSpec independent = correlated;
  independent.name = "custom";
  independent.faults.domain_sizes.clear();
  independent.faults.domain_crashes.clear();
  for (const auto& crash : correlated.faults.domain_crashes) {
    independent.faults.crash_times.push_back(crash.time_s);
  }
  const auto independent_metrics =
      scenario::compare_policies(independent, threads);
  Table& amp_table = rep.add_table(
      "fig_fault_e2_amplification",
      "Fault panel e2: correlated domain loss vs independent single-node "
      "loss at the same instants",
      {"policy", "completion_corr_s", "completion_indep_s",
       "completion_ratio", "goodput_corr", "goodput_indep"});
  for (const auto mode : correlated.policies) {
    const auto& corr = correlated_metrics.at(mode);
    const auto& indep = independent_metrics.at(mode);
    amp_table.add_row(
        {elastic::to_string(mode),
         format_double(corr.weighted_completion_s, 2),
         format_double(indep.weighted_completion_s, 2),
         format_double(corr.weighted_completion_s /
                           indep.weighted_completion_s, 4),
         format_double(corr.goodput, 4), format_double(indep.goodput, 4)});
  }

  // ---- panel f: recovery storm vs restore bandwidth ----
  scenario::ScenarioSpec storm =
      scenario::ScenarioRegistry::instance().require("fault_storm");
  storm.name = "custom";
  storm.repeats = repeats;
  storm.seed = seed;
  storm.policies = {PolicyMode::kElastic};
  Table& storm_table = rep.add_table(
      "fig_fault_f_storm",
      "Fault panel f: elastic policy as the restore path saturates (32-slot "
      "domain crash at 600 s; bandwidth 0 = unlimited)",
      {"restore_bw", "completion_s", "recovery_s", "storm_peak_restorers",
       "storm_delay_s", "goodput"});
  for (const double bw : {0.0, 8.0, 4.0, 2.0, 1.0}) {
    storm.faults.restore_bandwidth = bw;
    // By value: compare_policies returns the map by value, so binding a
    // reference through .at() would dangle into the destroyed temporary.
    const elastic::RunMetrics m =
        scenario::compare_policies(storm, threads).at(PolicyMode::kElastic);
    storm_table.add_row({format_double(bw, 0),
                         format_double(m.weighted_completion_s, 2),
                         format_double(m.recovery_time_s, 2),
                         format_double(m.storm_peak_restorers, 2),
                         format_double(m.storm_delay_s, 2),
                         format_double(m.goodput, 4)});
  }

  std::string note = "(";
  note += std::to_string(repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(seed);
  note += "; fault plans are deterministic, so both substrates replay the "
          "identical failure sequence)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_fault",
    "Failure injection: recovery accounting, MTBF sweep, checkpoint-period "
    "tradeoff, LB ablation under crashes, correlated domain loss, recovery "
    "storms",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
