#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "elastic/metrics.hpp"
#include "scenario/backend.hpp"
#include "scenario/spec.hpp"

namespace ehpc::scenario {

/// Averaged metrics of every policy a scenario ran.
using PolicyMetrics = std::map<elastic::PolicyMode, elastic::RunMetrics>;

/// One point of a sweep: the swept parameter value and the per-policy
/// metrics averaged over the scenario's repeats.
struct SweepPoint {
  double x = 0.0;
  PolicyMetrics metrics;
};

struct SweepResult {
  std::vector<SweepPoint> points;
};

/// Run the scenario's full sweep: one point per axis value (a single point
/// for SweepAxis::kNone), each the average over `spec.repeats` random mixes
/// shared across the spec's policies. Cell (point, r) is one
/// `run_policies` call at seed `spec.seed + r`.
///
/// `threads` > 1 fans the (point × repeat) cells out across a thread pool;
/// 0 picks the hardware concurrency. Every cell derives a private RNG
/// stream from the spec seed (repeat r uses seed + r) and owns all mutable
/// state, and cell results are merged in serial order — the outcome is
/// bit-identical to `threads=1` regardless of scheduling.
SweepResult run_sweep(const ScenarioSpec& spec, int threads = 1);

/// Single-point convenience: the scenario's policies averaged over its
/// repeats at its own (un-swept) parameters.
PolicyMetrics compare_policies(const ScenarioSpec& spec, int threads = 1);

/// Average one explicit policy configuration over the scenario's repeats —
/// the ablation entry point, where the interesting knobs live outside
/// PolicyMode. Deterministic under threading like run_sweep.
elastic::RunMetrics run_repeats(const ScenarioSpec& spec,
                                const elastic::PolicyConfig& policy,
                                int threads = 1);

/// Run every policy of `spec.policies` once on the seed's input, keeping
/// full results (job records, rescale counts, and the cluster substrate's
/// step series). Each policy gets its own `make_backend` and `run_seeded`,
/// so a trace spec replays a fresh `make_trace_source(spec, seed)` per
/// policy and any other spec runs `make_mix(spec, seed)`: every policy sees
/// the identical submissions. `workloads` is `workloads_for(spec)`, passed
/// in so a caller running several substrates calibrates once. Serial; a
/// single-policy run sets `spec.policies = {mode}`.
std::map<elastic::PolicyMode, schedsim::SimResult> run_policies(
    const ScenarioSpec& spec, unsigned seed,
    const std::map<elastic::JobClass, elastic::Workload>& workloads);

/// One per-policy table of a sweep: `metric` at every (point, policy).
struct SweepTable {
  std::string id;
  std::string title;
  double elastic::RunMetrics::*metric;
};

/// Column layout shared by the per-policy tables of one sweep.
struct SweepColumns {
  std::string x_header;
  std::vector<elastic::PolicyMode> policies;  ///< column order
  int x_precision = 3;
  int value_precision = 3;
  /// Names the x values index (an lb_strategy axis); null prints x itself.
  const std::vector<std::string>* x_names = nullptr;
};

/// Render `sweep` as one table per entry of `tables`: a row per point, the
/// x column, then one column per policy. `out.add_table(id, title, headers)`
/// registers each table and returns it (`bench::Reporter` fits); taking it
/// as a template keeps the scenario layer free of the bench library.
template <class Out>
void render_sweep(Out& out, const SweepResult& sweep,
                  const std::vector<SweepTable>& tables,
                  const SweepColumns& columns) {
  for (const auto& [id, title, metric] : tables) {
    std::vector<std::string> headers{columns.x_header};
    for (const auto mode : columns.policies) {
      headers.push_back(elastic::to_string(mode));
    }
    Table& table = out.add_table(id, title, std::move(headers));
    for (const auto& point : sweep.points) {
      std::vector<std::string> row{
          columns.x_names != nullptr
              ? columns.x_names->at(static_cast<std::size_t>(point.x))
              : format_double(point.x, columns.x_precision)};
      for (const auto mode : columns.policies) {
        row.push_back(format_double(point.metrics.at(mode).*metric,
                                    columns.value_precision));
      }
      table.add_row(std::move(row));
    }
  }
}

}  // namespace ehpc::scenario
