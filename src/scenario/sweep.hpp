#pragma once

#include <map>
#include <vector>

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
/// shared across the spec's policies.
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

/// One full run of a single policy on one deterministic mix, returning the
/// full `SimResult`; on the cluster substrate that includes Fig. 9's step
/// series (utilization profile, per-job replicas).
schedsim::SimResult run_single(const ScenarioSpec& spec,
                               elastic::PolicyMode mode, unsigned mix_seed);

/// Run every policy of the scenario on one shared mix, keeping full results
/// (job records, rescale counts, and the cluster substrate's step series).
/// Serial; used by Table 1 / Fig. 9 style benches that need more than
/// averaged metrics.
std::map<elastic::PolicyMode, schedsim::SimResult> run_policies(
    const ScenarioSpec& spec, const std::vector<schedsim::SubmittedJob>& mix);

/// As above with precomputed workload models (avoids re-calibration when a
/// caller runs the same spec on several substrates).
std::map<elastic::PolicyMode, schedsim::SimResult> run_policies(
    const ScenarioSpec& spec, const std::vector<schedsim::SubmittedJob>& mix,
    const std::map<elastic::JobClass, elastic::Workload>& workloads);

/// Streaming analogue of run_policies for trace specs: every policy replays
/// a fresh source built from the same (spec, seed), so all policies see the
/// identical submission sequence. Requires `spec.is_trace()`. Full results
/// carry `SimResult::stream` stats; per-job records are retired, not kept.
std::map<elastic::PolicyMode, schedsim::SimResult> run_policies_stream(
    const ScenarioSpec& spec, unsigned seed);

}  // namespace ehpc::scenario
