#pragma once

#include <map>
#include <memory>
#include <vector>

#include "elastic/policy.hpp"
#include "elastic/workload.hpp"
#include "scenario/spec.hpp"
#include "schedsim/exec.hpp"
#include "schedsim/jobmix.hpp"
#include "trace/source.hpp"

namespace ehpc::scenario {

/// PolicyConfig for running `mode` under `spec`.
elastic::PolicyConfig policy_for(const ScenarioSpec& spec,
                                 elastic::PolicyMode mode);

/// The spec's workload models (minicharm-calibrated or analytic curves).
std::map<elastic::JobClass, elastic::Workload> workloads_for(
    const ScenarioSpec& spec);

/// The spec's random job mix for one RNG seed (repeat r of a sweep cell
/// uses `spec.seed + r`). The spec's queue/task timeouts are stamped onto
/// every generated job.
std::vector<schedsim::SubmittedJob> make_mix(const ScenarioSpec& spec,
                                             unsigned seed);

/// Build the spec's trace source for one RNG seed: the merge of every
/// configured source (CSV file, synthetic stream, cron schedule), each
/// stamped with the spec's per-job limits. Requires `spec.is_trace()`.
std::unique_ptr<trace::TraceSource> make_trace_source(const ScenarioSpec& spec,
                                                      unsigned seed);

/// Run one seeded experiment of `spec` on `backend`: a trace spec replays
/// a fresh `make_trace_source(spec, seed)`, any other spec runs
/// `make_mix(spec, seed)`. Both are deterministic per seed, so every policy
/// given the same seed sees the identical submissions.
schedsim::SimResult run_seeded(schedsim::ExperimentBackend& backend,
                               const ScenarioSpec& spec, unsigned seed);

/// Instantiate the spec's substrate: a `schedsim::SchedSimulator`, or on the
/// cluster substrate a backend that stands up a fresh emulated Kubernetes
/// cluster per run (that substrate is single-shot by design). Either way
/// the spec's failure trace is resolved into explicit events here, so both
/// substrates hand the harness the identical fault plan.
std::unique_ptr<schedsim::ExperimentBackend> make_backend(
    const ScenarioSpec& spec, const elastic::PolicyConfig& policy,
    const std::map<elastic::JobClass, elastic::Workload>& workloads);

}  // namespace ehpc::scenario
