#pragma once

#include <map>
#include <memory>
#include <vector>

#include "elastic/policy.hpp"
#include "elastic/workload.hpp"
#include "opk/experiment.hpp"
#include "scenario/spec.hpp"
#include "schedsim/exec.hpp"
#include "schedsim/jobmix.hpp"
#include "schedsim/simulator.hpp"
#include "trace/source.hpp"

namespace ehpc::scenario {

/// Substrate-agnostic executor of one experiment: hand it a job mix, get the
/// run's `SimResult` back (metrics and per-job records; the cluster backend
/// also fills Fig. 9's step series). The two implementations wrap the
/// paper's two substrates, which share all policy and bookkeeping code through
/// `schedsim::ExecHarness` — the backend seam only picks how actions are
/// realised.
class ExperimentBackend {
 public:
  virtual ~ExperimentBackend() = default;

  /// Execute one job mix to completion. May be called repeatedly; each call
  /// is an independent run.
  virtual schedsim::SimResult run(
      const std::vector<schedsim::SubmittedJob>& mix) = 0;

  /// Replay a streaming trace to completion (see ExecHarness::run_stream).
  /// May be called repeatedly with a fresh source per call.
  virtual schedsim::SimResult run_stream(trace::TraceSource& source) = 0;
};

/// Pure scheduler-performance simulator (§4.3.1): operator and pod startup
/// overheads are ignored.
class SchedSimBackend final : public ExperimentBackend {
 public:
  SchedSimBackend(const ScenarioSpec& spec, elastic::PolicyConfig policy,
                  std::map<elastic::JobClass, elastic::Workload> workloads);

  schedsim::SimResult run(
      const std::vector<schedsim::SubmittedJob>& mix) override;
  schedsim::SimResult run_stream(trace::TraceSource& source) override;

 private:
  schedsim::SchedSimulator simulator_;
};

/// Emulated-Kubernetes substrate (§4.3.2): every action goes through the
/// operator; a fresh cluster is stood up per run (the substrate is
/// single-shot by design).
class ClusterBackend final : public ExperimentBackend {
 public:
  ClusterBackend(const ScenarioSpec& spec, elastic::PolicyConfig policy,
                 std::map<elastic::JobClass, elastic::Workload> workloads);

  schedsim::SimResult run(
      const std::vector<schedsim::SubmittedJob>& mix) override;
  schedsim::SimResult run_stream(trace::TraceSource& source) override;

 private:
  opk::ExperimentConfig config_;
  std::map<elastic::JobClass, elastic::Workload> workloads_;
};

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
schedsim::SimResult run_seeded(ExperimentBackend& backend,
                               const ScenarioSpec& spec, unsigned seed);

/// Instantiate the spec's substrate.
std::unique_ptr<ExperimentBackend> make_backend(
    const ScenarioSpec& spec, const elastic::PolicyConfig& policy,
    const std::map<elastic::JobClass, elastic::Workload>& workloads);

}  // namespace ehpc::scenario
