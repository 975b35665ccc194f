#pragma once

#include <map>
#include <vector>

#include "elastic/policy.hpp"
#include "elastic/workload.hpp"
#include "schedsim/exec.hpp"
#include "schedsim/fault.hpp"
#include "schedsim/jobmix.hpp"

namespace ehpc::schedsim {

/// The paper's scheduler-performance simulator (artifact A2 equivalent,
/// §4.3.1): jobs are modeled by their piecewise-linear step-time curves and
/// the 4-stage rescale overhead model; operator and pod startup overheads
/// are deliberately ignored ("We do not consider the overhead added by the
/// operator or by Kubernetes to start up the pods"). Scheduling decisions
/// come from the shared PolicyEngine, so the simulator and the Kubernetes
/// substrate exercise identical policy code.
///
/// A thin shell over the shared `ExecHarness` bookkeeping: every `run()`
/// spins up a fresh virtual-time simulation, so the object is reusable.
class SchedSimulator final : public ExperimentBackend {
 public:
  SchedSimulator(int total_slots, elastic::PolicyConfig policy,
                 std::map<elastic::JobClass, elastic::Workload> workloads);

  /// Simulate one job mix to completion.
  SimResult run(const std::vector<SubmittedJob>& mix) override;

  /// Replay a streaming trace to completion in memory proportional to
  /// in-flight jobs (see ExecHarness::run_stream).
  SimResult run_stream(trace::TraceSource& source) override;

  /// As above; `observer` sees each job's record as it retires.
  SimResult run_stream(trace::TraceSource& source,
                       ExecHarness::RetireObserver observer);

  /// Failure-injection plan applied to every subsequent `run()`.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }

 private:
  int total_slots_;
  elastic::PolicyConfig policy_config_;
  std::map<elastic::JobClass, elastic::Workload> workloads_;
  FaultPlan fault_plan_;
};

}  // namespace ehpc::schedsim
