#include "schedsim/simulator.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::schedsim {

using elastic::JobId;

namespace {

/// ExecHarness specialisation for the pure performance simulator: actions
/// take effect instantly — starts accrue progress immediately and rescales
/// pause the job only for the modeled 4-stage overhead.
class SimHarness final : public ExecHarness {
 public:
  using ExecHarness::ExecHarness;

 private:
  void start_job(JobId id, int replicas) override {
    JobExec& e = exec(id);
    EHPC_EXPECTS(!e.started);
    e.started = true;
    e.replicas = replicas;
    e.record.start_time = sim().now();
    // The paper's simulator ignores pod/operator startup: progress accrues
    // immediately.
    e.accrue_from = sim().now();
    schedule_completion(id);
  }

  void shrink_job(JobId id, int target) override { resize_job(id, target); }
  void expand_job(JobId id, int target) override { resize_job(id, target); }

  void on_actions_applied() override { record_engine_usage(); }

  void resize_job(JobId id, int new_replicas) {
    JobExec& e = exec(id);
    EHPC_EXPECTS(e.started && !e.done);
    const int old_replicas = e.replicas;
    if (new_replicas == old_replicas) return;

    const double now = sim().now();
    double pause_base = now;
    if (now > e.accrue_from) {
      // Progress accrued since the last change (at the old rate).
      e.accrue_until(now);
    } else {
      // Still paused by a previous rescale: the new overhead stacks.
      pause_base = e.accrue_from;
    }
    const double overhead =
        e.workload->rescale.overhead_s(old_replicas, new_replicas);
    e.replicas = new_replicas;
    e.accrue_from = pause_base + overhead;
    note_rescale(id);
    schedule_completion(id);
    EHPC_DEBUG("schedsim", "job %d resized %d -> %d (overhead %.2fs)", id,
               old_replicas, new_replicas, overhead);
  }
};

}  // namespace

SchedSimulator::SchedSimulator(
    int total_slots, elastic::PolicyConfig policy,
    std::map<elastic::JobClass, elastic::Workload> workloads)
    : total_slots_(total_slots),
      policy_config_(policy),
      workloads_(std::move(workloads)) {
  EHPC_EXPECTS(total_slots_ > 0);
  EHPC_EXPECTS(!workloads_.empty());
}

SimResult SchedSimulator::run(const std::vector<SubmittedJob>& mix) {
  // Fresh state per run: the simulator object is reusable.
  sim::Simulation sim;
  SimHarness harness(sim, total_slots_, policy_config_, workloads_);
  harness.set_fault_plan(fault_plan_);
  return harness.run(mix);
}

SimResult SchedSimulator::run_stream(trace::TraceSource& source) {
  return run_stream(source, nullptr);
}

SimResult SchedSimulator::run_stream(trace::TraceSource& source,
                                     ExecHarness::RetireObserver observer) {
  sim::Simulation sim;
  SimHarness harness(sim, total_slots_, policy_config_, workloads_);
  harness.set_fault_plan(fault_plan_);
  if (observer) harness.set_retire_observer(std::move(observer));
  return harness.run_stream(source);
}

}  // namespace ehpc::schedsim
