#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "elastic/metrics.hpp"
#include "elastic/policy.hpp"
#include "elastic/workload.hpp"
#include "schedsim/fault.hpp"
#include "schedsim/jobmix.hpp"
#include "sim/simulation.hpp"

namespace ehpc::trace {
class TraceSource;
}

namespace ehpc::schedsim {

/// Compact summary of a streaming replay: counters plus online (P²)
/// percentiles maintained as jobs retire, since per-job records are not
/// retained. For batch `run()`, `jobs_submitted` and `peak_live_jobs` are
/// the mix size and the percentiles stay zero.
struct StreamStats {
  long jobs_submitted = 0;
  /// High-water mark of simultaneously tracked JobExec entries — the
  /// bounded-memory claim of streaming replay is `peak_live_jobs` staying
  /// proportional to in-flight jobs, independent of trace length.
  long peak_live_jobs = 0;
  double response_p50 = 0.0;
  double response_p99 = 0.0;
  double completion_p50 = 0.0;
  double completion_p99 = 0.0;
};

/// Output of one experiment run, produced identically by both substrates
/// (the pure performance simulator and the Kubernetes emulation) so their
/// metrics are directly comparable.
struct SimResult {
  elastic::RunMetrics metrics;
  /// Per-job records; empty after `run_stream` (jobs retire to summaries).
  std::vector<elastic::JobRecord> jobs;
  /// Fig. 9's step series: a sample (t, v) means "the value changed to v at
  /// t". Cluster substrate, batch `run()` only: empty on the pure simulator
  /// and after `run_stream`.
  /// Physical utilization, bound CPUs / total (unclamped), sampled once per
  /// delivered pod-event batch.
  std::vector<std::pair<double, double>> utilization;
  /// Per-job replica count: the width the job started at once its pods were
  /// ready, each realized rescale, and 0 when it finished.
  std::map<elastic::JobId, std::vector<std::pair<double, int>>> replicas;
  int rescale_count = 0;  ///< shrink+expand operations executed
  StreamStats stream;
};

/// Substrate-agnostic executor of one experiment: hand it a job mix or a
/// trace, get the run's `SimResult` back. `SchedSimulator` implements it
/// for the pure simulator and the scenario layer's cluster backend for the
/// Kubernetes emulation; both share all policy and bookkeeping code through
/// `ExecHarness`, so the seam only picks how actions are realised.
class ExperimentBackend {
 public:
  virtual ~ExperimentBackend() = default;

  /// Execute one job mix to completion. May be called repeatedly; each call
  /// is an independent run.
  virtual SimResult run(const std::vector<SubmittedJob>& mix) = 0;

  /// Replay a streaming trace to completion (see ExecHarness::run_stream).
  /// May be called repeatedly with a fresh source per call.
  virtual SimResult run_stream(trace::TraceSource& source) = 0;
};

/// Per-job execution bookkeeping shared by both experiment substrates
/// (`SchedSimulator` and `ClusterExperiment`): the workload model, progress
/// accounting in virtual time, and the lifecycle record.
struct JobExec {
  /// The job class's workload model, borrowed from the harness's workload
  /// map, which outlives every exec on both substrates.
  const elastic::Workload* workload = nullptr;
  std::string job_name;  ///< CharmJob CR name on the cluster substrate
  double remaining_steps = 0.0;
  int replicas = 0;  ///< replicas progress accrues at; 0 before start
  /// Virtual time from which progress accrues at the current rate; during a
  /// rescale pause this sits in the future.
  double accrue_from = 0.0;
  sim::EventId completion_event = sim::kInvalidEvent;
  elastic::JobRecord record;
  bool started = false;
  bool done = false;

  // ---- prun-style per-job limits (negative = unset; see SubmittedJob) ----
  double queue_timeout_s = -1.0;
  double task_timeout_s = -1.0;
  /// Per-job crash budget; falls back to `FaultPlan::max_failed_nodes`.
  int max_failed_nodes = -1;
  sim::EventId queue_timeout_event = sim::kInvalidEvent;
  sim::EventId task_timeout_event = sim::kInvalidEvent;

  // ---- fault state (driven by the harness's FaultPlan) ----
  /// Step-time multiplier while a straggler PE drags the job (1 = none);
  /// cleared by the next rescale, which replaces the slow process.
  double slowdown = 1.0;
  /// Node crashes absorbed so far, charged against the failure budget.
  int failed_nodes = 0;
  /// `remaining_steps` snapshot at the last *completed* disk checkpoint; a
  /// failure rolls the job back to this (the initial snapshot is the full
  /// job: without checkpoints a failure restarts from scratch).
  double ckpt_remaining_steps = 0.0;
  /// Snapshot staged by an in-flight checkpoint write (-1 = none). It
  /// becomes the rollback target only once the write completes at
  /// `pending_ckpt_done_s`: a fault strictly inside the write window
  /// discards it (the half-written file died with the process), while a
  /// fault at exactly the completion instant keeps it (inclusive).
  double pending_ckpt_steps = -1.0;
  double pending_ckpt_done_s = 0.0;
  /// Slots (PEs) this job occupies in the harness's deterministic slot
  /// model; maintained only when the plan defines failure domains.
  std::vector<int> slots;

  /// Seconds per step at the current replica count (and straggler state).
  double step_time() const {
    return workload->time_per_step.at_clamped(static_cast<double>(replicas)) *
           slowdown;
  }

  /// Fold progress accrued up to `now` into `remaining_steps`. Must be
  /// called before `replicas` changes, since the rate is the current one.
  void accrue_until(double now);
};

/// Substrate-agnostic experiment harness: owns the PolicyEngine, the shared
/// per-job `JobExec` table and metrics collection, and drives one
/// job mix to completion over a virtual-time Simulation. Substrates
/// specialise only how policy actions are *realised* (instantly in the pure
/// simulator; through the operator's pod/handshake machinery on the
/// Kubernetes substrate) by overriding the protected hooks.
///
/// Two drive modes, single-shot either way (one run per harness instance):
///  - `run(mix)`: materialized job list; retains per-job records in the
///    result.
///  - `run_stream(source)`: pulls submissions one at a time from a
///    TraceSource (at most one pending submission event at any moment) and
///    retires each finished job to O(1) summaries, so arbitrarily long
///    traces replay in memory proportional to in-flight jobs.
class ExecHarness {
 public:
  /// `workloads` is borrowed and must outlive the harness (both substrate
  /// shells keep it as a member).
  ExecHarness(sim::Simulation& sim, int total_slots,
              const elastic::PolicyConfig& policy,
              const std::map<elastic::JobClass, elastic::Workload>& workloads);
  virtual ~ExecHarness();

  ExecHarness(const ExecHarness&) = delete;
  ExecHarness& operator=(const ExecHarness&) = delete;

  /// Execute one job mix to completion and collect its metrics.
  SimResult run(const std::vector<SubmittedJob>& mix);

  /// Execute a streaming trace to completion in bounded memory. The source
  /// must yield at least one job; submissions are pulled lazily in
  /// submit-time order.
  SimResult run_stream(trace::TraceSource& source);

  /// Install a failure-injection plan. Must be called before `run()`; the
  /// plan's events are scheduled alongside the mix's submissions, so both
  /// substrates execute an identical fault sequence.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Observer invoked with each retired job's record during `run_stream`
  /// (records are otherwise dropped after folding into summaries). Lets
  /// benchmarks/tests compare online percentiles against exact ones without
  /// the harness retaining anything.
  using RetireObserver = std::function<void(const elastic::JobRecord&)>;
  void set_retire_observer(RetireObserver observer);

  elastic::PolicyEngine& engine() { return *engine_; }
  elastic::MetricsCollector& collector() { return *collector_; }
  int total_slots() const { return total_slots_; }

 protected:
  // ---- substrate hooks ----
  /// Launch a queued job with `replicas` workers.
  virtual void start_job(elastic::JobId id, int replicas) = 0;
  /// Rescale a running job down to `target` replicas.
  virtual void shrink_job(elastic::JobId id, int target) = 0;
  /// Rescale a running job up to `target` replicas.
  virtual void expand_job(elastic::JobId id, int target) = 0;
  /// Populate substrate-specific JobExec fields (e.g. the CR name).
  virtual void init_exec(JobExec& exec, const SubmittedJob& job);
  /// Called whenever a batch of policy actions has been applied (after each
  /// submit and completion). The pure simulator records the engine's
  /// utilization view here; the cluster substrate records physical pod
  /// usage through its own watch instead.
  virtual void on_actions_applied();
  /// Called when a started job finishes (completes, fails, or times out),
  /// after its record is stamped but before the policy engine reacts.
  /// Not called for jobs abandoned in the queue — they never reached the
  /// substrate.
  virtual void on_job_completed(JobExec& exec);
  /// Whether streaming replay may erase a finished job's JobExec when it
  /// retires. The pure simulator says yes (this is what bounds memory); the
  /// cluster substrate says no, because its staged rescale callbacks may
  /// still dereference the exec after completion.
  virtual bool retire_completed_execs() const { return true; }
  /// Called when a correlated domain crash is about to fault `victims`
  /// (running jobs with a worker in `domain`, ascending id order), before
  /// any of them is rolled back. The cluster substrate kills the victims'
  /// worker pods through the k8s store here so the indexed views and
  /// batched watchers observe the burst of deletions.
  virtual void on_domain_crash(int domain,
                               const std::vector<elastic::JobId>& victims);

  // ---- shared machinery available to substrates ----
  void apply_actions(const std::vector<elastic::Action>& actions);
  /// (Re)schedule the completion event from remaining work and pause state.
  void schedule_completion(elastic::JobId id);
  void complete_job(elastic::JobId id);
  /// Record the policy engine's used-slot count into the metrics collector.
  void record_engine_usage();
  /// Count a *realized* rescale of job `id` and record the runtime LB step
  /// it implies (the job's calibrated imbalance profile) — call from the
  /// substrate at the point the rescale actually executes, so decisions a
  /// substrate drops or supersedes (e.g. superseded pre-start rescales on
  /// the cluster) are not counted.
  void note_rescale(elastic::JobId id);

  sim::Simulation& sim() { return sim_; }
  JobExec& exec(elastic::JobId id) { return execs_.at(id); }
  std::map<elastic::JobId, JobExec>& execs() { return execs_; }
  /// True inside `run_stream` — substrates gate their own O(events) step
  /// series on this.
  bool streaming() const { return streaming_; }

 private:
  /// Build the JobExec for one submission (shared by both drive modes).
  JobExec make_exec(const SubmittedJob& job);
  void submit(const SubmittedJob& job);
  /// Streaming pump: admit `next_submission_` now, then pull the next
  /// submission into it and schedule it — at most one submission event is
  /// pending at any time.
  void pump_submit();
  /// How a job's execution ended; drives the record flags in finish_job.
  enum class JobOutcome { kCompleted, kFailed, kTimedOut };
  /// Shared tail of completion, budget-kill and task timeout: cancel
  /// pending work, stamp the record, notify the substrate, release the
  /// job's slots.
  void finish_job(elastic::JobId id, JobOutcome outcome);
  /// Queue-timeout event: abandon the job iff the engine still has it
  /// queued. The guard checks engine state, not `exec.started` — on the
  /// cluster substrate a job granted a start stays `started=false` until
  /// its pods are ready, but it is no longer abandonable.
  void queue_timeout(elastic::JobId id);
  /// Task-timeout event: kill a still-running job and charge its runtime.
  void task_timeout(elastic::JobId id);
  /// Close the collector's utilization window at the finished job's end.
  /// Streaming only: fold its record into the collector and online
  /// percentiles, drop its engine state, and (if the substrate allows)
  /// erase its JobExec.
  void retire_job(elastic::JobId id);

  // ---- fault injection (no-ops when the plan is empty) ----
  void schedule_faults();
  /// Resize `exec`'s slot set to `target` in the deterministic slot model:
  /// growth takes the lowest free slots, shrinking releases the
  /// highest-numbered ones. Driven by policy *actions* (not substrate
  /// completion of them), so both substrates agree on slot ownership at
  /// every virtual instant. No-op unless the plan defines domains.
  void set_slot_count(JobExec& exec, int target);
  /// Correlated event: crash every running job with a slot in the domain.
  void inject_domain_crash(const DomainCrash& crash);
  /// The widest running job (ties: lowest id); nullptr when none is running.
  JobExec* pick_victim();
  /// Roll the victim back to its last checkpoint and charge recovery
  /// downtime; a crash also counts against the failure budget and kills the
  /// job once the budget is exhausted.
  void inject_crash();
  /// MTBF chain step: crash now, re-arm while any job is unfinished.
  void crash_chain();
  void inject_evict();
  void inject_straggler();
  /// Snapshot every running job's progress and charge the checkpoint pause.
  void checkpoint_tick();
  void apply_fault(JobExec& exec, bool is_crash);
  /// True while work remains: an unfinished exec, or (streaming) a source
  /// that has not been exhausted — fault chains must survive the gap
  /// between the current in-flight jobs draining and the next submission.
  bool any_job_unfinished() const;

  sim::Simulation& sim_;
  int total_slots_;
  const std::map<elastic::JobClass, elastic::Workload>& workloads_;
  std::unique_ptr<elastic::PolicyEngine> engine_;
  std::map<elastic::JobId, JobExec> execs_;
  std::unique_ptr<elastic::MetricsCollector> collector_;
  int rescale_count_ = 0;
  bool used_ = false;
  FaultPlan fault_plan_;
  /// Slot → owning job id (-1 = free); sized and maintained only when the
  /// plan defines failure domains (`track_slots_`).
  std::vector<elastic::JobId> slot_owner_;
  bool track_slots_ = false;
  /// End times of restores currently in flight (recovery-storm model);
  /// entries ending before a new restore begins are pruned as it starts.
  std::vector<double> restore_ends_;

  // ---- streaming state ----
  bool streaming_ = false;
  trace::TraceSource* source_ = nullptr;
  /// True until the source returns nullopt.
  bool stream_pending_ = false;
  /// The one pending submission; its event captures only `this`, so it
  /// stays inside the callback's inline buffer.
  SubmittedJob next_submission_;
  StreamStats stream_stats_;
  P2Quantile response_p50_{0.5};
  P2Quantile response_p99_{0.99};
  P2Quantile completion_p50_{0.5};
  P2Quantile completion_p99_{0.99};
  RetireObserver retire_observer_;
};

}  // namespace ehpc::schedsim
