#include "schedsim/exec.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "trace/source.hpp"

namespace ehpc::schedsim {

using elastic::Action;
using elastic::ActionType;
using elastic::JobId;

void JobExec::accrue_until(double now) {
  if (now > accrue_from) {
    remaining_steps =
        std::max(0.0, remaining_steps - (now - accrue_from) / step_time());
  }
}

ExecHarness::ExecHarness(
    sim::Simulation& sim, int total_slots, const elastic::PolicyConfig& policy,
    const std::map<elastic::JobClass, elastic::Workload>& workloads)
    : sim_(sim), total_slots_(total_slots), workloads_(workloads) {
  EHPC_EXPECTS(total_slots_ > 0);
  EHPC_EXPECTS(!workloads_.empty());
  engine_ = std::make_unique<elastic::PolicyEngine>(total_slots_, policy);
  collector_ = std::make_unique<elastic::MetricsCollector>(total_slots_);
}

ExecHarness::~ExecHarness() = default;

void ExecHarness::init_exec(JobExec&, const SubmittedJob&) {}

void ExecHarness::on_actions_applied() {}

void ExecHarness::on_job_completed(JobExec&) {}

void ExecHarness::set_retire_observer(RetireObserver observer) {
  retire_observer_ = std::move(observer);
}

JobExec ExecHarness::make_exec(const SubmittedJob& job) {
  auto it = workloads_.find(job.job_class);
  EHPC_EXPECTS(it != workloads_.end());
  JobExec exec;
  exec.workload = &it->second;
  exec.remaining_steps = it->second.total_steps;
  exec.ckpt_remaining_steps = it->second.total_steps;
  exec.record.id = job.spec.id;
  exec.record.priority = job.spec.priority;
  exec.record.submit_time = job.submit_time;
  exec.queue_timeout_s = job.queue_timeout_s;
  exec.task_timeout_s = job.task_timeout_s;
  exec.max_failed_nodes = job.max_failed_nodes;
  init_exec(exec, job);
  return exec;
}

SimResult ExecHarness::run(const std::vector<SubmittedJob>& mix) {
  EHPC_EXPECTS(!used_);  // single-shot per harness instance
  EHPC_EXPECTS(!mix.empty());
  used_ = true;

  // Each event refers to its submission in `mix`, which outlives run():
  // a copy of the SubmittedJob (name string included) would overflow the
  // callback's inline buffer and heap-box every job.
  for (const SubmittedJob& job : mix) {
    execs_.emplace(job.spec.id, make_exec(job));
    sim_.schedule_at(job.submit_time, [this, &job] { submit(job); });
  }
  schedule_faults();
  sim_.run();

  // Fold records in id order; retire_job already closed the utilization
  // window at each job's end.
  SimResult result;
  for (auto& [id, exec] : execs_) {
    EHPC_ENSURES(exec.done);  // every job must finish (or be failed)
    collector_->add_job(exec.record);
    result.jobs.push_back(exec.record);
  }
  result.metrics = collector_->compute();
  result.rescale_count = rescale_count_;
  result.stream.jobs_submitted = static_cast<long>(mix.size());
  result.stream.peak_live_jobs = static_cast<long>(mix.size());
  return result;
}

SimResult ExecHarness::run_stream(trace::TraceSource& source) {
  EHPC_EXPECTS(!used_);  // single-shot per harness instance
  used_ = true;
  streaming_ = true;
  source_ = &source;

  std::optional<SubmittedJob> first = source.next();
  EHPC_EXPECTS(first.has_value());  // an empty trace is a caller error
  stream_pending_ = true;
  next_submission_ = std::move(*first);
  sim_.schedule_at(next_submission_.submit_time, [this] { pump_submit(); });
  schedule_faults();
  sim_.run();

  EHPC_ENSURES(!stream_pending_);  // the whole source was consumed
  for (const auto& [id, exec] : execs_) {
    EHPC_ENSURES(exec.done);
  }
  SimResult result;
  result.metrics = collector_->compute();
  result.rescale_count = rescale_count_;
  result.stream = stream_stats_;
  result.stream.response_p50 = response_p50_.value();
  result.stream.response_p99 = response_p99_.value();
  result.stream.completion_p50 = completion_p50_.value();
  result.stream.completion_p99 = completion_p99_.value();
  return result;
}

void ExecHarness::pump_submit() {
  // A local copy: source_->next() below refills the member while `job` is
  // still in use.
  const SubmittedJob job = std::move(next_submission_);
  // Trace contract: ids unique among jobs tracked simultaneously.
  EHPC_EXPECTS(execs_.count(job.spec.id) == 0);
  execs_.emplace(job.spec.id, make_exec(job));
  ++stream_stats_.jobs_submitted;
  stream_stats_.peak_live_jobs = std::max(
      stream_stats_.peak_live_jobs, static_cast<long>(execs_.size()));
  submit(job);
  std::optional<SubmittedJob> next = source_->next();
  if (next.has_value()) {
    EHPC_EXPECTS(next->submit_time >= job.submit_time);  // sorted stream
    next_submission_ = std::move(*next);
    sim_.schedule_at(next_submission_.submit_time, [this] { pump_submit(); });
  } else {
    stream_pending_ = false;
  }
}

void ExecHarness::submit(const SubmittedJob& job) {
  collector_->note_submit(job.submit_time);
  auto actions = engine_->submit(job.spec, sim_.now());
  apply_actions(actions);
  on_actions_applied();
  JobExec& exec = execs_.at(job.spec.id);
  if (exec.queue_timeout_s >= 0.0 && !exec.done) {
    const elastic::JobState& st = engine_->job(job.spec.id);
    if (!st.running && !st.completed) {
      const JobId id = job.spec.id;
      exec.queue_timeout_event =
          sim_.schedule_at(sim_.now() + exec.queue_timeout_s,
                           [this, id] { queue_timeout(id); });
    }
  }
}

void ExecHarness::apply_actions(const std::vector<Action>& actions) {
  for (const Action& a : actions) {
    switch (a.type) {
      case ActionType::kStart: {
        JobExec& exec = execs_.at(a.job);
        // A granted start ends the abandonment window even if the
        // substrate's pods are not ready yet; cancelling here also keeps
        // stale timeout events from piling up in million-job replays.
        if (exec.queue_timeout_event != sim::kInvalidEvent) {
          sim_.cancel(exec.queue_timeout_event);
          exec.queue_timeout_event = sim::kInvalidEvent;
        }
        set_slot_count(exec, a.target_replicas);
        start_job(a.job, a.target_replicas);
        if (exec.task_timeout_s >= 0.0 && !exec.done) {
          const JobId id = a.job;
          exec.task_timeout_event =
              sim_.schedule_at(sim_.now() + exec.task_timeout_s,
                               [this, id] { task_timeout(id); });
        }
        break;
      }
      case ActionType::kShrink:
        set_slot_count(execs_.at(a.job), a.target_replicas);
        shrink_job(a.job, a.target_replicas);
        break;
      case ActionType::kExpand:
        set_slot_count(execs_.at(a.job), a.target_replicas);
        expand_job(a.job, a.target_replicas);
        break;
      case ActionType::kEnqueue:
        break;  // nothing to execute
    }
  }
}

void ExecHarness::note_rescale(elastic::JobId id) {
  ++rescale_count_;
  JobExec& exec = execs_.at(id);
  // A rescale restarts the job's processes, replacing any straggler PE.
  // Substrates call note_rescale after accruing progress at the old (slow)
  // rate, so clearing here takes effect exactly at the rescale boundary.
  exec.slowdown = 1.0;
  const auto& lb = exec.workload->lb;
  collector_->record_lb_step(lb.post_ratio, lb.migrations_per_step);
}

void ExecHarness::schedule_completion(JobId id) {
  JobExec& exec = execs_.at(id);
  if (exec.completion_event != sim::kInvalidEvent) {
    sim_.cancel(exec.completion_event);
  }
  const double finish = exec.accrue_from + exec.remaining_steps * exec.step_time();
  exec.completion_event = sim_.schedule_at(std::max(finish, sim_.now()),
                                           [this, id] { complete_job(id); });
}

void ExecHarness::complete_job(JobId id) {
  // Invoked by the (already firing) completion event; forget it before the
  // shared tail so finish_job does not cancel a spent event id.
  execs_.at(id).completion_event = sim::kInvalidEvent;
  execs_.at(id).remaining_steps = 0.0;
  finish_job(id, JobOutcome::kCompleted);
}

void ExecHarness::finish_job(JobId id, JobOutcome outcome) {
  JobExec& exec = execs_.at(id);
  EHPC_ENSURES(!exec.done);
  if (exec.completion_event != sim::kInvalidEvent) {
    sim_.cancel(exec.completion_event);
    exec.completion_event = sim::kInvalidEvent;
  }
  if (exec.task_timeout_event != sim::kInvalidEvent) {
    sim_.cancel(exec.task_timeout_event);
    exec.task_timeout_event = sim::kInvalidEvent;
  }
  if (exec.queue_timeout_event != sim::kInvalidEvent) {
    sim_.cancel(exec.queue_timeout_event);
    exec.queue_timeout_event = sim::kInvalidEvent;
  }
  exec.done = true;
  exec.record.failed = outcome == JobOutcome::kFailed;
  exec.record.timed_out = outcome == JobOutcome::kTimedOut;
  exec.record.complete_time = sim_.now();
  if (!exec.started && exec.record.start_time < exec.record.submit_time) {
    // Killed before the substrate reported it started (cluster pods still
    // pending): pin the record's start to the submit so timestamps stay
    // ordered.
    exec.record.start_time = exec.record.submit_time;
  }
  on_job_completed(exec);
  // Free the job's slots before the engine's follow-up actions, which may
  // start queued jobs into them.
  set_slot_count(exec, 0);
  auto actions = engine_->complete(id, sim_.now());
  apply_actions(actions);
  on_actions_applied();
  retire_job(id);
}

void ExecHarness::queue_timeout(JobId id) {
  auto it = execs_.find(id);
  if (it == execs_.end()) return;
  JobExec& exec = it->second;
  exec.queue_timeout_event = sim::kInvalidEvent;
  if (exec.done) return;
  const elastic::JobState& st = engine_->job(id);
  // Engine state, not exec.started: a cluster job granted a start still has
  // started=false until its pods are ready, but it is no longer queued.
  if (st.running || st.completed) return;
  engine_->abandon(id);
  exec.done = true;
  exec.record.abandoned = true;
  exec.record.start_time = sim_.now();
  exec.record.complete_time = sim_.now();
  EHPC_DEBUG("schedsim", "job %d abandoned after %.1fs in the queue", id,
             exec.queue_timeout_s);
  retire_job(id);
}

void ExecHarness::task_timeout(JobId id) {
  auto it = execs_.find(id);
  if (it == execs_.end()) return;
  JobExec& exec = it->second;
  exec.task_timeout_event = sim::kInvalidEvent;
  if (exec.done) return;
  EHPC_DEBUG("schedsim", "job %d killed by its %.1fs task timeout", id,
             exec.task_timeout_s);
  finish_job(id, JobOutcome::kTimedOut);
}

void ExecHarness::retire_job(JobId id) {
  auto it = execs_.find(id);
  EHPC_ENSURES(it != execs_.end() && it->second.done);
  const elastic::JobRecord& record = it->second.record;
  collector_->note_complete(record.complete_time);
  if (!streaming_) return;  // run() folds records in id order at the end
  collector_->add_job(record);
  response_p50_.add(record.response_time());
  response_p99_.add(record.response_time());
  completion_p50_.add(record.completion_time());
  completion_p99_.add(record.completion_time());
  if (retire_observer_) retire_observer_(record);
  engine_->forget(id);
  if (retire_completed_execs()) execs_.erase(it);
}

void ExecHarness::record_engine_usage() {
  collector_->record_usage(sim_.now(), engine_->used_slots());
}

// ---- fault injection ----

void ExecHarness::set_fault_plan(FaultPlan plan) {
  EHPC_EXPECTS(!used_);  // install before run()
  // Failure traces are resolved into explicit events by the scenario layer
  // (trace::resolve_failure_trace) before a plan reaches a harness.
  EHPC_EXPECTS(plan.failure_trace_path.empty());
  plan.validate();
  if (!plan.domain_crashes.empty()) {
    int mapped = 0;
    for (int size : plan.domain_sizes) mapped += size;
    EHPC_EXPECTS(mapped <= total_slots_);  // domains partition the slots
  }
  fault_plan_ = std::move(plan);
  track_slots_ = !fault_plan_.domain_crashes.empty();
  if (track_slots_) {
    slot_owner_.assign(static_cast<size_t>(total_slots_), -1);
  }
}

void ExecHarness::schedule_faults() {
  const FaultPlan& plan = fault_plan_;
  if (plan.empty()) return;
  for (double t : plan.crash_times) {
    sim_.schedule_at(t, [this] { inject_crash(); });
  }
  // Scheduled after single-node crashes: at a shared timestamp, explicit
  // crashes fire first, then domain kills, then evictions (plan order).
  for (const DomainCrash& crash : plan.domain_crashes) {
    sim_.schedule_at(crash.time_s, [this, crash] { inject_domain_crash(crash); });
  }
  for (double t : plan.evict_times) {
    sim_.schedule_at(t, [this] { inject_evict(); });
  }
  if (plan.straggler_at_s >= 0.0) {
    sim_.schedule_at(plan.straggler_at_s, [this] { inject_straggler(); });
  }
  if (plan.crash_mtbf_s > 0.0) {
    sim_.schedule_at(plan.crash_mtbf_s, [this] { crash_chain(); });
  }
  if (plan.checkpoint_period_s > 0.0) {
    sim_.schedule_at(plan.checkpoint_period_s, [this] { checkpoint_tick(); });
  }
}

JobExec* ExecHarness::pick_victim() {
  // Deterministic: widest running job, ties broken by lowest id (execs_ is
  // an ordered map, so iteration order is the id order).
  JobExec* victim = nullptr;
  for (auto& [id, exec] : execs_) {
    if (!exec.started || exec.done) continue;
    if (victim == nullptr || exec.replicas > victim->replicas) victim = &exec;
  }
  return victim;
}

bool ExecHarness::any_job_unfinished() const {
  // A streaming source that has not been exhausted counts as unfinished
  // work: the MTBF/checkpoint chains must survive the gap between the
  // current in-flight jobs draining and the next submission arriving.
  if (stream_pending_) return true;
  for (const auto& [id, exec] : execs_) {
    if (!exec.done) return true;
  }
  return false;
}

void ExecHarness::inject_crash() {
  JobExec* victim = pick_victim();
  if (victim == nullptr) return;
  collector_->record_crash();
  apply_fault(*victim, /*is_crash=*/true);
}

void ExecHarness::crash_chain() {
  // Deterministic MTBF chain: one crash per period, re-armed only while
  // work remains so the chain terminates with the run instead of needing
  // an end-time estimate up front.
  inject_crash();
  if (any_job_unfinished()) {
    sim_.schedule_at(sim_.now() + fault_plan_.crash_mtbf_s,
                     [this] { crash_chain(); });
  }
}

void ExecHarness::inject_evict() {
  JobExec* victim = pick_victim();
  if (victim == nullptr) return;
  collector_->record_eviction();
  apply_fault(*victim, /*is_crash=*/false);
}

void ExecHarness::on_domain_crash(int, const std::vector<JobId>&) {}

void ExecHarness::set_slot_count(JobExec& exec, int target) {
  if (!track_slots_) return;
  std::vector<int>& slots = exec.slots;
  while (static_cast<int>(slots.size()) > target) {
    slot_owner_[static_cast<size_t>(slots.back())] = -1;
    slots.pop_back();
  }
  int next = 0;
  while (static_cast<int>(slots.size()) < target) {
    while (next < total_slots_ && slot_owner_[static_cast<size_t>(next)] >= 0) {
      ++next;
    }
    EHPC_ENSURES(next < total_slots_);  // the engine never oversubscribes
    slot_owner_[static_cast<size_t>(next)] = exec.record.id;
    slots.push_back(next);
  }
}

void ExecHarness::inject_domain_crash(const DomainCrash& crash) {
  int lo = 0;
  for (int d = 0; d < crash.domain; ++d) lo += fault_plan_.domain_sizes[d];
  const int hi = lo + fault_plan_.domain_sizes[crash.domain];
  // Victims: running jobs owning a slot in [lo, hi), ascending id order
  // (slots are scanned in order and ids deduplicated on insert).
  std::vector<JobId> victims;
  for (int s = lo; s < hi; ++s) {
    const JobId owner = slot_owner_[static_cast<size_t>(s)];
    if (owner < 0) continue;
    const JobExec& exec = execs_.at(owner);
    if (!exec.started || exec.done) continue;
    if (std::find(victims.begin(), victims.end(), owner) == victims.end()) {
      victims.push_back(owner);
    }
  }
  std::sort(victims.begin(), victims.end());
  if (victims.empty()) return;
  collector_->record_domain_crash();
  on_domain_crash(crash.domain, victims);
  EHPC_DEBUG("schedsim", "domain %d crash at t=%.1f takes down %zu jobs",
             crash.domain, sim_.now(), victims.size());
  for (JobId id : victims) {
    JobExec& exec = execs_.at(id);
    if (exec.done) continue;  // killed by an earlier victim's budget cascade
    collector_->record_crash();
    apply_fault(exec, /*is_crash=*/true);
  }
}

void ExecHarness::apply_fault(JobExec& exec, bool is_crash) {
  const JobId id = exec.record.id;
  const double now = sim_.now();
  // Fold in progress at the pre-failure rate, then roll back to the last
  // checkpoint. For a job paused by an in-flight rescale the pause stacks,
  // exactly like a second rescale would.
  exec.accrue_until(now);
  // A staged checkpoint whose write completed by now (inclusive: a crash at
  // exactly the completion instant reads the fresh file) is durable and
  // becomes the rollback target; one still mid-write died with the process
  // and is discarded, rolling back to the previous completed checkpoint.
  if (exec.pending_ckpt_steps >= 0.0) {
    if (now >= exec.pending_ckpt_done_s) {
      exec.ckpt_remaining_steps = exec.pending_ckpt_steps;
    }
    exec.pending_ckpt_steps = -1.0;
  }
  const double lost_steps = exec.ckpt_remaining_steps - exec.remaining_steps;
  EHPC_ENSURES(lost_steps >= 0.0);
  exec.record.lost_work_s += lost_steps * exec.step_time();
  exec.remaining_steps = exec.ckpt_remaining_steps;
  // The fault restarts every process of the job, so a straggler PE dies
  // with it; the lost work above was charged at the slowed rate, and the
  // budget-kill path below must also see a clean exec.
  exec.slowdown = 1.0;

  if (is_crash) {
    ++exec.failed_nodes;
    // A per-job budget (prun's -retries) overrides the plan-wide one.
    const int budget = exec.max_failed_nodes >= 0 ? exec.max_failed_nodes
                                                  : fault_plan_.max_failed_nodes;
    if (budget >= 0 && exec.failed_nodes > budget) {
      // prun-style failure budget exhausted: the job is failed for good;
      // its slots go back to the scheduler.
      EHPC_INFO("schedsim", "job %d exceeded max_failed_nodes=%d, failing",
                id, budget);
      finish_job(id, JobOutcome::kFailed);
      return;
    }
  }

  // Downtime: detection (crashes only; an eviction is reported
  // synchronously), process restart, and a state restore from disk rather
  // than /dev/shm.
  const auto& rescale = exec.workload->rescale;
  const double lead = (is_crash ? fault_plan_.detection_s : 0.0) +
                      rescale.restart_s(exec.replicas);
  double restore =
      rescale.restore_s(exec.replicas, exec.replicas) * fault_plan_.disk_factor;
  // Recovery-storm contention: this job's restore window opens once its
  // detection + restart lead time has elapsed; restores still in flight at
  // that instant share the disk array, stretching every newcomer by
  // concurrent / restore_bandwidth (0 = unlimited, no contention).
  const double restore_begin = std::max(exec.accrue_from, now) + lead;
  restore_ends_.erase(
      std::remove_if(restore_ends_.begin(), restore_ends_.end(),
                     [restore_begin](double end) { return end <= restore_begin; }),
      restore_ends_.end());
  const int concurrent = static_cast<int>(restore_ends_.size()) + 1;
  double storm_delay = 0.0;
  if (fault_plan_.restore_bandwidth > 0.0 &&
      static_cast<double>(concurrent) > fault_plan_.restore_bandwidth) {
    const double stretched =
        restore * static_cast<double>(concurrent) / fault_plan_.restore_bandwidth;
    storm_delay = stretched - restore;
    restore = stretched;
  }
  collector_->record_restore(concurrent, storm_delay);
  const double downtime = lead + restore;
  exec.record.recovery_s += downtime;
  exec.accrue_from = std::max(exec.accrue_from, now) + downtime;
  restore_ends_.push_back(exec.accrue_from);
  schedule_completion(id);
  EHPC_DEBUG("schedsim", "%s hit job %d at t=%.1f: %.1f steps lost, %.2fs down",
             is_crash ? "crash" : "eviction", id, now, lost_steps, downtime);
}

void ExecHarness::inject_straggler() {
  JobExec* victim = pick_victim();
  if (victim == nullptr) return;
  // Progress so far accrued at full speed; from now on the slow PE drags
  // every step until a rescale replaces the process.
  victim->accrue_until(sim_.now());
  if (sim_.now() > victim->accrue_from) victim->accrue_from = sim_.now();
  victim->slowdown = fault_plan_.straggler_factor;
  schedule_completion(victim->record.id);
}

void ExecHarness::checkpoint_tick() {
  const double now = sim_.now();
  for (auto& [id, exec] : execs_) {
    if (!exec.started || exec.done) continue;
    // A job paused by a rescale or recovery cannot reach a checkpoint
    // boundary this tick; it keeps its previous snapshot.
    if (exec.accrue_from > now) continue;
    exec.accrue_until(now);
    exec.accrue_from = now;
    // A snapshot staged by an earlier tick has finished writing by now (the
    // write pause keeps accrue_from in the future until it completes, and
    // paused jobs are skipped above): commit it as the rollback target.
    if (exec.pending_ckpt_steps >= 0.0) {
      exec.ckpt_remaining_steps = exec.pending_ckpt_steps;
    }
    // Stage this tick's snapshot; writing it pauses the job for its modeled
    // checkpoint stage at disk (not /dev/shm) bandwidth, and it only
    // becomes the rollback target once that write completes.
    exec.pending_ckpt_steps = exec.remaining_steps;
    exec.accrue_from +=
        exec.workload->rescale.checkpoint_s(exec.replicas) * fault_plan_.disk_factor;
    exec.pending_ckpt_done_s = exec.accrue_from;
    exec.record.recovery_s += exec.accrue_from - now;
    schedule_completion(id);
  }
  if (any_job_unfinished()) {
    sim_.schedule_at(now + fault_plan_.checkpoint_period_s,
                     [this] { checkpoint_tick(); });
  }
}

}  // namespace ehpc::schedsim
