#include "elastic/policy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::elastic {

std::string to_string(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kRigidMin: return "min_replicas";
    case PolicyMode::kRigidMax: return "max_replicas";
    case PolicyMode::kMoldable: return "moldable";
    case PolicyMode::kElastic: return "elastic";
  }
  return "?";
}

PolicyMode policy_mode_from_string(const std::string& name) {
  if (name == "min_replicas" || name == "min") return PolicyMode::kRigidMin;
  if (name == "max_replicas" || name == "max") return PolicyMode::kRigidMax;
  if (name == "moldable") return PolicyMode::kMoldable;
  if (name == "elastic") return PolicyMode::kElastic;
  throw PreconditionError("unknown policy mode: " + name);
}

PolicyEngine::PolicyEngine(int total_slots, PolicyConfig config)
    : total_slots_(total_slots), free_slots_(total_slots), config_(config) {
  EHPC_EXPECTS(total_slots_ > 0);
  EHPC_EXPECTS(config_.rescale_gap_s >= 0.0);
  EHPC_EXPECTS(config_.reserve_slots >= 0);
}

const JobState& PolicyEngine::job(JobId id) const {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  return it->second;
}

JobState& PolicyEngine::job_mut(JobId id) {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  return it->second;
}

JobSpec PolicyEngine::transform_spec(JobSpec spec) const {
  // The paper emulates the rigid schedulers by collapsing min and max.
  switch (config_.mode) {
    case PolicyMode::kRigidMin:
      spec.max_replicas = spec.min_replicas;
      break;
    case PolicyMode::kRigidMax:
      spec.min_replicas = spec.max_replicas;
      break;
    case PolicyMode::kMoldable:
    case PolicyMode::kElastic:
      break;
  }
  return spec;
}

bool PolicyEngine::rescale_allowed(const JobState& j, double now) const {
  return now - j.last_action_time >= config_.rescale_gap_s;
}

std::vector<JobId> PolicyEngine::queued() const {
  std::vector<JobId> out;
  out.reserve(queued_.size());
  for (const JobState* st : queued_) out.push_back(st->spec.id);
  return out;
}

std::vector<JobId> PolicyEngine::running() const {
  std::vector<JobId> out;
  out.reserve(running_.size());
  for (const JobState* st : running_) out.push_back(st->spec.id);
  return out;
}

std::vector<JobId> PolicyEngine::all_jobs() const {
  std::vector<JobId> out;
  out.reserve(jobs_.size());
  for (const auto& [id, st] : jobs_) out.push_back(id);
  return out;
}

std::vector<Action> PolicyEngine::submit(const JobSpec& raw_spec, double now) {
  const JobSpec spec = transform_spec(raw_spec);
  EHPC_EXPECTS(spec.min_replicas >= 1);
  EHPC_EXPECTS(spec.max_replicas >= spec.min_replicas);
  EHPC_EXPECTS(spec.min_replicas <= total_slots_ - config_.reserve_slots);
  EHPC_EXPECTS(jobs_.count(spec.id) == 0);

  JobState st;
  st.spec = spec;
  st.submit_time = now;
  auto [it, inserted] = jobs_.emplace(spec.id, st);
  EHPC_ENSURES(inserted);
  JobState& job = it->second;

  // Fig. 2, first branch: start outright if the free slots allow >= min.
  // Otherwise only the elastic policy may evict capacity from
  // lower-priority running jobs; everyone else queues.
  std::vector<Action> actions;
  const int replicas =
      std::min(free_slots_ - config_.reserve_slots, spec.max_replicas);
  if (replicas >= spec.min_replicas) {
    job.replicas = replicas;
    job.running = true;
    job.last_action_time = now;
    free_slots_ -= replicas;
    EHPC_DEBUG("policy", "job %d starts with %d replicas (free now %d)",
               spec.id, replicas, free_slots_);
    actions = {Action{ActionType::kStart, spec.id, replicas}};
  } else if (config_.mode != PolicyMode::kElastic) {
    actions = {Action{ActionType::kEnqueue, spec.id, 0}};
  } else {
    actions = try_shrink_to_fit(job, now);
  }
  if (job.running) {
    running_.insert(&job);
  } else {
    queued_.insert(&job);
  }
  return actions;
}

std::vector<Action> PolicyEngine::try_shrink_to_fit(JobState& job, double now) {
  // Fig. 2 dry-run: can enough slots be freed (respecting T_rescale_gap and
  // priority) to reach the job's min replicas? Walk from the lowest-priority
  // running job; index 0 (the highest-priority job) is never considered.
  // `job` is not in running_ yet, so the walks below never visit it.
  auto stop = running_.begin();
  if (config_.protect_top_job && stop != running_.end()) ++stop;
  int num_to_free = job.spec.min_replicas - free_slots_ + config_.reserve_slots;
  for (auto it = running_.end(); num_to_free > 0 && it != stop;) {
    const JobState& j = **--it;
    if (!rescale_allowed(j, now)) continue;
    if (j.spec.priority > job.spec.priority) break;
    if (j.replicas > j.spec.min_replicas) {
      const int new_replicas =
          std::max(j.spec.min_replicas, j.replicas - num_to_free);
      num_to_free -= j.replicas - new_replicas;
    }
  }
  if (num_to_free > 0) {
    return {Action{ActionType::kEnqueue, job.spec.id, 0}};
  }

  // Commit: shrink until the new job could run at max replicas (or we run
  // out of eligible victims), but only require reaching min.
  std::vector<Action> actions;
  int min_to_free = job.spec.min_replicas - free_slots_ + config_.reserve_slots;
  int max_to_free = job.spec.max_replicas - free_slots_ + config_.reserve_slots;
  for (auto it = running_.end(); max_to_free > 0 && it != stop;) {
    JobState& j = **--it;
    if (!rescale_allowed(j, now)) continue;
    if (j.spec.priority > job.spec.priority) break;
    if (j.replicas > j.spec.min_replicas) {
      const int new_replicas =
          std::max(j.spec.min_replicas, j.replicas - max_to_free);
      const int freed = j.replicas - new_replicas;
      j.replicas = new_replicas;
      j.last_action_time = now;
      free_slots_ += freed;
      min_to_free -= freed;
      max_to_free -= freed;
      actions.push_back(Action{ActionType::kShrink, j.spec.id, new_replicas});
      EHPC_DEBUG("policy", "shrink job %d to %d (freeing %d for job %d)",
                 j.spec.id, new_replicas, freed, job.spec.id);
    }
  }
  EHPC_ENSURES(min_to_free <= 0);  // the dry run guaranteed feasibility

  const int replicas =
      std::min(free_slots_ - config_.reserve_slots, job.spec.max_replicas);
  EHPC_ENSURES(replicas >= job.spec.min_replicas);
  job.replicas = replicas;
  job.running = true;
  job.last_action_time = now;
  free_slots_ -= replicas;
  actions.push_back(Action{ActionType::kStart, job.spec.id, replicas});
  return actions;
}

void PolicyEngine::abandon(JobId id) {
  JobState& st = job_mut(id);
  EHPC_EXPECTS(!st.running && !st.completed);
  EHPC_ENSURES(st.replicas == 0);  // queued jobs hold no slots
  st.completed = true;
  const std::size_t erased = queued_.erase(&st);
  EHPC_ENSURES(erased == 1);
}

void PolicyEngine::forget(JobId id) {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  EHPC_EXPECTS(it->second.completed);
  jobs_.erase(it);
}

std::vector<Action> PolicyEngine::complete(JobId id, double now) {
  JobState& done = job_mut(id);
  EHPC_EXPECTS(done.running);
  free_slots_ += done.replicas;
  done.replicas = 0;
  done.running = false;
  done.completed = true;
  running_.erase(&done);

  // Fig. 3: hand the available slots to jobs in PriorityOrder — running
  // jobs below their max (elastic only) and queued jobs that can reach at
  // least their min. Both sets are already in that order, so taking the
  // earlier of their two heads at each step visits jobs exactly as sorting
  // them all would.
  const bool can_rescale = config_.mode == PolicyMode::kElastic;
  auto run = can_rescale ? running_.begin() : running_.end();
  auto queue = queued_.begin();
  std::vector<Action> actions;
  std::vector<JobState*> started;
  int budget = free_slots_;
  while (budget > 0 && (run != running_.end() || queue != queued_.end())) {
    const bool take_run =
        queue == queued_.end() ||
        (run != running_.end() && PriorityOrder{}(**run, **queue));
    JobState& j = take_run ? **run++ : **queue++;
    if (!rescale_allowed(j, now)) continue;
    if (j.replicas >= j.spec.max_replicas) continue;
    const int add = std::min(budget, j.spec.max_replicas - j.replicas);
    if (j.replicas + add < j.spec.min_replicas) continue;
    const bool was_queued = !j.running;
    j.replicas += add;
    j.running = true;
    j.last_action_time = now;
    free_slots_ -= add;
    budget -= add;
    if (was_queued) started.push_back(&j);
    actions.push_back(Action{was_queued ? ActionType::kStart : ActionType::kExpand,
                             j.spec.id, j.replicas});
    EHPC_DEBUG("policy", "%s job %d to %d replicas on completion of job %d",
               was_queued ? "start" : "expand", j.spec.id, j.replicas, id);
  }
  // Moved only now so the walk over running_ never meets a job it started.
  for (JobState* j : started) {
    queued_.erase(j);
    running_.insert(j);
  }
  return actions;
}

}  // namespace ehpc::elastic
