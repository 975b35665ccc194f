#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "elastic/job.hpp"

namespace ehpc::elastic {

/// The four scheduling strategies evaluated in the paper (§4.3). All share
/// the same priority logic; they differ in sizing and in whether running
/// jobs may be rescaled:
///  - kRigidMin / kRigidMax: jobs are forced to min/max replicas (emulated,
///    as in the paper, by collapsing min=max in the spec) and never rescale.
///  - kMoldable: sized at launch to maximize utilization, never rescaled
///    (the elastic policy with rescaling disabled).
///  - kElastic: the paper's priority-based elastic policy (Fig. 2/3).
enum class PolicyMode { kRigidMin, kRigidMax, kMoldable, kElastic };

std::string to_string(PolicyMode mode);
PolicyMode policy_mode_from_string(const std::string& name);

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kElastic;
  double rescale_gap_s = 180.0;  ///< T_rescale_gap between scheduling events
  /// Slots held back when sizing a new job (the "freeSlots - 1" in Fig. 2;
  /// the paper's cluster reserves headroom for the launcher pod). Default 0
  /// so a max_replicas=cluster job can run; see the ablation bench.
  int reserve_slots = 0;
  /// Fig. 2/3 walk victims with `index > 0`, so the highest-priority running
  /// job is never shrunk (and a lone running job cannot be evicted at all).
  /// true = faithful to the paper; false = also consider index 0 (ablation).
  bool protect_top_job = true;
};

/// The scheduling-policy engine: owns the scheduler's view of every job and
/// implements the paper's submit/complete algorithms, emitting Actions for
/// an executor (the Kubernetes operator or the performance simulator) to
/// realize. The engine applies its own bookkeeping optimistically, exactly
/// like the in-operator scheduler whose view is authoritative. Live jobs sit
/// in two sets ordered by `PriorityOrder`, one running and one queued, so no
/// decision collects or sorts them.
class PolicyEngine {
 public:
  PolicyEngine(int total_slots, PolicyConfig config);
  // The priority sets point into the job map; a copy would alias it.
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Handle a job submission at time `now` (paper Fig. 2). The spec is
  /// transformed per the mode (rigid modes collapse min/max). Returns the
  /// actions to execute, in order: any shrinks first, then the start or an
  /// enqueue marker.
  std::vector<Action> submit(const JobSpec& spec, double now);

  /// Handle a job completion at time `now` (paper Fig. 3): free its slots
  /// and hand them to running jobs below max (elastic only) and to queued
  /// jobs, in priority order.
  std::vector<Action> complete(JobId id, double now);

  /// Withdraw a queued job that gave up waiting (its queue timeout fired).
  /// The job must be queued — never started; it holds no slots, so nothing
  /// is redistributed. It is marked completed so later redistribution
  /// passes skip it.
  void abandon(JobId id);

  /// Drop a completed job's state entirely. Streaming replay retires jobs
  /// as they finish so the engine's map — like the harness — holds only
  /// in-flight jobs, keeping million-job traces in bounded memory.
  void forget(JobId id);

  // ---- inspection ----
  int total_slots() const { return total_slots_; }
  int free_slots() const { return free_slots_; }
  int used_slots() const { return total_slots_ - free_slots_; }
  const PolicyConfig& config() const { return config_; }
  bool has_job(JobId id) const { return jobs_.count(id) > 0; }
  const JobState& job(JobId id) const;
  /// Queued (submitted, not yet started, not completed) jobs in
  /// `PriorityOrder`, the order `complete()` offers them slots in.
  std::vector<JobId> queued() const;
  /// Running jobs in decreasing priority order.
  std::vector<JobId> running() const;
  /// All jobs that have been submitted.
  std::vector<JobId> all_jobs() const;

 private:
  JobState& job_mut(JobId id);
  JobSpec transform_spec(JobSpec spec) const;
  bool rescale_allowed(const JobState& j, double now) const;
  // Fig. 2 second half: shrink lower-priority running jobs to fit `job`.
  // Returns the actions performed; on failure leaves state untouched and
  // returns only an enqueue marker.
  std::vector<Action> try_shrink_to_fit(JobState& job, double now);

  struct ByPriority {
    bool operator()(const JobState* a, const JobState* b) const {
      return PriorityOrder{}(*a, *b);
    }
  };
  using JobSet = std::set<JobState*, ByPriority>;

  int total_slots_;
  int free_slots_;
  PolicyConfig config_;
  std::map<JobId, JobState> jobs_;  ///< owns every job, completed ones too
  JobSet running_;
  JobSet queued_;
};

}  // namespace ehpc::elastic
