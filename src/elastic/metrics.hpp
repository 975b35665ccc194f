#pragma once

#include <vector>

#include "common/stats.hpp"
#include "elastic/job.hpp"

namespace ehpc::elastic {

/// Lifecycle timestamps of one finished job, plus its fault history.
struct JobRecord {
  JobId id = 0;
  int priority = 1;
  double submit_time = 0.0;
  double start_time = 0.0;
  double complete_time = 0.0;
  /// Killed by the failure budget (complete_time is the kill time, not a
  /// successful completion).
  bool failed = false;
  /// Abandoned unstarted when its queue timeout expired (start_time and
  /// complete_time are both the abandon time).
  bool abandoned = false;
  /// Killed by its task timeout after running `task_timeout_s` of wall
  /// clock (complete_time is the kill time; the spent runtime is charged).
  bool timed_out = false;
  /// Progress rolled back to the last checkpoint across all failures.
  double lost_work_s = 0.0;
  /// Downtime spent on fault tolerance: writing periodic checkpoints plus
  /// detecting failures, restarting and restoring state after them.
  double recovery_s = 0.0;

  double response_time() const { return start_time - submit_time; }
  double completion_time() const { return complete_time - submit_time; }

  /// Fraction of the job's wall-clock span spent making forward progress
  /// (1 = no failures; 0 for a job that produced no result — killed by the
  /// failure budget, abandoned in the queue, or killed by its task
  /// timeout).
  double goodput() const {
    if (failed || abandoned || timed_out) return 0.0;
    const double span = complete_time - start_time;
    if (span <= 0.0) return 1.0;
    const double useful = span - lost_work_s - recovery_s;
    return useful > 0.0 ? useful / span : 0.0;
  }
};

/// The four metrics of paper §4.3, computed over one experiment run, plus
/// runtime load-balancing health observed during it.
struct RunMetrics {
  double total_time_s = 0.0;        ///< first submission to last completion
  double utilization = 0.0;         ///< time-weighted mean used/total slots
  double weighted_response_s = 0.0;   ///< priority-weighted mean response
  double weighted_completion_s = 0.0; ///< priority-weighted mean completion
  /// Load-balancer imbalance surfaced from the runtime layer: the mean
  /// post-LB max/avg PE load ratio (1.0 = perfectly balanced, also the
  /// value when no LB step ran) and mean object migrations per LB step.
  double lb_post_ratio = 1.0;
  double lb_migrations_per_step = 0.0;
  double lb_steps = 0.0;            ///< LB steps observed (mean when averaged)
  /// Fault-injection outcomes (all 0/1-neutral defaults when no faults ran):
  /// injected event counts, jobs killed by the failure budget, mean per-job
  /// recovery downtime and rolled-back work, and the mean per-job goodput
  /// fraction (1.0 = every job spent its whole span progressing).
  double failures = 0.0;            ///< node crashes injected
  double evictions = 0.0;           ///< pod evictions injected
  /// Correlated domain-crash events that hit at least one running job.
  double correlated_failures = 0.0;
  /// Recovery-storm shape: the most restores ever in flight at once, and
  /// the total extra downtime (seconds, summed over jobs) that restore-
  /// bandwidth sharing added on top of isolated restores.
  double storm_peak_restorers = 0.0;
  double storm_delay_s = 0.0;
  double jobs_failed = 0.0;         ///< jobs killed by the failure budget
  double jobs_abandoned = 0.0;      ///< jobs abandoned by their queue timeout
  double jobs_timed_out = 0.0;      ///< jobs killed by their task timeout
  double recovery_time_s = 0.0;     ///< mean per-job recovery downtime
  double lost_work_s = 0.0;         ///< mean per-job rolled-back work
  double goodput = 1.0;             ///< mean per-job useful-time fraction
};

/// Folds job records and a used-slots step trace into O(1) accumulators,
/// then computes the run metrics. Used identically by the performance
/// simulator and the Kubernetes-substrate experiment, in both drive modes,
/// so "Actual" and "Simulation" columns are directly comparable and memory
/// stays constant on million-job traces.
///
/// The utilization window spans the first submission to the last
/// completion. Callers announce both ends as they happen: `note_submit(t)`
/// at each submission and `note_complete(t)` at each job's end, in time
/// order. `add_job` only folds a record's own statistics, so records may
/// arrive later and in any order (the batch harness folds them in id order
/// after the run) without moving the window; usage steps recorded after
/// the last completion (pod teardown) never reach utilization.
class MetricsCollector {
 public:
  explicit MetricsCollector(int total_slots);

  /// A job was submitted at `t`: opens the utilization window at the
  /// earliest submission.
  void note_submit(double t);

  /// A job ended (completed, failed, abandoned or timed out) at `t`:
  /// closes the utilization window there unless a later end already did.
  void note_complete(double t);

  /// Fold one finished job's record. Its submission and end must already
  /// have been noted.
  void add_job(const JobRecord& record);

  /// Record that `used` slots are busy from time `t` onward.
  void record_usage(double t, int used);

  /// Record one runtime LB step: the post-LB max/avg PE load ratio it
  /// achieved and the object migrations it needed.
  void record_lb_step(double post_ratio, double migrations);

  /// Count one injected node crash / pod eviction.
  void record_crash();
  void record_eviction();

  /// Count one correlated domain-crash event (the per-victim crashes are
  /// still counted individually through record_crash).
  void record_domain_crash();
  /// Record one checkpoint restore beginning with `concurrent` restores in
  /// flight (itself included) and `delay_s` of contention stretch added by
  /// restore-bandwidth sharing.
  void record_restore(int concurrent, double delay_s);

  RunMetrics compute() const;

 private:
  int total_slots_;
  double lb_ratio_sum_ = 0.0;
  double lb_migration_sum_ = 0.0;
  long lb_count_ = 0;
  int crashes_ = 0;
  int evictions_ = 0;
  int domain_crashes_ = 0;
  int peak_restorers_ = 0;
  double storm_delay_sum_ = 0.0;

  long n_jobs_ = 0;
  double first_submit_ = 0.0;
  bool have_first_submit_ = false;
  double last_complete_ = 0.0;
  bool have_complete_ = false;
  WeightedMean response_;
  WeightedMean completion_;
  double recovery_sum_ = 0.0;
  double lost_sum_ = 0.0;
  double goodput_sum_ = 0.0;
  long failed_count_ = 0;
  long abandoned_count_ = 0;
  long timed_out_count_ = 0;
  // Usage step-function integral over [first_submit_, latest step], plus
  // the same integral extended to (and cut at) the latest completion.
  // Products are summed in time order, span divided before slot count, so
  // the result is the windowed time_weighted_average of the step trace.
  bool have_usage_ = false;
  double last_usage_t_ = 0.0;
  double last_used_ = 0.0;
  double integral_ = 0.0;
  double window_integral_ = 0.0;
};

/// Average each metric over several runs (the paper reports means over 100
/// random job mixes).
RunMetrics average_metrics(const std::vector<RunMetrics>& runs);

}  // namespace ehpc::elastic
