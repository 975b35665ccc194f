#pragma once

#include <string>
#include <vector>

namespace ehpc::schedsim {

/// One correlated failure: every slot (PE) of failure domain `domain` dies
/// at virtual time `time_s`, crashing all jobs with a worker in the domain
/// atomically at that instant.
struct DomainCrash {
  double time_s = 0.0;
  int domain = 0;
};

/// Deterministic failure-injection plan, executed identically by both
/// substrates through the shared `ExecHarness`: the pure performance
/// simulator and the Kubernetes emulation see the same crashes, evictions
/// and stragglers at the same virtual times, so policies can be compared
/// under failure the way the paper compares them under load.
///
/// Everything is deterministic by construction — crash times are explicit
/// or derived from a fixed MTBF chain (one crash every `crash_mtbf_s`
/// seconds), never drawn from a clock or RNG — which keeps threads=N sweep
/// results bit-identical to threads=1.
struct FaultPlan {
  /// Node crashes at these absolute virtual times. Each crash hits the
  /// widest running job (ties broken by lowest job id), rolls it back to
  /// its last checkpoint, and charges detection + restart + disk-restore
  /// downtime. Multiple crashes at the *same* timestamp are applied in plan
  /// order and each re-picks its victim under that rule; since a rollback
  /// does not change a job's width, same-instant crashes land on the same
  /// widest job — deterministically, on both substrates.
  std::vector<double> crash_times;

  /// Failure-domain map: slot (PE) space is partitioned into consecutive
  /// groups — domain d covers `domain_sizes[d]` slots starting where domain
  /// d-1 ended (a rack/zone of `domain_sizes[d] / cpus_per_node` nodes on
  /// the cluster substrate). Empty = no domains defined.
  std::vector<int> domain_sizes;

  /// Correlated crash events: at each entry's time every slot of its domain
  /// dies at once. Every job with a worker in the domain takes a node crash
  /// (rollback + detection + restart + disk restore, charged against the
  /// failure budget); victims are the affected jobs in ascending id order.
  /// Requires a non-empty `domain_sizes`.
  std::vector<DomainCrash> domain_crashes;

  /// Optional CSV failure trace (see trace::CsvFailureTraceSource): loaded
  /// by scenario::make_backend via trace::resolve_failure_trace, which
  /// appends the trace's events to the vectors above and clears this path.
  /// The ExecHarness itself refuses plans with an unresolved path.
  std::string failure_trace_path;

  /// Deterministic crash chain: one crash every `crash_mtbf_s` seconds
  /// (starting at that time) while any job is unfinished. 0 disables.
  /// Beware pairing a chain with `checkpoint_period_s == 0`: a job that
  /// needs longer than the MTBF is rolled back to its start on every crash
  /// and never finishes (as it would in reality) — give such plans
  /// checkpoints or a `max_failed_nodes` budget so the run terminates.
  double crash_mtbf_s = 0.0;

  /// Pod evictions at these absolute virtual times: same rollback and
  /// restart as a crash but no detection delay (the kubelet reports the
  /// eviction synchronously) and no charge against the failure budget.
  std::vector<double> evict_times;

  /// At this virtual time the widest running job gains a straggler PE:
  /// its step time is multiplied by `straggler_factor` until its next
  /// rescale replaces the slow process. Negative disables.
  double straggler_at_s = -1.0;
  double straggler_factor = 1.0;

  /// Periodic disk checkpoints every `checkpoint_period_s` seconds of
  /// virtual time for every running job (0 = no checkpoints: a failure
  /// rolls the job back to the start). Each checkpoint pauses the job for
  /// its modeled checkpoint stage scaled by `disk_factor`.
  double checkpoint_period_s = 0.0;

  /// Failure-detection delay charged before a crash recovery begins.
  double detection_s = 5.0;

  /// Disk-vs-/dev/shm bandwidth ratio: disk checkpoint/restore stages cost
  /// this multiple of the in-memory rescale stages (the charm runtime's
  /// default config ratio, 4 GB/s shm over 0.2 GB/s disk).
  double disk_factor = 20.0;

  /// Recovery-storm contention: how many jobs can restore from disk at full
  /// speed concurrently. When more than this many jobs are restoring in
  /// overlapping windows, each restore in flight is stretched by
  /// `concurrent / restore_bandwidth` (the shared disk array serves them
  /// round-robin). 0 = unlimited (no contention, the pre-storm model).
  double restore_bandwidth = 0.0;

  /// prun-style per-job failure budget (maxFailedNodes): once a job has
  /// absorbed more than this many node crashes it is failed permanently —
  /// its slots are released and it never completes. Negative = unlimited.
  int max_failed_nodes = -1;

  /// True when the plan injects nothing (the default): the harness skips
  /// all fault machinery and runs exactly as before.
  bool empty() const;

  /// Throws PreconditionError on inconsistent settings (negative times,
  /// slowdown factor below 1, non-positive MTBF period...).
  void validate() const;
};

}  // namespace ehpc::schedsim
