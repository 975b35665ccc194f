#pragma once

#include <string>

#include "common/piecewise_linear.hpp"
#include "elastic/job.hpp"

namespace ehpc::elastic {

/// The four problem sizes used throughout the paper's evaluation (§4.3.1).
enum class JobClass { kSmall, kMedium, kLarge, kXLarge };

std::string to_string(JobClass c);

/// Parse "small" / "medium" / "large" / "xlarge"; throws PreconditionError
/// on anything else. Inverse of `to_string(JobClass)`; used by the trace
/// CSV loader and the cron/scenario config keys.
JobClass job_class_from_string(const std::string& name);

/// Physically grounded model of the 4-stage rescale overhead (paper §4.2):
/// checkpoint and restore scale with per-PE data over shared-memory
/// bandwidth, restart grows linearly with the new rank count (MPI startup),
/// and the LB stage moves the migrated fraction over the fabric.
struct RescaleOverheadModel {
  double data_bytes = 0.0;            ///< total application state
  int num_objects = 256;              ///< chares (for per-object costs)
  double shm_bandwidth_Bps = 4.0e9;   ///< /dev/shm effective bandwidth
  double per_object_s = 50.0e-6;      ///< serialization overhead per chare
  double startup_alpha_s = 0.4;       ///< mpirun fixed startup
  double startup_per_pe_s = 0.03;     ///< startup growth per rank
  double fabric_bandwidth_Bps = 1.5e9;  ///< migration path bandwidth

  double checkpoint_s(int from) const;
  double restore_s(int from, int to) const;
  double restart_s(int to) const;
  double load_balance_s(int from, int to) const;

  /// Total pause experienced by the application when rescaling from→to.
  double overhead_s(int from, int to) const;
};

/// Calibrated load-balancing behaviour of one runtime LB step for this
/// workload, as measured on minicharm (`apps::measure_lb_profile`). The
/// default models a regular app: a perfectly balanced step with no
/// migrations. The experiment harness surfaces these through
/// `RunMetrics::lb_*` whenever a job rescales.
struct LbStepModel {
  double post_ratio = 1.0;          ///< max/avg PE load after an LB step
  double migrations_per_step = 0.0; ///< objects migrated per LB step
};

/// Everything the performance simulator needs to model one job's execution:
/// its spec bounds, how long a step takes at a given replica count
/// (piecewise-linear in replicas, as in the paper), and its rescale cost.
struct Workload {
  JobClass job_class = JobClass::kSmall;
  int grid_n = 512;
  double total_steps = 40000;
  int min_replicas = 2;
  int max_replicas = 8;
  PiecewiseLinear time_per_step;  ///< seconds per step vs replicas
  RescaleOverheadModel rescale;
  LbStepModel lb;                 ///< runtime LB behaviour when rescaling

  /// Runtime if executed start-to-finish at a fixed replica count.
  double runtime_at(int replicas) const {
    return total_steps * time_per_step.at_clamped(static_cast<double>(replicas));
  }
};

/// Analytic default workload for a job class: the paper's grid sizes, step
/// counts and min/max replicas, with a step-time curve from a roofline-style
/// model (compute W/P plus per-PE message costs plus a log-depth reduction).
/// The simulator can replace the curve with one calibrated from minicharm
/// runs (see schedsim::calibrate_workloads).
Workload make_workload(JobClass c);

/// Paper parameters for each class (grid, steps, min, max).
JobSpec spec_for_class(JobClass c, JobId id, int priority);

}  // namespace ehpc::elastic
