#pragma once

// The benchmark's four workloads. Each is a closed loop with one client:
// a pass is a fixed, seed-determined sequence of operations (one operation
// is one simulated run), and a run repeats passes until its time is up.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer accounting of one traced pass. Counts are exact and repeat
/// from pass to pass; times are host seconds.
struct Layers {
  // elastic: PolicyEngine, measured by replaying the run's call sequence.
  long decisions = 0;
  double decide_s = 0.0;
  std::vector<double> decide_us;
  long jobs_scanned = 0;
  long replay_mismatches = 0;
  // schedsim: SchedSimulator runs (and their streaming harness).
  long sched_runs = 0;
  double sched_run_s = 0.0;
  std::vector<double> sched_run_ms;
  long jobs_retired = 0;
  long peak_live_jobs = 0;
  // trace: TraceSource pulls.
  long trace_records = 0;
  double trace_pull_s = 0.0;
  // k8s + opk: the cluster substrate.
  long pods_bound = 0;
  long bind_attempts = 0;
  long retry_sweeps = 0;
  long nodes_examined = 0;
  long pod_mutations = 0;
  double opk_run_s = 0.0;
  long opk_rescales = 0;
  // charm + net: the minicharm runtime and its network model.
  double charm_run_s = 0.0;
  long lb_steps = 0;
  long lb_migrations = 0;
  long net_calls = 0;
  double net_s = 0.0;
  // sim: discrete-event kernel, where a caller can reach it.
  long sim_events = 0;
};

/// Result of one operation.
struct Op {
  /// Host seconds of the simulated run itself: building the substrate and
  /// running it, without the probes' bookkeeping or the engine replay.
  double host_s = 0.0;
  double items = 0.0;          ///< work items completed (jobs, pods, supersteps)
  std::vector<double> values;  ///< virtual-time outputs and exact counters
  /// Traced runs only: exact per-layer counts of this operation, which must
  /// repeat bit for bit on every traced pass.
  std::vector<double> counters;
  /// Traced runs only: start decisions the engine replay did not reproduce.
  long mismatches = 0;
};

/// A named headline result, printed by the report with its unit.
struct Headline {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What `Op::items` counts ("jobs", "pods", "supersteps").
  virtual std::string item() const = 0;
  /// Calibration plus input generation, all derived from `seed`.
  virtual void setup(unsigned seed) = 0;
  /// Host seconds the last setup spent calibrating workload models.
  virtual double calibrate_s() const { return 0.0; }
  /// Operations in one pass.
  virtual std::size_t pass_size() const = 0;
  /// Reference group an operation belongs to; a group's outputs are the
  /// mean of its operations' values (see value_names).
  virtual std::size_t group_of(std::size_t op) const { return op; }
  virtual std::size_t num_groups() const { return pass_size(); }
  virtual std::string group_name(std::size_t group) const = 0;
  /// Names of `Op::values`, in order.
  virtual const std::vector<std::string>& value_names() const = 0;
  /// Run operation `op` of the pass; `layers` is null when untraced.
  virtual Op run(std::size_t op, Layers* layers) = 0;
  /// Headline virtual-time results from the per-group means of one pass.
  virtual std::vector<Headline> headlines(
      const std::vector<std::vector<double>>& group_means) const = 0;
};

/// Names accepted by make_workload, in report order.
const std::vector<std::string>& workload_names();

/// `small` shrinks every input for the self-tests.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        bool small = false);

}  // namespace perfbench
