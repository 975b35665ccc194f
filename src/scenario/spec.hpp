#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "elastic/policy.hpp"
#include "schedsim/fault.hpp"

namespace ehpc::scenario {

/// Which execution substrate realises the policy's decisions (§4.3): the
/// pure scheduler-performance simulator, or the emulated Kubernetes cluster
/// with the full operator/pod/handshake machinery.
enum class Substrate { kSchedSim, kCluster };

std::string to_string(Substrate s);
/// Parse "schedsim" / "cluster"; throws ConfigError on anything else.
Substrate substrate_from_string(const std::string& name);

/// The parameter an experiment sweeps, one point per value. Each axis sweeps
/// the config key of the same name (kLbStrategy values index
/// `charm::load_balancer_names()`).
enum class SweepAxis {
  kNone,
  kSubmissionGap,
  kRescaleGap,
  kRefineRate,
  kLbStrategy,
  kFaultMtbf,
  kCheckpointPeriod,
  kGraphSkew,
  kNetOversub,
};

std::string to_string(SweepAxis a);
/// Parse "none" or the config key an axis sweeps ("submission_gap", ...);
/// throws ConfigError listing every axis on anything else.
SweepAxis sweep_axis_from_string(const std::string& name);

/// True for axes whose value changes the workload calibration itself (the
/// sweep engine then calibrates per point instead of once per sweep).
bool axis_affects_workloads(SweepAxis a);

/// Declarative description of one experiment: cluster shape, job-mix
/// generation, policy configuration, substrate choice, sweep axis and
/// repeat/seed bookkeeping. Every bench, example and test describes its
/// experiment as a ScenarioSpec (usually starting from a named registry
/// entry) and hands it to the scenario runner; nothing below this layer
/// hand-wires experiment loops anymore.
struct ScenarioSpec {
  std::string name = "custom";  ///< registry key; "custom" when ad hoc
  std::string description;
  Substrate substrate = Substrate::kSchedSim;

  // Cluster shape (paper §4.1: 4 × c6g.4xlarge = 64 vCPUs).
  int nodes = 4;
  int cpus_per_node = 16;

  // Job-mix generation (§4.3.1): `num_jobs` random jobs submitted
  // `submission_gap_s` apart, step-time curves either minicharm-calibrated
  // or analytic.
  int num_jobs = 16;
  double submission_gap_s = 90.0;
  bool calibrated = true;
  /// When positive, every generated job is forced rigid at this width
  /// (min_replicas = max_replicas = pods_per_job). The scale knob of the
  /// `k8s_scale` scenario: total pod count = num_jobs × pods_per_job,
  /// independent of the class-driven widths. 0 keeps the class widths.
  int pods_per_job = 0;

  // Which application the workload models are calibrated from: "jacobi"
  // (the paper's regular stencil), "amr" (the irregular adaptive-mesh
  // workload, always minicharm-calibrated) or "graph" (the power-law graph
  // superstep workload). For "amr", `refine_rate` sets the refinement-event
  // rate; `lb_strategy` picks the runtime load balancer used during the
  // calibration runs for both irregular apps.
  std::string app = "jacobi";
  double refine_rate = 0.12;
  std::string lb_strategy = "greedy";

  // Network model the graph calibration runs under ("flat" keeps the
  // classic alpha-beta cost model; "fattree"/"dragonfly" add per-link
  // contention) and its topology parameters. Graph-only: jacobi/amr
  // calibrations predate the topology seam and keep the flat model.
  std::string net_model = "flat";
  double net_oversub = 1.0;
  int graph_vertices = 4096;
  double graph_skew = 0.8;

  // Policy configuration shared by every policy in `policies`.
  double rescale_gap_s = 180.0;
  std::vector<elastic::PolicyMode> policies{
      elastic::PolicyMode::kRigidMin, elastic::PolicyMode::kRigidMax,
      elastic::PolicyMode::kMoldable, elastic::PolicyMode::kElastic};

  // Failure injection (executed by the shared harness, so both substrates
  // see the identical fault sequence). Empty by default: no faults, no
  // checkpointing, behaviour identical to a spec without the field.
  schedsim::FaultPlan faults;

  // ---- trace campaign (streaming TraceSource replay) ----
  // When any trace source below is configured the runner switches from
  // generated mixes to `run_stream`: submissions are pulled lazily and
  // finished jobs retire to summaries, so trace length no longer bounds
  // memory. Multiple configured sources merge in submit-time order.
  std::string trace_path;   ///< CSV trace file; empty = no CSV source
  long trace_jobs = 0;      ///< synthetic stream length; 0 = no synthetic
  double cron_period_s = 0.0;  ///< recurring-job period; 0 = no cron source
  double cron_phase_s = 0.0;   ///< first cron submission time
  double cron_end_s = 0.0;     ///< last eligible cron submission (inclusive)
  std::string cron_class = "medium";
  int cron_priority = 3;
  // Per-job prun-style limits stamped onto every job — trace-sourced and
  // generated mixes alike. Negative = off.
  double queue_timeout_s = -1.0;  ///< abandon a job queued this long
  double task_timeout_s = -1.0;   ///< kill a job running this long

  /// True when any trace source is configured (the runner streams).
  bool is_trace() const {
    return !trace_path.empty() || trace_jobs > 0 || cron_period_s > 0.0;
  }

  // Sweep: one point per `axis_values` entry, overriding the swept
  // parameter; kNone runs a single point at the spec's own values.
  SweepAxis axis = SweepAxis::kNone;
  std::vector<double> axis_values;

  int repeats = 100;    ///< random mixes averaged per point
  unsigned seed = 2025; ///< base RNG seed; repeat r uses seed + r

  int total_slots() const { return nodes * cpus_per_node; }

  /// Throw ConfigError on inconsistent parameters (non-positive counts, a
  /// sweep axis without values, an empty policy list, ...).
  void validate() const;
};

/// The strict `Config` keys `apply_config` understands, for
/// `Config::from_args` allow-lists and `--list-scenarios` output.
const std::vector<std::string>& spec_config_keys();

/// One help line per config key ("key=default  description").
std::string spec_config_help();

/// Overlay `cfg`'s scenario keys onto `base` and validate the result.
/// Unknown keys are the caller's concern (strict parsing); bad values
/// (unparseable substrate/axis/policy names) raise ConfigError.
ScenarioSpec spec_from_config(const Config& cfg, ScenarioSpec base = {});

/// Compact "key=value ..." rendering of a spec (for --list-scenarios and
/// recorded bench configs).
std::string describe(const ScenarioSpec& spec);

}  // namespace ehpc::scenario
