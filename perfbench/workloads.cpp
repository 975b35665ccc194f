#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "apps/graph.hpp"
#include "charm/runtime.hpp"
#include "elastic/metrics.hpp"
#include "k8s/cluster.hpp"
#include "opk/experiment.hpp"
#include "probes.hpp"
#include "scenario/backend.hpp"
#include "scenario/registry.hpp"
#include "schedsim/simulator.hpp"
#include "trace/failures.hpp"

namespace perfbench {

namespace {

using ehpc::elastic::JobClass;
using ehpc::elastic::JobRecord;
using ehpc::elastic::PolicyConfig;
using ehpc::elastic::PolicyMode;
using ehpc::elastic::RunMetrics;
using ehpc::scenario::ScenarioRegistry;
using ehpc::scenario::ScenarioSpec;
using ehpc::schedsim::SimResult;
using ehpc::schedsim::SubmittedJob;
using WorkloadModels = std::map<JobClass, ehpc::elastic::Workload>;

/// Every RunMetrics field, in declaration order: all of them are outputs.
const std::vector<std::pair<std::string, double RunMetrics::*>>&
metric_fields() {
  static const std::vector<std::pair<std::string, double RunMetrics::*>> f{
      {"total_time_s", &RunMetrics::total_time_s},
      {"utilization", &RunMetrics::utilization},
      {"weighted_response_s", &RunMetrics::weighted_response_s},
      {"weighted_completion_s", &RunMetrics::weighted_completion_s},
      {"lb_post_ratio", &RunMetrics::lb_post_ratio},
      {"lb_migrations_per_step", &RunMetrics::lb_migrations_per_step},
      {"lb_steps", &RunMetrics::lb_steps},
      {"failures", &RunMetrics::failures},
      {"evictions", &RunMetrics::evictions},
      {"correlated_failures", &RunMetrics::correlated_failures},
      {"storm_peak_restorers", &RunMetrics::storm_peak_restorers},
      {"storm_delay_s", &RunMetrics::storm_delay_s},
      {"jobs_failed", &RunMetrics::jobs_failed},
      {"jobs_abandoned", &RunMetrics::jobs_abandoned},
      {"jobs_timed_out", &RunMetrics::jobs_timed_out},
      {"recovery_time_s", &RunMetrics::recovery_time_s},
      {"lost_work_s", &RunMetrics::lost_work_s},
      {"goodput", &RunMetrics::goodput}};
  return f;
}

// Positions of the headline metrics in metric_fields().
constexpr std::size_t kUtilization = 1;
constexpr std::size_t kResponse = 2;
constexpr std::size_t kCompletion = 3;

std::vector<std::string> metric_names(std::vector<std::string> extra) {
  std::vector<std::string> names;
  for (const auto& field : metric_fields()) names.push_back(field.first);
  names.insert(names.end(), extra.begin(), extra.end());
  return names;
}

void append_metrics(std::vector<double>& out, const RunMetrics& m) {
  for (const auto& field : metric_fields()) out.push_back(m.*(field.second));
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Engine calls of a batch run, rebuilt from the mix and the finished
/// records. Submissions are scheduled before the run starts, so at equal
/// times they fire before any completion; equal-time completions are taken
/// in job id order.
EngineLog batch_log(const std::vector<SubmittedJob>& mix,
                    const std::vector<JobRecord>& records) {
  EngineLog log;
  for (const SubmittedJob& job : mix) {
    log.specs[job.spec.id] = job.spec;
    log.events.push_back(
        {EngineEvent::Kind::kSubmit, job.spec.id, job.submit_time});
  }
  std::vector<EngineEvent> ends;
  for (const JobRecord& r : records) {
    ends.push_back({r.abandoned ? EngineEvent::Kind::kAbandon
                                : EngineEvent::Kind::kComplete,
                    r.id, r.complete_time});
  }
  std::sort(ends.begin(), ends.end(),
            [](const EngineEvent& a, const EngineEvent& b) {
              return a.time != b.time ? a.time < b.time : a.job < b.job;
            });
  log.events.insert(log.events.end(), ends.begin(), ends.end());
  std::stable_sort(log.events.begin(), log.events.end(),
                   [](const EngineEvent& a, const EngineEvent& b) {
                     return a.time < b.time;
                   });
  return log;
}

/// Start decisions of the replay that disagree with the run: a started job
/// must start at the recorded instant, an abandoned one never.
long start_mismatches(const ReplayResult& replay,
                      const std::vector<JobRecord>& records) {
  long mismatches = 0;
  for (const JobRecord& r : records) {
    const auto it = replay.start_time.find(r.id);
    if (r.abandoned) {
      mismatches += it != replay.start_time.end() ? 1 : 0;
    } else {
      mismatches += it == replay.start_time.end() || it->second != r.start_time
                        ? 1
                        : 0;
    }
  }
  return mismatches;
}

void add_replay(Layers& layers, const ReplayResult& replay, long mismatches) {
  layers.decisions += replay.decisions;
  layers.decide_s += replay.decide_s;
  layers.decide_us.insert(layers.decide_us.end(), replay.decide_us.begin(),
                          replay.decide_us.end());
  layers.jobs_scanned += replay.jobs_scanned;
  layers.replay_mismatches += mismatches;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------

/// The paper's §4.3.1 evaluation: 4 x 16 slots, 16-job mixes, all four
/// policies, every point of the fig7 submission-gap axis, `repeats` mixes
/// per point. Operations run in the sweep engine's cell order (point,
/// repeat, policy), and each group is one (point, policy) cell whose mean
/// is exactly the averaged figure row.
class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(bool small)
      : spec_(ScenarioRegistry::instance().require("fig7_submission_gap")),
        repeats_(small ? 3 : 500),
        names_(metric_names({"rescale_count"})) {}

  std::string item() const override { return "jobs"; }

  void setup(unsigned seed) override {
    const Clock::time_point start = Clock::now();
    workloads_ = ehpc::scenario::workloads_for(spec_);
    calibrate_s_ = seconds_since(start);
    points_.clear();
    mixes_.clear();
    for (const double gap : spec_.axis_values) {
      ScenarioSpec point = spec_;
      point.submission_gap_s = gap;
      for (int r = 0; r < repeats_; ++r) {
        mixes_.push_back(ehpc::scenario::make_mix(
            point, seed + static_cast<unsigned>(r)));
      }
      points_.push_back(std::move(point));
    }
  }

  double calibrate_s() const override { return calibrate_s_; }

  std::size_t pass_size() const override {
    return points_.size() * static_cast<std::size_t>(repeats_) * policies();
  }
  std::size_t group_of(std::size_t op) const override {
    return point_of(op) * policies() + op % policies();
  }
  std::size_t num_groups() const override {
    return points_.size() * policies();
  }
  std::string group_name(std::size_t group) const override {
    return "gap=" + format_value(spec_.axis_values[group / policies()]) + "/" +
           ehpc::elastic::to_string(spec_.policies[group % policies()]);
  }
  const std::vector<std::string>& value_names() const override {
    return names_;
  }

  Op run(std::size_t op, Layers* layers) override {
    const ScenarioSpec& point = points_[point_of(op)];
    const auto& mix = mixes_[op / policies()];
    const PolicyConfig policy =
        ehpc::scenario::policy_for(point, spec_.policies[op % policies()]);
    const Clock::time_point start = Clock::now();
    const SimResult result =
        ehpc::scenario::make_backend(point, policy, workloads_)->run(mix);
    const double run_s = seconds_since(start);

    Op out;
    out.host_s = run_s;
    out.items = static_cast<double>(mix.size());
    append_metrics(out.values, result.metrics);
    out.values.push_back(result.rescale_count);
    if (layers == nullptr) return out;

    ++layers->sched_runs;
    layers->sched_run_s += run_s;
    layers->sched_run_ms.push_back(run_s * 1e3);
    layers->peak_live_jobs =
        std::max(layers->peak_live_jobs, result.stream.peak_live_jobs);
    const ReplayResult replay =
        replay_engine(point.total_slots(), policy, batch_log(mix, result.jobs),
                      false, TieOrder::kLastScheduled);
    out.mismatches = start_mismatches(replay, result.jobs);
    add_replay(*layers, replay, out.mismatches);
    out.counters = {static_cast<double>(replay.decisions),
                    static_cast<double>(replay.jobs_scanned)};
    return out;
  }

  std::vector<Headline> headlines(
      const std::vector<std::vector<double>>& means) const override {
    // The elastic policy's rows, averaged over the gap axis.
    std::vector<double> util, resp, comp;
    for (std::size_t g = 0; g < means.size(); ++g) {
      if (spec_.policies[g % policies()] != PolicyMode::kElastic) continue;
      util.push_back(means[g][kUtilization]);
      resp.push_back(means[g][kResponse]);
      comp.push_back(means[g][kCompletion]);
    }
    return {{"utilization", mean(util), "fraction"},
            {"weighted_response_s", mean(resp), "s"},
            {"weighted_completion_s", mean(comp), "s"}};
  }

 private:
  std::size_t policies() const { return spec_.policies.size(); }
  std::size_t point_of(std::size_t op) const {
    return op / (static_cast<std::size_t>(repeats_) * policies());
  }

  ScenarioSpec spec_;
  int repeats_;
  std::vector<std::string> names_;
  WorkloadModels workloads_;
  double calibrate_s_ = 0.0;
  std::vector<ScenarioSpec> points_;
  std::vector<std::vector<SubmittedJob>> mixes_;  ///< [point * repeats + r]
};

// ---------------------------------------------------------------------------

/// `trace_replay` streamed on 64 nodes at the same 1.5x sustainable arrival
/// rate as the registry scenario (gap 60 s at 4 nodes -> 3.75 s at 64), with
/// its queue and task timeouts, under the elastic policy. Hundreds of jobs
/// are in flight, so the engine's per-decision scans dominate. A pass
/// replays several independent traces: how far the backlog builds varies
/// from trace to trace, and the pass's cost should not hinge on one draw.
class TraceBacklog final : public Workload {
 public:
  explicit TraceBacklog(bool small)
      : spec_(ScenarioRegistry::instance().require("trace_replay")),
        names_(metric_names({"jobs_submitted", "peak_live_jobs",
                             "response_p50_s", "response_p99_s",
                             "completion_p50_s", "completion_p99_s",
                             "rescale_count"})) {
    spec_.nodes = 64;
    spec_.submission_gap_s = 3.75;
    spec_.trace_jobs = small ? 1500 : 5000;
    spec_.policies = {PolicyMode::kElastic};
  }

  std::string item() const override { return "jobs"; }

  void setup(unsigned seed) override {
    seed_ = seed * kTraces;
    const Clock::time_point start = Clock::now();
    workloads_ = ehpc::scenario::workloads_for(spec_);
    calibrate_s_ = seconds_since(start);
    policy_ = ehpc::scenario::policy_for(spec_, PolicyMode::kElastic);
    faults_ = ehpc::trace::resolve_failure_trace(spec_.faults);
  }

  double calibrate_s() const override { return calibrate_s_; }
  std::size_t pass_size() const override { return kTraces; }
  std::string group_name(std::size_t op) const override {
    return "trace=" + std::to_string(op) + "/elastic";
  }
  const std::vector<std::string>& value_names() const override {
    return names_;
  }

  Op run(std::size_t op, Layers* layers) override {
    const Clock::time_point start = Clock::now();
    ehpc::schedsim::SchedSimulator simulator(spec_.total_slots(), policy_,
                                             workloads_);
    simulator.set_fault_plan(faults_);
    const auto source = ehpc::scenario::make_trace_source(
        spec_, seed_ + static_cast<unsigned>(op));
    if (layers == nullptr) {
      const SimResult result = simulator.run_stream(*source);
      return outputs(result, seconds_since(start));
    }

    EngineLog log;
    CountingTraceSource counting(*source, log);
    std::vector<JobRecord> retired;
    const auto observer = [&](const JobRecord& record) {
      retired.push_back(record);
      log.events.push_back({record.abandoned ? EngineEvent::Kind::kAbandon
                                             : EngineEvent::Kind::kComplete,
                            record.id, record.complete_time});
    };
    const SimResult result = simulator.run_stream(counting, observer);
    const double run_s = seconds_since(start);

    Op out = outputs(result, run_s);
    ++layers->sched_runs;
    layers->sched_run_s += run_s;
    layers->sched_run_ms.push_back(run_s * 1e3);
    layers->jobs_retired += static_cast<long>(retired.size());
    layers->peak_live_jobs =
        std::max(layers->peak_live_jobs, result.stream.peak_live_jobs);
    layers->trace_records += counting.records();
    layers->trace_pull_s += counting.pull_s();
    const ReplayResult replay =
        replay_engine(spec_.total_slots(), policy_, std::move(log), true,
                      TieOrder::kAsGiven);
    out.mismatches = start_mismatches(replay, retired);
    add_replay(*layers, replay, out.mismatches);
    out.counters = {static_cast<double>(replay.decisions),
                    static_cast<double>(replay.jobs_scanned),
                    static_cast<double>(counting.records()),
                    static_cast<double>(retired.size())};
    return out;
  }

  std::vector<Headline> headlines(
      const std::vector<std::vector<double>>& means) const override {
    // Means over the pass's traces.
    std::vector<double> util, resp, comp, p99;
    for (const auto& v : means) {
      util.push_back(v[kUtilization]);
      resp.push_back(v[kResponse]);
      comp.push_back(v[kCompletion]);
      p99.push_back(v[metric_fields().size() + 3]);
    }
    return {{"utilization", mean(util), "fraction"},
            {"weighted_response_s", mean(resp), "s"},
            {"weighted_completion_s", mean(comp), "s"},
            {"response_p99_s", mean(p99), "s"}};
  }

 private:
  static constexpr unsigned kTraces = 4;

  static Op outputs(const SimResult& result, double host_s) {
    Op out;
    out.host_s = host_s;
    out.items = static_cast<double>(result.stream.jobs_submitted);
    append_metrics(out.values, result.metrics);
    const ehpc::schedsim::StreamStats& s = result.stream;
    out.values.insert(out.values.end(),
                      {static_cast<double>(s.jobs_submitted),
                       static_cast<double>(s.peak_live_jobs), s.response_p50,
                       s.response_p99, s.completion_p50, s.completion_p99,
                       static_cast<double>(result.rescale_count)});
    return out;
  }

  ScenarioSpec spec_;
  std::vector<std::string> names_;
  unsigned seed_ = 0;
  WorkloadModels workloads_;
  double calibrate_s_ = 0.0;
  PolicyConfig policy_;
  ehpc::schedsim::FaultPlan faults_;
};

// ---------------------------------------------------------------------------

/// The `fig9_cluster` mix on the Kubernetes substrate, scaled to 64 nodes
/// and a long 5 s-gap job stream, under the elastic policy: the operator
/// realises every rescale by creating and deleting pods.
class ClusterElastic final : public Workload {
 public:
  explicit ClusterElastic(bool small)
      : spec_(ScenarioRegistry::instance().require("fig9_cluster")),
        names_(metric_names({"rescale_count", "pods_bound", "bind_attempts",
                             "retry_sweeps", "nodes_examined",
                             "placement_queries", "pod_mutations",
                             "reconciles", "sim_events"})) {
    spec_.nodes = small ? 8 : 64;
    spec_.num_jobs = small ? 60 : 1000;
    spec_.submission_gap_s = 5.0;
    spec_.policies = {PolicyMode::kElastic};
  }

  std::string item() const override { return "pods"; }

  void setup(unsigned seed) override {
    const Clock::time_point start = Clock::now();
    workloads_ = ehpc::scenario::workloads_for(spec_);
    calibrate_s_ = seconds_since(start);
    mix_ = ehpc::scenario::make_mix(spec_, seed);
    config_ = ehpc::opk::ExperimentConfig{};
    config_.nodes = spec_.nodes;
    config_.cpus_per_node = spec_.cpus_per_node;
    config_.policy = ehpc::scenario::policy_for(spec_, PolicyMode::kElastic);
    config_.faults = ehpc::trace::resolve_failure_trace(spec_.faults);
  }

  double calibrate_s() const override { return calibrate_s_; }
  std::size_t pass_size() const override { return 1; }
  std::string group_name(std::size_t) const override { return "elastic"; }
  const std::vector<std::string>& value_names() const override {
    return names_;
  }

  Op run(std::size_t, Layers* layers) override {
    const Clock::time_point start = Clock::now();
    ehpc::opk::ClusterExperiment experiment(config_, workloads_);
    ehpc::k8s::Cluster& cluster = experiment.cluster();
    // Virtual time each job's first pod was created: the operator creates
    // pods one reconcile latency after the engine's start decision.
    std::map<std::string, double> first_pod;
    if (layers != nullptr) {
      cluster.pods().attach_view([&](ehpc::k8s::WatchEvent event,
                                     const ehpc::k8s::Pod*,
                                     const ehpc::k8s::Pod* after) {
        if (event != ehpc::k8s::WatchEvent::kAdded) return;
        const auto label = after->meta.labels.find("job");
        if (label == after->meta.labels.end()) return;
        first_pod.emplace(label->second, cluster.sim().now());
      });
    }
    const SimResult result = experiment.run(mix_);
    const double run_s = seconds_since(start);

    const auto& sched = cluster.scheduler();
    const auto& index = cluster.index().stats();
    Op out;
    out.host_s = run_s;
    out.items = sched.scheduled_count();
    append_metrics(out.values, result.metrics);
    out.values.insert(
        out.values.end(),
        {static_cast<double>(result.rescale_count),
         static_cast<double>(sched.scheduled_count()),
         static_cast<double>(sched.stats().bind_attempts),
         static_cast<double>(sched.stats().retry_sweeps),
         static_cast<double>(index.nodes_examined),
         static_cast<double>(index.placement_queries),
         static_cast<double>(cluster.pods().latest_version()),
         static_cast<double>(experiment.controller().reconcile_count()),
         static_cast<double>(cluster.sim().executed())});
    if (layers == nullptr) return out;

    layers->opk_run_s += run_s;
    layers->opk_rescales += result.rescale_count;
    layers->pods_bound += sched.scheduled_count();
    layers->bind_attempts += sched.stats().bind_attempts;
    layers->retry_sweeps += sched.stats().retry_sweeps;
    layers->nodes_examined += index.nodes_examined;
    layers->pod_mutations +=
        static_cast<long>(cluster.pods().latest_version());
    layers->sim_events += static_cast<long>(cluster.sim().executed());

    // Completions here follow pod and handshake events, so the simulator's
    // scheduling order does not apply; batch_log's id order stands, and a
    // wrong order would show up as mismatches.
    const ReplayResult replay = replay_engine(
        spec_.total_slots(), config_.policy, batch_log(mix_, result.jobs),
        false, TieOrder::kAsGiven);
    const double latency = config_.controller.reconcile_latency_s;
    for (const SubmittedJob& job : mix_) {
      const std::string name = job.spec.name.empty()
                                   ? "job-" + std::to_string(job.spec.id)
                                   : job.spec.name;
      const auto decided = replay.start_time.find(job.spec.id);
      const auto created = first_pod.find(name);
      if (decided == replay.start_time.end() || created == first_pod.end() ||
          decided->second + latency != created->second) {
        ++out.mismatches;
      }
    }
    add_replay(*layers, replay, out.mismatches);
    out.counters = {static_cast<double>(replay.decisions),
                    static_cast<double>(replay.jobs_scanned)};
    return out;
  }

  std::vector<Headline> headlines(
      const std::vector<std::vector<double>>& means) const override {
    const std::vector<double>& v = means.front();
    return {{"utilization", v[kUtilization], "fraction"},
            {"weighted_response_s", v[kResponse], "s"},
            {"weighted_completion_s", v[kCompletion], "s"}};
  }

 private:
  ScenarioSpec spec_;
  std::vector<std::string> names_;
  WorkloadModels workloads_;
  double calibrate_s_ = 0.0;
  std::vector<SubmittedJob> mix_;
  ehpc::opk::ExperimentConfig config_;
};

// ---------------------------------------------------------------------------

/// fig_graph panel b: the power-law graph (skew 0.9) on 32 PEs, 4 per node,
/// over the fat-tree contention model, for each (balancer, core
/// oversubscription) cell. The seed picks the edge sets of several graphs
/// per pass: how much planning the comm-aware balancer does varies a lot
/// from one edge set to the next.
class GraphFattree final : public Workload {
 public:
  explicit GraphFattree(bool small)
      : names_({"step_s", "makespan_s", "active_vertices", "rank_sum",
                "events", "lb_steps", "lb_migrations"}) {
    config_.vertices = small ? 1024 : 2048;
    config_.parts = 64;
    config_.skew = 0.9;
    config_.max_iterations = 10;
  }

  std::string item() const override { return "supersteps"; }

  void setup(unsigned seed) override {
    seed_ = seed * kGraphs;
    models_.clear();
    for (const double oversub : kOversub) {
      models_.push_back(ehpc::net::make_network_model("fattree", oversub));
    }
  }

  std::size_t pass_size() const override { return kGraphs * kCells; }
  std::string group_name(std::size_t op) const override {
    const std::size_t cell = op % kCells;
    return "graph=" + std::to_string(op / kCells) + "/" +
           kBalancers[cell / std::size(kOversub)] + "/oversub=" +
           format_value(kOversub[cell % std::size(kOversub)]);
  }
  const std::vector<std::string>& value_names() const override {
    return names_;
  }

  Op run(std::size_t op, Layers* layers) override {
    const Clock::time_point op_start = Clock::now();
    const std::size_t cell = op % kCells;
    const auto& model = models_[cell % std::size(kOversub)];
    ehpc::charm::RuntimeConfig rc;
    rc.num_pes = 32;
    rc.pes_per_node = 4;
    rc.load_balancer = kBalancers[cell / std::size(kOversub)];
    ehpc::apps::GraphConfig config = config_;
    config.seed = seed_ + static_cast<unsigned>(op / kCells);
    std::shared_ptr<NetCounters> counters;
    if (layers == nullptr) {
      rc.network = model;
    } else {
      counters = std::make_shared<NetCounters>();
      rc.network =
          std::make_shared<CountingNetworkModel>(model->clone(), counters);
    }
    ehpc::charm::Runtime rt(rc);
    ehpc::apps::Graph app(rt, config);
    app.driver().set_lb_period(2);
    app.start();
    const Clock::time_point start = Clock::now();
    const std::size_t events = rt.run();
    const double run_s = seconds_since(start);
    const double host_s = seconds_since(op_start);

    const double makespan = app.driver().iteration_end_times().back();
    double rank_sum = 0.0;
    for (const double r : app.ranks()) rank_sum += r;
    long migrations = 0;
    for (const auto& step : rt.lb_history()) migrations += step.migrated;
    const long lb_steps = static_cast<long>(rt.lb_history().size());

    Op out;
    out.host_s = host_s;
    out.items = config_.max_iterations;
    out.values = {makespan / config_.max_iterations,
                  makespan,
                  app.active_last_iteration(),
                  rank_sum,
                  static_cast<double>(events),
                  static_cast<double>(lb_steps),
                  static_cast<double>(migrations)};
    if (layers == nullptr) return out;

    layers->charm_run_s += run_s;
    layers->lb_steps += lb_steps;
    layers->lb_migrations += migrations;
    layers->net_calls += counters->calls;
    layers->net_s += counters->seconds();
    layers->sim_events += static_cast<long>(events);
    out.counters = {static_cast<double>(counters->calls)};
    return out;
  }

  std::vector<Headline> headlines(
      const std::vector<std::vector<double>>& means) const override {
    std::vector<double> steps;
    for (const auto& v : means) steps.push_back(v[0]);
    return {{"graph_step_s", mean(steps), "s"}};
  }

 private:
  static constexpr const char* kBalancers[] = {"greedy", "commrefine"};
  static constexpr double kOversub[] = {1.0, 4.0, 8.0, 16.0};
  static constexpr std::size_t kCells = std::size(kBalancers) *
                                        std::size(kOversub);
  static constexpr unsigned kGraphs = 8;

  std::vector<std::string> names_;
  ehpc::apps::GraphConfig config_;
  unsigned seed_ = 0;
  std::vector<std::shared_ptr<const ehpc::net::NetworkModel>> models_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_sweep", "trace_backlog",
                                              "cluster_elastic",
                                              "graph_fattree"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                                   bool small) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(small);
  if (name == "trace_backlog") return std::make_unique<TraceBacklog>(small);
  if (name == "cluster_elastic") {
    return std::make_unique<ClusterElastic>(small);
  }
  if (name == "graph_fattree") return std::make_unique<GraphFattree>(small);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
