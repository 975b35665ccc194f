#pragma once

// Observation probes for the traced run. Each one wraps a public seam of the
// program from outside (a TraceSource, a NetworkModel) or re-executes a
// layer on recorded inputs (the PolicyEngine replay); none of them changes
// what the wrapped code computes.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elastic/job.hpp"
#include "elastic/policy.hpp"
#include "net/network_model.hpp"
#include "schedsim/jobmix.hpp"
#include "trace/source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host seconds since `start` for a short timed call, less the measured
/// cost of the two clock reads around it (clamped at 0). Per-call timings
/// of sub-microsecond calls are otherwise dominated by the clock itself.
double call_seconds_since(Clock::time_point start);

/// One call the harness made into the PolicyEngine, in call order.
struct EngineEvent {
  enum class Kind { kSubmit, kComplete, kAbandon };
  Kind kind = Kind::kSubmit;
  ehpc::elastic::JobId job = 0;
  double time = 0.0;
};

/// Inputs of an engine replay: the job specs and the call sequence.
struct EngineLog {
  std::map<ehpc::elastic::JobId, ehpc::elastic::JobSpec> specs;
  std::vector<EngineEvent> events;
};

/// Decorating TraceSource: counts and times `next()` and logs the
/// submissions it hands out. The streaming harness pulls the next job right
/// after it submitted the previous one, so every pull after the first marks
/// the previously returned job as submitted — this is how the log learns
/// the engine's submit order without hooks inside the harness.
class CountingTraceSource final : public ehpc::trace::TraceSource {
 public:
  CountingTraceSource(ehpc::trace::TraceSource& inner, EngineLog& log)
      : inner_(inner), log_(log) {}

  std::optional<ehpc::schedsim::SubmittedJob> next() override;

  long records() const { return records_; }  ///< jobs handed out
  double pull_s() const { return pull_s_; }

 private:
  ehpc::trace::TraceSource& inner_;
  EngineLog& log_;
  std::optional<ehpc::schedsim::SubmittedJob> last_;
  long records_ = 0;
  double pull_s_ = 0.0;
};

/// Counters shared by a CountingNetworkModel and all of its clones.
struct NetCounters {
  std::int64_t calls = 0;
  std::int64_t timed_calls = 0;
  double timed_s = 0.0;
  std::uint64_t sample_state = 0x9e3779b97f4a7c15ull;

  /// Host seconds inside the model, estimated from the timed sample.
  double seconds() const {
    return timed_calls > 0 ? timed_s * static_cast<double>(calls) /
                                 static_cast<double>(timed_calls)
                           : 0.0;
  }
};

/// Decorating NetworkModel: forwards every pricing call to the wrapped model,
/// counts every call and times a deterministic pseudo-random sample of one
/// call in 16 (timing all of them would double the cost of the run). The
/// runtime clones the model it is configured with, so clones share the
/// counters and wrap a fresh clone of the inner model, which keeps its
/// contention state private as the NetworkModel contract requires.
class CountingNetworkModel final : public ehpc::net::NetworkModel {
 public:
  CountingNetworkModel(std::unique_ptr<ehpc::net::NetworkModel> inner,
                       std::shared_ptr<NetCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override;
  double begin_transfer(std::size_t bytes, int src_node, int dst_node,
                        double now) override;
  void end_transfer(std::size_t bytes, int src_node, int dst_node,
                    double at) override;
  double inter_alpha() const override;
  double collective_latency(int pes, double now) const override;
  std::unique_ptr<ehpc::net::NetworkModel> clone() const override {
    return std::make_unique<CountingNetworkModel>(inner_->clone(), counters_);
  }

 private:
  /// Count one call; true when it is in the timed sample.
  bool count_call() const;

  std::unique_ptr<ehpc::net::NetworkModel> inner_;
  std::shared_ptr<NetCounters> counters_;
};

/// What replaying an EngineLog through a fresh PolicyEngine measured.
struct ReplayResult {
  /// Virtual time of each job's start decision.
  std::map<ehpc::elastic::JobId, double> start_time;
  long decisions = 0;       ///< submit + complete calls
  double decide_s = 0.0;    ///< host time inside them
  std::vector<double> decide_us;  ///< per-call host time
  /// Sum over decisions of the jobs the engine held (each queued()/running()
  /// pass walks all of them).
  long jobs_scanned = 0;
};

/// How the replay orders completions that share a virtual time.
enum class TieOrder {
  /// Take the log's order as the call order.
  kAsGiven,
  /// The log is time-sorted and the run was a pure simulation: the kernel
  /// fires equal-time events in scheduling order, and the simulator
  /// schedules a job's completion when it starts or changes width, so
  /// equal-time completions run in the order of the replay's own last
  /// start/resize decision for each job.
  kLastScheduled,
};

/// Replay `log` through a fresh engine. `forget_finished` mirrors streaming
/// replay, which drops each finished job's engine state as it retires.
ReplayResult replay_engine(int total_slots,
                           const ehpc::elastic::PolicyConfig& policy,
                           EngineLog log, bool forget_finished, TieOrder ties);

}  // namespace perfbench
