#include "probes.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace perfbench {

using ehpc::elastic::Action;
using ehpc::elastic::ActionType;

double call_seconds_since(Clock::time_point start) {
  static const double clock_cost = [] {
    // Median cost of an empty timed region, over batches of 1000.
    std::vector<double> batches;
    for (int b = 0; b < 15; ++b) {
      double sum = 0.0;
      for (int i = 0; i < 1000; ++i) sum += seconds_since(Clock::now());
      batches.push_back(sum / 1000.0);
    }
    std::nth_element(batches.begin(), batches.begin() + 7, batches.end());
    return batches[7];
  }();
  return std::max(0.0, seconds_since(start) - clock_cost);
}

std::optional<ehpc::schedsim::SubmittedJob> CountingTraceSource::next() {
  if (last_) {
    log_.events.push_back(
        {EngineEvent::Kind::kSubmit, last_->spec.id, last_->submit_time});
  }
  const Clock::time_point start = Clock::now();
  std::optional<ehpc::schedsim::SubmittedJob> job = inner_.next();
  pull_s_ += call_seconds_since(start);
  if (job) {
    ++records_;
    log_.specs[job->spec.id] = job->spec;
  }
  last_ = job;
  return job;
}

bool CountingNetworkModel::count_call() const {
  ++counters_->calls;
  std::uint64_t& x = counters_->sample_state;  // xorshift64
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return (x & 15u) == 0;
}

namespace {

/// Run `call`, timing it when `timed` (the call is in the sample).
template <typename Call>
auto sample(NetCounters& counters, bool timed, Call&& call) {
  if (!timed) return call();
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    counters.timed_s += call_seconds_since(start);
    ++counters.timed_calls;
  } else {
    auto result = call();
    counters.timed_s += call_seconds_since(start);
    ++counters.timed_calls;
    return result;
  }
}

}  // namespace

double CountingNetworkModel::message_time(std::size_t bytes, int src_node,
                                          int dst_node) const {
  return sample(*counters_, count_call(), [&] {
    return inner_->message_time(bytes, src_node, dst_node);
  });
}

double CountingNetworkModel::begin_transfer(std::size_t bytes, int src_node,
                                            int dst_node, double now) {
  return sample(*counters_, count_call(), [&] {
    return inner_->begin_transfer(bytes, src_node, dst_node, now);
  });
}

void CountingNetworkModel::end_transfer(std::size_t bytes, int src_node,
                                        int dst_node, double at) {
  sample(*counters_, count_call(),
         [&] { inner_->end_transfer(bytes, src_node, dst_node, at); });
}

double CountingNetworkModel::inter_alpha() const {
  return sample(*counters_, count_call(),
                [&] { return inner_->inter_alpha(); });
}

double CountingNetworkModel::collective_latency(int pes, double now) const {
  return sample(*counters_, count_call(),
                [&] { return inner_->collective_latency(pes, now); });
}

ReplayResult replay_engine(int total_slots,
                           const ehpc::elastic::PolicyConfig& policy,
                           EngineLog log, bool forget_finished, TieOrder ties) {
  ReplayResult out;
  ehpc::elastic::PolicyEngine engine(total_slots, policy);
  out.decide_us.reserve(log.events.size());
  // kLastScheduled bookkeeping: each job's width and the sequence number of
  // the decision that last (re)scheduled its completion.
  std::map<ehpc::elastic::JobId, int> width;
  std::map<ehpc::elastic::JobId, long> scheduled_at;
  long sequence = 0;
  const auto note_actions = [&](const std::vector<Action>& actions,
                                double now) {
    for (const Action& a : actions) {
      if (a.type == ActionType::kStart) out.start_time.emplace(a.job, now);
      if (a.type == ActionType::kEnqueue) continue;
      int& w = width[a.job];
      if (a.type == ActionType::kStart || w != a.target_replicas) {
        scheduled_at[a.job] = ++sequence;
      }
      w = a.target_replicas;
    }
  };
  auto& events = log.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (ties == TieOrder::kLastScheduled &&
        events[i].kind == EngineEvent::Kind::kComplete) {
      std::size_t j = i + 1;
      while (j < events.size() &&
             events[j].kind == EngineEvent::Kind::kComplete &&
             events[j].time == events[i].time) {
        ++j;
      }
      std::sort(events.begin() + static_cast<std::ptrdiff_t>(i),
                events.begin() + static_cast<std::ptrdiff_t>(j),
                [&scheduled_at](const EngineEvent& a, const EngineEvent& b) {
                  return scheduled_at.at(a.job) < scheduled_at.at(b.job);
                });
    }
    const EngineEvent e = events[i];
    if (e.kind == EngineEvent::Kind::kAbandon) {
      engine.abandon(e.job);
      if (forget_finished) engine.forget(e.job);
      continue;
    }
    out.jobs_scanned += static_cast<long>(engine.all_jobs().size());
    std::vector<Action> actions;
    const Clock::time_point start = Clock::now();
    if (e.kind == EngineEvent::Kind::kSubmit) {
      actions = engine.submit(log.specs.at(e.job), e.time);
    } else {
      actions = engine.complete(e.job, e.time);
    }
    const double dt = call_seconds_since(start);
    out.decide_s += dt;
    out.decide_us.push_back(dt * 1e6);
    ++out.decisions;
    note_actions(actions, e.time);
    if (forget_finished && e.kind == EngineEvent::Kind::kComplete) {
      engine.forget(e.job);
    }
  }
  return out;
}

}  // namespace perfbench
