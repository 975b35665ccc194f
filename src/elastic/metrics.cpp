#include "elastic/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ehpc::elastic {

MetricsCollector::MetricsCollector(int total_slots) : total_slots_(total_slots) {
  EHPC_EXPECTS(total_slots_ > 0);
}

void MetricsCollector::note_submit(double t) {
  if (!have_first_submit_ || t < first_submit_) {
    first_submit_ = t;
    have_first_submit_ = true;
  }
}

void MetricsCollector::note_complete(double t) {
  EHPC_EXPECTS(have_first_submit_ && t >= first_submit_);
  last_complete_ = have_complete_ ? std::max(last_complete_, t) : t;
  have_complete_ = true;
  // Snapshot the usage integral up to the latest completion. By event
  // ordering every recorded usage step is at t <= this completion time, so
  // extending the current level to `last_complete_` is exact.
  if (have_usage_) {
    const double tail_start = std::max(last_usage_t_, first_submit_);
    window_integral_ =
        integral_ +
        (last_complete_ > tail_start ? last_used_ * (last_complete_ - tail_start)
                                     : 0.0);
  }
}

void MetricsCollector::add_job(const JobRecord& record) {
  EHPC_EXPECTS(record.start_time >= record.submit_time);
  EHPC_EXPECTS(record.complete_time >= record.start_time);
  EHPC_EXPECTS(have_first_submit_ && record.submit_time >= first_submit_);
  EHPC_EXPECTS(have_complete_ && record.complete_time <= last_complete_);
  ++n_jobs_;
  response_.add(record.response_time(), static_cast<double>(record.priority));
  completion_.add(record.completion_time(),
                  static_cast<double>(record.priority));
  if (record.failed) ++failed_count_;
  if (record.abandoned) ++abandoned_count_;
  if (record.timed_out) ++timed_out_count_;
  recovery_sum_ += record.recovery_s;
  lost_sum_ += record.lost_work_s;
  goodput_sum_ += record.goodput();
}

void MetricsCollector::record_usage(double t, int used) {
  EHPC_EXPECTS(used >= 0 && used <= total_slots_);
  EHPC_EXPECTS(!have_usage_ || t >= last_usage_t_);
  if (have_usage_ && have_first_submit_) {
    const double start = std::max(last_usage_t_, first_submit_);
    if (t > start) integral_ += last_used_ * (t - start);
  }
  last_usage_t_ = t;
  last_used_ = static_cast<double>(used);
  have_usage_ = true;
}

void MetricsCollector::record_lb_step(double post_ratio, double migrations) {
  EHPC_EXPECTS(post_ratio >= 1.0);
  EHPC_EXPECTS(migrations >= 0.0);
  lb_ratio_sum_ += post_ratio;
  lb_migration_sum_ += migrations;
  ++lb_count_;
}

void MetricsCollector::record_crash() { ++crashes_; }

void MetricsCollector::record_eviction() { ++evictions_; }

void MetricsCollector::record_domain_crash() { ++domain_crashes_; }

void MetricsCollector::record_restore(int concurrent, double delay_s) {
  EHPC_EXPECTS(concurrent >= 1);
  EHPC_EXPECTS(delay_s >= 0.0);
  peak_restorers_ = std::max(peak_restorers_, concurrent);
  storm_delay_sum_ += delay_s;
}

RunMetrics MetricsCollector::compute() const {
  RunMetrics m;
  if (lb_count_ > 0) {
    const double n = static_cast<double>(lb_count_);
    m.lb_post_ratio = lb_ratio_sum_ / n;
    m.lb_migrations_per_step = lb_migration_sum_ / n;
    m.lb_steps = n;
  }
  m.failures = static_cast<double>(crashes_);
  m.evictions = static_cast<double>(evictions_);
  m.correlated_failures = static_cast<double>(domain_crashes_);
  m.storm_peak_restorers = static_cast<double>(peak_restorers_);
  m.storm_delay_s = storm_delay_sum_;

  EHPC_EXPECTS(n_jobs_ > 0);
  m.total_time_s = last_complete_ - first_submit_;
  m.weighted_response_s = response_.value();
  m.weighted_completion_s = completion_.value();
  if (have_usage_ && last_complete_ > first_submit_) {
    m.utilization =
        window_integral_ / (last_complete_ - first_submit_) / total_slots_;
  }
  const double n = static_cast<double>(n_jobs_);
  m.jobs_failed = static_cast<double>(failed_count_);
  m.jobs_abandoned = static_cast<double>(abandoned_count_);
  m.jobs_timed_out = static_cast<double>(timed_out_count_);
  m.recovery_time_s = recovery_sum_ / n;
  m.lost_work_s = lost_sum_ / n;
  m.goodput = goodput_sum_ / n;
  return m;
}

RunMetrics average_metrics(const std::vector<RunMetrics>& runs) {
  EHPC_EXPECTS(!runs.empty());
  RunMetrics avg;
  avg.lb_post_ratio = 0.0;
  avg.goodput = 0.0;
  for (const auto& r : runs) {
    avg.total_time_s += r.total_time_s;
    avg.utilization += r.utilization;
    avg.weighted_response_s += r.weighted_response_s;
    avg.weighted_completion_s += r.weighted_completion_s;
    avg.lb_post_ratio += r.lb_post_ratio;
    avg.lb_migrations_per_step += r.lb_migrations_per_step;
    avg.lb_steps += r.lb_steps;
    avg.failures += r.failures;
    avg.evictions += r.evictions;
    avg.correlated_failures += r.correlated_failures;
    avg.storm_peak_restorers += r.storm_peak_restorers;
    avg.storm_delay_s += r.storm_delay_s;
    avg.jobs_failed += r.jobs_failed;
    avg.jobs_abandoned += r.jobs_abandoned;
    avg.jobs_timed_out += r.jobs_timed_out;
    avg.recovery_time_s += r.recovery_time_s;
    avg.lost_work_s += r.lost_work_s;
    avg.goodput += r.goodput;
  }
  const double n = static_cast<double>(runs.size());
  avg.total_time_s /= n;
  avg.utilization /= n;
  avg.weighted_response_s /= n;
  avg.weighted_completion_s /= n;
  avg.lb_post_ratio /= n;
  avg.lb_migrations_per_step /= n;
  avg.lb_steps /= n;
  avg.failures /= n;
  avg.evictions /= n;
  avg.correlated_failures /= n;
  avg.storm_peak_restorers /= n;
  avg.storm_delay_s /= n;
  avg.jobs_failed /= n;
  avg.jobs_abandoned /= n;
  avg.jobs_timed_out /= n;
  avg.recovery_time_s /= n;
  avg.lost_work_s /= n;
  avg.goodput /= n;
  return avg;
}

}  // namespace ehpc::elastic
