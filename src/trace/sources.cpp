#include "trace/sources.hpp"

#include <utility>

#include "common/error.hpp"
#include "elastic/workload.hpp"
#include "trace/csv.hpp"

namespace ehpc::trace {

std::uint64_t trace_hash(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t lane) {
  // splitmix64 finalizer over the mixed key: cheap, stateless, and the draw
  // for (seed, index, lane) never depends on any other draw.
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + index * 0xbf58476d1ce4e5b9ull +
                    lane * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

CsvTraceSource::CsvTraceSource(const std::string& path, JobDefaults defaults)
    : path_(path), in_(path), defaults_(defaults) {
  if (!in_) throw PreconditionError("cannot open trace file: " + path);
}

std::optional<schedsim::SubmittedJob> CsvTraceSource::next() {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_number_;
    if (line.empty() || line[0] == '#') continue;

    const std::vector<std::string> fields = csv::split(line);
    if (fields.size() < 4 || fields.size() > 7) {
      throw PreconditionError(
          path_ + ":" + std::to_string(line_number_) + ": expected 4-7 fields "
          "(id,class,priority,submit_time[,queue_timeout[,task_timeout"
          "[,max_failed_nodes]]]), got " + std::to_string(fields.size()) +
          " in '" + line + "'");
    }

    schedsim::SubmittedJob job;
    const long id = csv::parse_long(fields[0], "job id", path_, line_number_);
    elastic::JobClass cls;
    try {
      cls = elastic::job_class_from_string(fields[1]);
    } catch (const PreconditionError& err) {
      throw PreconditionError(path_ + ":" + std::to_string(line_number_) +
                              ": " + err.what());
    }
    const long priority =
        csv::parse_long(fields[2], "priority", path_, line_number_);
    job.spec = elastic::spec_for_class(cls, static_cast<elastic::JobId>(id),
                                       static_cast<int>(priority));
    job.job_class = cls;
    job.submit_time =
        csv::parse_double(fields[3], "submit time", path_, line_number_);
    job.queue_timeout_s =
        fields.size() > 4
            ? csv::parse_double(fields[4], "queue timeout", path_, line_number_)
            : defaults_.queue_timeout_s;
    job.task_timeout_s =
        fields.size() > 5
            ? csv::parse_double(fields[5], "task timeout", path_, line_number_)
            : defaults_.task_timeout_s;
    job.max_failed_nodes =
        fields.size() > 6
            ? static_cast<int>(csv::parse_long(fields[6], "max failed nodes",
                                               path_, line_number_))
            : defaults_.max_failed_nodes;

    if (any_yielded_ && job.submit_time < last_submit_time_) {
      throw PreconditionError(
          path_ + ":" + std::to_string(line_number_) +
          ": submit time goes backwards (" + std::to_string(job.submit_time) +
          " after " + std::to_string(last_submit_time_) +
          "); traces must be sorted by submit time");
    }
    last_submit_time_ = job.submit_time;
    any_yielded_ = true;
    return job;
  }
  // A trace with no jobs is a misconfiguration, not an empty campaign (the
  // streaming harness requires at least one submission).
  if (!any_yielded_) {
    throw PreconditionError("trace file has no jobs: " + path_);
  }
  return std::nullopt;
}

SyntheticTraceSource::SyntheticTraceSource(SyntheticTraceConfig config)
    : config_(config) {
  EHPC_EXPECTS(config_.num_jobs > 0);
  EHPC_EXPECTS(config_.submission_gap_s >= 0.0);
}

std::optional<schedsim::SubmittedJob> SyntheticTraceSource::next() {
  if (index_ >= config_.num_jobs) return std::nullopt;
  const auto i = static_cast<std::uint64_t>(index_);
  const auto cls = static_cast<elastic::JobClass>(
      trace_hash(config_.seed, i, /*lane=*/0) % 4);
  const int priority =
      1 + static_cast<int>(trace_hash(config_.seed, i, /*lane=*/1) % 5);
  schedsim::SubmittedJob job;
  job.spec = elastic::spec_for_class(
      cls, static_cast<elastic::JobId>(index_), priority);
  job.job_class = cls;
  job.submit_time = config_.submission_gap_s * static_cast<double>(index_);
  job.queue_timeout_s = config_.defaults.queue_timeout_s;
  job.task_timeout_s = config_.defaults.task_timeout_s;
  job.max_failed_nodes = config_.defaults.max_failed_nodes;
  ++index_;
  return job;
}

CronTraceSource::CronTraceSource(CronTraceConfig config) : config_(config) {
  EHPC_EXPECTS(config_.period_s > 0.0);
  EHPC_EXPECTS(config_.phase_s >= 0.0);
  EHPC_EXPECTS(config_.end_s >= config_.phase_s);
  EHPC_EXPECTS(config_.priority >= 1);
}

std::optional<schedsim::SubmittedJob> CronTraceSource::next() {
  const double submit =
      config_.phase_s + config_.period_s * static_cast<double>(occurrence_);
  if (submit > config_.end_s) return std::nullopt;
  schedsim::SubmittedJob job;
  job.spec = elastic::spec_for_class(
      config_.job_class,
      config_.id_base + static_cast<elastic::JobId>(occurrence_),
      config_.priority);
  job.job_class = config_.job_class;
  job.submit_time = submit;
  job.queue_timeout_s = config_.defaults.queue_timeout_s;
  job.task_timeout_s = config_.defaults.task_timeout_s;
  job.max_failed_nodes = config_.defaults.max_failed_nodes;
  ++occurrence_;
  return job;
}

CompositeTraceSource::CompositeTraceSource(
    std::vector<std::unique_ptr<TraceSource>> children)
    : children_(std::move(children)) {
  EHPC_EXPECTS(!children_.empty());
  heads_.reserve(children_.size());
  for (auto& child : children_) {
    EHPC_EXPECTS(child != nullptr);
    heads_.push_back(child->next());
  }
}

std::optional<schedsim::SubmittedJob> CompositeTraceSource::next() {
  std::size_t best = heads_.size();
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    if (!heads_[i]) continue;
    if (best == heads_.size() ||
        heads_[i]->submit_time < heads_[best]->submit_time ||
        (heads_[i]->submit_time == heads_[best]->submit_time &&
         heads_[i]->spec.id < heads_[best]->spec.id)) {
      best = i;
    }
  }
  if (best == heads_.size()) return std::nullopt;
  std::optional<schedsim::SubmittedJob> out = std::move(heads_[best]);
  heads_[best] = children_[best]->next();
  return out;
}

}  // namespace ehpc::trace
