#include "trace/failures.hpp"

#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "trace/csv.hpp"

namespace ehpc::trace {

CsvFailureTraceSource::CsvFailureTraceSource(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open failure trace file: " + path);

  std::string line;
  long line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;

    const std::vector<std::string> fields = csv::split(line);
    if (fields.size() < 2 || fields.size() > 3) {
      throw PreconditionError(
          path + ":" + std::to_string(line_number) + ": expected 2-3 fields "
          "(time_s,kind[,domain]), got " + std::to_string(fields.size()) +
          " in '" + line + "'");
    }

    FailureEvent event;
    event.time_s =
        csv::parse_double(fields[0], "event time", path, line_number);
    if (event.time_s < 0.0) {
      throw PreconditionError(path + ":" + std::to_string(line_number) +
                              ": negative event time '" + fields[0] + "'");
    }
    if (fields[1] == "crash") {
      event.kind = FailureEvent::Kind::kCrash;
    } else if (fields[1] == "evict") {
      event.kind = FailureEvent::Kind::kEvict;
    } else if (fields[1] == "domain") {
      event.kind = FailureEvent::Kind::kDomain;
    } else {
      throw PreconditionError(path + ":" + std::to_string(line_number) +
                              ": unknown event kind '" + fields[1] +
                              "' (expected crash, evict or domain)");
    }
    if (event.kind == FailureEvent::Kind::kDomain) {
      if (fields.size() != 3) {
        throw PreconditionError(path + ":" + std::to_string(line_number) +
                                ": kind=domain requires a domain field");
      }
      event.domain = static_cast<int>(
          csv::parse_long(fields[2], "domain index", path, line_number));
      if (event.domain < 0) {
        throw PreconditionError(path + ":" + std::to_string(line_number) +
                                ": negative domain index '" + fields[2] + "'");
      }
    } else if (fields.size() == 3) {
      throw PreconditionError(path + ":" + std::to_string(line_number) +
                              ": a domain field is only allowed with "
                              "kind=domain");
    }

    if (!events_.empty() && event.time_s < events_.back().time_s) {
      throw PreconditionError(
          path + ":" + std::to_string(line_number) +
          ": event time goes backwards (" + std::to_string(event.time_s) +
          " after " + std::to_string(events_.back().time_s) +
          "); failure traces must be sorted by time");
    }
    events_.push_back(event);
  }
  // An outage log with no events is a misconfiguration, not a quiet run.
  if (events_.empty()) {
    throw PreconditionError("failure trace file has no events: " + path);
  }
}

schedsim::FaultPlan resolve_failure_trace(schedsim::FaultPlan plan) {
  if (plan.failure_trace_path.empty()) return plan;
  const CsvFailureTraceSource source(plan.failure_trace_path);
  for (const FailureEvent& event : source.events()) {
    switch (event.kind) {
      case FailureEvent::Kind::kCrash:
        plan.crash_times.push_back(event.time_s);
        break;
      case FailureEvent::Kind::kEvict:
        plan.evict_times.push_back(event.time_s);
        break;
      case FailureEvent::Kind::kDomain:
        plan.domain_crashes.push_back({event.time_s, event.domain});
        break;
    }
  }
  plan.failure_trace_path.clear();
  // Re-check the merged plan: a trace may reference a domain the plan's
  // domain map does not define, which validate() rejects with context.
  plan.validate();
  return plan;
}

}  // namespace ehpc::trace
