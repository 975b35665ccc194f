#pragma once

#include <string>
#include <vector>

#include "schedsim/fault.hpp"

namespace ehpc::trace {

/// One line of a failure trace: a single-node crash, a pod eviction, or a
/// correlated domain kill at an absolute virtual time.
struct FailureEvent {
  enum class Kind { kCrash, kEvict, kDomain };
  double time_s = 0.0;
  Kind kind = Kind::kCrash;
  /// Failure-domain index; meaningful only for Kind::kDomain.
  int domain = 0;
};

/// Strict CSV loader for recorded outage logs, with the same line-numbered
/// validation discipline as `CsvTraceSource`: every parse error names
/// `path:line` and the offending field.
///
/// Format, one event per line (`#` comments and blank lines skipped):
///
///   time_s,kind[,domain]
///
/// where `kind` is `crash`, `evict` or `domain`; the `domain` field is
/// required for (and only allowed with) `kind=domain`. Events must be
/// sorted by non-decreasing time and the file must contain at least one —
/// replaying an empty outage log is a misconfiguration, not a quiet run.
class CsvFailureTraceSource {
 public:
  explicit CsvFailureTraceSource(const std::string& path);

  /// Parse the whole file eagerly (outage logs are small, unlike job
  /// traces) and return the events in file order.
  const std::vector<FailureEvent>& events() const { return events_; }

 private:
  std::vector<FailureEvent> events_;
};

/// Resolve `plan.failure_trace_path` into explicit fault events: load the
/// trace, append its crashes/evictions/domain kills to the plan's event
/// vectors, and clear the path (the ExecHarness refuses unresolved plans).
/// A plan with no trace path passes through untouched. Called by
/// `scenario::make_backend` once per backend, so both substrates replay the
/// identical resolved plan.
schedsim::FaultPlan resolve_failure_trace(schedsim::FaultPlan plan);

}  // namespace ehpc::trace
