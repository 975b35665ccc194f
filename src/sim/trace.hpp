#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace ehpc::sim {

/// Records named time series of (time, value) samples during a simulation.
///
/// Used to capture the cluster-utilization profiles of Figure 9a and the
/// per-job replica evolution of Figure 9b. Series are step functions: a
/// sample means "the value changed to v at time t".
class TraceRecorder {
 public:
  using Series = std::vector<std::pair<Time, double>>;

  /// Append a sample to the named series. Times must be non-decreasing
  /// within a series.
  void record(const std::string& series, Time t, double value);

  /// The samples of one series (empty if never recorded).
  const Series& series(const std::string& name) const;

  bool has(const std::string& name) const { return series_.count(name) > 0; }

  /// Value of the step function at time t (last sample at or before t);
  /// `fallback` if the series is empty or t precedes the first sample.
  double value_at(const std::string& name, Time t, double fallback = 0.0) const;

  /// Time-weighted average of the series over [start, end].
  double average(const std::string& name, Time start, Time end) const;

 private:
  std::map<std::string, Series> series_;
  static const Series kEmpty;
};

}  // namespace ehpc::sim
