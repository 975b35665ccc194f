#include "sim/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ehpc::sim {

const TraceRecorder::Series TraceRecorder::kEmpty;

void TraceRecorder::record(const std::string& name, Time t, double value) {
  auto& s = series_[name];
  EHPC_EXPECTS(s.empty() || t >= s.back().first);
  s.emplace_back(t, value);
}

const TraceRecorder::Series& TraceRecorder::series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second;
}

double TraceRecorder::value_at(const std::string& name, Time t,
                               double fallback) const {
  const Series& s = series(name);
  if (s.empty() || t < s.front().first) return fallback;
  auto it = std::upper_bound(
      s.begin(), s.end(), t,
      [](Time v, const std::pair<Time, double>& p) { return v < p.first; });
  return std::prev(it)->second;
}

double TraceRecorder::average(const std::string& name, Time start, Time end) const {
  EHPC_EXPECTS(end >= start);
  const Series& s = series(name);
  if (s.empty() || end == start) return value_at(name, start);
  std::vector<std::pair<double, double>> steps;
  steps.emplace_back(start, value_at(name, start));
  for (const auto& [t, v] : s) {
    if (t > start && t <= end) steps.emplace_back(t, v);
  }
  return time_weighted_average(steps, end);
}

}  // namespace ehpc::sim
