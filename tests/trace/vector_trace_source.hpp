#pragma once

// Replays a pre-built mix as a TraceSource, so run() and run_stream() can be
// compared on identical submissions. Shared by the schedsim and cluster
// stream-equivalence tests.

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "schedsim/jobmix.hpp"
#include "trace/source.hpp"

namespace ehpc::trace {

class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<schedsim::SubmittedJob> jobs)
      : jobs_(std::move(jobs)) {}

  std::optional<schedsim::SubmittedJob> next() override {
    if (index_ >= jobs_.size()) return std::nullopt;
    return jobs_[index_++];
  }

 private:
  std::vector<schedsim::SubmittedJob> jobs_;
  std::size_t index_ = 0;
};

}  // namespace ehpc::trace
