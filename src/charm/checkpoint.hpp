#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "charm/types.hpp"
#include "common/error.hpp"

namespace ehpc::charm {

/// One serialized chare-array element inside a checkpoint.
struct ElementRecord {
  ArrayId array = 0;
  ElementId elem = 0;
  PeId pe = 0;                      ///< PE the element lived on at checkpoint
  std::vector<std::byte> payload;   ///< packed pup bytes (real data)
  double modeled_bytes = 0.0;       ///< bytes charged to the timing model
};

/// A checkpoint of every chare-array element. Rescales and disk recovery
/// share one checkpoint path and differ only in bandwidth: a rescale keeps
/// it in the Linux shared-memory segment (/dev/shm) that Charm++ uses so
/// rescaling never touches disk (paper §2.2); fault tolerance keeps it on
/// disk so it survives node failures (paper §3.2.2).
///
/// The payloads are real serialized data; `modeled_bytes` lets an application
/// running a scaled-down grid charge the full-size footprint to the timing
/// model (see apps/ docs).
class MemCheckpoint {
 public:
  void add(ElementRecord record) {
    EHPC_EXPECTS(record.pe >= 0);
    total_modeled_bytes_ += record.modeled_bytes;
    records_.push_back(std::move(record));
  }
  void clear() {
    records_.clear();
    total_modeled_bytes_ = 0.0;
  }

  const std::vector<ElementRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Sum of modeled bytes across all records.
  double total_modeled_bytes() const { return total_modeled_bytes_; }

 private:
  std::vector<ElementRecord> records_;
  double total_modeled_bytes_ = 0.0;
};

}  // namespace ehpc::charm
