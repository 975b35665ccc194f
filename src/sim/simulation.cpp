#include "sim/simulation.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

namespace ehpc::sim {

Simulation::~Simulation() {
  // Pending callbacks (and whatever they capture) die with their slots.
  for (std::uint32_t idx = 0; idx < slot_high_water_; ++idx) {
    std::destroy_at(&slot(idx));
  }
}

std::uint32_t Simulation::acquire_slot(Callback&& fn) {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slot(idx).next_free;
  } else {
    idx = slot_high_water_;
    EHPC_ENSURES(idx != kNoSlot);
    if ((idx >> kChunkShift) == chunks_.size()) {
      std::unique_ptr<Slot, ChunkDeleter> chunk(
          std::allocator<Slot>().allocate(kChunkSize));
      chunks_.push_back(std::move(chunk));
    }
    ::new (static_cast<void*>(&slot(idx))) Slot;
    ++slot_high_water_;
  }
  Slot& cell = slot(idx);
  cell.fn = std::move(fn);
  cell.armed = true;
  return idx;
}

void Simulation::release_slot(std::uint32_t idx) {
  Slot& cell = slot(idx);
  cell.fn = nullptr;
  cell.armed = false;
  ++cell.gen;  // retires the EventId and tombstones any queued Item
  cell.next_free = free_head_;
  free_head_ = idx;
  --live_;
}

EventId Simulation::schedule_at(Time at, Callback fn) {
  EHPC_EXPECTS(at >= now_);
  EHPC_EXPECTS(fn != nullptr);
  const std::uint32_t idx = acquire_slot(std::move(fn));
  const std::uint32_t gen = slot(idx).gen;
  const Item item{at, next_seq_++, idx, gen};
  if (at == now_) {
    // Same-timestamp chain. Any heap/run entry with this timestamp was
    // scheduled before the clock reached it, so it has a smaller seq and
    // still runs first (next_live compares seq).
    bucket_.push_back(item);
  } else if (run_head_ == run_.size() || at >= run_.back().time) {
    // In-order arrival (the dominant pattern): O(1) append keeps the run
    // sorted because seq grows monotonically.
    if (run_.capacity() == run_.size()) {
      run_.reserve(std::max<std::size_t>(4 * kChunkSize, 2 * run_.size()));
    }
    run_.push_back(item);
  } else {
    heap_push(item);
  }
  ++live_;
  return make_id(idx, gen);
}

EventId Simulation::schedule_after(Time delay, Callback fn) {
  EHPC_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::cancel(EventId id) {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0) return false;
  const std::uint32_t idx = low - 1;
  if (idx >= slot_high_water_) return false;
  Slot& cell = slot(idx);
  if (!cell.armed || cell.gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  // The queued Item stays behind as a tombstone; compaction keeps the
  // tombstone population below the live one.
  release_slot(idx);
  maybe_compact();
  return true;
}

void Simulation::heap_push(const Item& it) {
  heap_.push_back(it);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulation::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    if (l < n && before(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && before(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

// Slow path of the consumed-prefix reclamation (see next_live): erase the
// dead prefix once it reaches half the vector. Amortized O(1) per event.
void Simulation::erase_prefix(std::vector<Item>& lane, std::size_t& head) {
  lane.erase(lane.begin(), lane.begin() + static_cast<std::ptrdiff_t>(head));
  head = 0;
}

bool Simulation::next_live(Item& out, Lane& lane) {
  while (bucket_head_ < bucket_.size() && !item_live(bucket_[bucket_head_])) {
    ++bucket_head_;
  }
  // Reclaim each lane's consumed prefix. Waiting only for a full drain is
  // not enough: a simulation that always has at least one pending event (a
  // self-rescheduling chain — the dominant pattern) would otherwise accrete
  // one dead Item per event forever.
  if (bucket_head_ == bucket_.size()) {
    if (!bucket_.empty()) {
      bucket_.clear();
      bucket_head_ = 0;
    }
  } else if (bucket_head_ >= kPrefixReclaimMin &&
             2 * bucket_head_ >= bucket_.size()) {
    erase_prefix(bucket_, bucket_head_);
  }
  while (run_head_ < run_.size() && !item_live(run_[run_head_])) ++run_head_;
  if (run_head_ == run_.size()) {
    if (!run_.empty()) {
      run_.clear();
      run_head_ = 0;
    }
  } else if (run_head_ >= kPrefixReclaimMin && 2 * run_head_ >= run_.size()) {
    erase_prefix(run_, run_head_);
  }
  while (!heap_.empty() && !item_live(heap_.front())) heap_pop_top();

  const Item* best = nullptr;
  if (bucket_head_ < bucket_.size()) {
    best = &bucket_[bucket_head_];
    lane = Lane::kBucket;
  }
  if (run_head_ < run_.size() &&
      (best == nullptr || before(run_[run_head_], *best))) {
    best = &run_[run_head_];
    lane = Lane::kRun;
  }
  if (!heap_.empty() && (best == nullptr || before(heap_.front(), *best))) {
    best = &heap_.front();
    lane = Lane::kHeap;
  }
  if (best == nullptr) return false;
  out = *best;
  return true;
}

void Simulation::execute_item(const Item& it, Lane lane) {
  switch (lane) {
    case Lane::kBucket: ++bucket_head_; break;
    case Lane::kRun: ++run_head_; break;
    case Lane::kHeap: heap_pop_top(); break;
  }
  // Move the callback out before running it: the callback may schedule new
  // events, acquiring (and re-arming) arena slots.
  Callback fn = std::move(slot(it.slot).fn);
  release_slot(it.slot);
  now_ = it.time;
  ++executed_;
  fn();
}

bool Simulation::step() {
  Item item;
  Lane lane;
  if (!next_live(item, lane)) return false;
  execute_item(item, lane);
  return true;
}

std::size_t Simulation::run() {
  std::size_t count = 0;
  while (step()) ++count;
  return count;
}

std::size_t Simulation::run_until(Time until) {
  EHPC_EXPECTS(until >= now_);
  std::size_t count = 0;
  Item item;
  Lane lane;
  while (next_live(item, lane) && item.time <= until) {
    execute_item(item, lane);
    ++count;
  }
  now_ = std::max(now_, until);
  return count;
}

void Simulation::maybe_compact() {
  const std::size_t entries = queue_size();
  if (entries >= kCompactMinEntries && entries > 2 * live_) compact();
}

void Simulation::compact() {
  std::erase_if(heap_, [this](const Item& it) { return !item_live(it); });
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  const auto compact_fifo = [this](std::vector<Item>& lane,
                                   std::size_t& head) {
    if (lane.empty()) return;
    std::size_t write = 0;
    for (std::size_t read = head; read < lane.size(); ++read) {
      if (item_live(lane[read])) lane[write++] = lane[read];
    }
    lane.resize(write);
    head = 0;
  };
  compact_fifo(run_, run_head_);  // filtering preserves sortedness
  compact_fifo(bucket_, bucket_head_);
}

}  // namespace ehpc::sim
