#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "sim/small_function.hpp"

namespace ehpc::sim {

/// Virtual time in seconds since simulation start.
using Time = double;

/// Identifies a scheduled event so it can be cancelled.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// A single-threaded discrete-event simulation kernel.
///
/// Events are callbacks scheduled at absolute virtual times. Ties are broken
/// by scheduling order (FIFO among equal timestamps), which makes runs fully
/// deterministic. The kernel underpins both the Kubernetes substrate (pod
/// startup, reconcile latencies) and the scheduler-performance simulator.
///
/// Storage model (the inner loop of every bench driver):
///  - Callbacks live inline in a chunked arena of generation-stamped slots
///    (SmallFunction, 64-byte small buffer). Slots are recycled through a
///    free list and never move, so steady-state scheduling touches no
///    allocator and no callback is ever copied.
///  - A chunk is allocated as raw storage, and each slot is constructed
///    when the high-water mark first reaches it. A fresh kernel therefore
///    touches only the slots it hands out: a short run of a few dozen
///    events pays for a few dozen slots, not for the whole 256-slot chunk.
///  - Pending events are 24-byte (time, seq, slot, gen) items spread over
///    three lanes, popped globally in (time, seq) order:
///      * a FIFO bucket for events at exactly now() (same-timestamp chains,
///        zero-delay reconcile hops),
///      * a sorted append-run for the dominant in-order pattern (each event
///        scheduled no earlier than the latest pending one),
///      * a binary min-heap for genuinely out-of-order arrivals.
///  - cancel() retires the slot's generation; the queued item becomes a
///    tombstone that pops lazily and is compacted away once tombstones
///    outnumber live events, so cancel-heavy workloads stay bounded.
class Simulation {
 public:
  using Callback = SmallFunction<void()>;

  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (must be >= now()). Returns an id
  /// usable with `cancel`.
  EventId schedule_at(Time at, Callback fn);

  /// Schedule `fn` after a non-negative delay relative to now().
  EventId schedule_after(Time delay, Callback fn);

  /// Schedule `fn` at the current virtual time (the same-timestamp FIFO
  /// fast path; equivalent to schedule_at(now(), fn)).
  EventId schedule_now(Callback fn) { return schedule_at(now_, std::move(fn)); }

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  /// Run events until the queue is empty. Returns the number of events run.
  std::size_t run();

  /// Run events with time <= `until`, then advance the clock to `until`
  /// (if the queue empties earlier). Returns the number of events run.
  std::size_t run_until(Time until);

  /// Execute at most one event. Returns false if the queue is empty.
  bool step();

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_; }

  bool empty() const { return live_ == 0; }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Entries currently held by the internal queues, *including* cancelled
  /// tombstones awaiting compaction. Instrumentation/test hook: pins that
  /// schedule/cancel churn cannot grow the queues unboundedly.
  std::size_t queue_size() const {
    return heap_.size() + (run_.size() - run_head_) +
           (bucket_.size() - bucket_head_);
  }

  /// Total Item storage (capacity) of the internal queues, consumed prefixes
  /// included. Instrumentation/test hook: pins that long-lived event chains
  /// reclaim the storage behind their queue heads (see reclaim_prefix).
  std::size_t queue_capacity() const {
    return heap_.capacity() + run_.capacity() + bucket_.capacity();
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  // Compaction only kicks in past this size so small queues never pay it.
  static constexpr std::size_t kCompactMinEntries = 64;
  // FIFO lanes reclaim their consumed prefix once it reaches this length
  // and at least half the vector (amortized O(1) per event).
  static constexpr std::size_t kPrefixReclaimMin = 1024;

  /// Arena cell owning one scheduled callback. `gen` increments every time
  /// the slot is released (run or cancelled), which simultaneously retires
  /// the outstanding EventId and turns any queued Item into a tombstone.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool armed = false;
    std::uint32_t next_free = kNoSlot;
  };

  /// Queue entry: 24 bytes, trivially copyable. `gen` must match the slot's
  /// current generation to be live.
  struct Item {
    Time time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  enum class Lane : std::uint8_t { kBucket, kRun, kHeap };

  static bool before(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    // Low word is slot+1 so kInvalidEvent (0) is never produced; the high
    // word's generation makes ids single-use even when slots are recycled.
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// Frees a chunk's raw storage; the slots in it are destroyed first, by
  /// ~Simulation.
  struct ChunkDeleter {
    void operator()(Slot* chunk) const {
      std::allocator<Slot>().deallocate(chunk, kChunkSize);
    }
  };

  // Only slots below slot_high_water_ are constructed; callers never pass
  // a larger index (cancel checks it first).
  Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift].get()[idx & kChunkMask];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift].get()[idx & kChunkMask];
  }

  bool item_live(const Item& it) const { return slot(it.slot).gen == it.gen; }

  std::uint32_t acquire_slot(Callback&& fn);
  void release_slot(std::uint32_t idx);

  void heap_push(const Item& it);
  void heap_pop_top();
  void sift_down(std::size_t i);

  static void erase_prefix(std::vector<Item>& lane, std::size_t& head);

  // Peek the next live event across the lanes, pruning tombstones.
  bool next_live(Item& out, Lane& lane);
  // Pop the peeked item, run its callback, advance the clock.
  void execute_item(const Item& it, Lane lane);

  void maybe_compact();
  void compact();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;

  std::vector<std::unique_ptr<Slot, ChunkDeleter>> chunks_;
  // Slots handed out at least once: exactly [0, slot_high_water_) are
  // constructed.
  std::uint32_t slot_high_water_ = 0;
  std::uint32_t free_head_ = kNoSlot;

  std::vector<Item> heap_;    // binary min-heap on (time, seq)
  std::vector<Item> run_;     // sorted ascending by (time, seq)
  std::size_t run_head_ = 0;
  std::vector<Item> bucket_;  // FIFO ring of events at time == now()
  std::size_t bucket_head_ = 0;
};

}  // namespace ehpc::sim
