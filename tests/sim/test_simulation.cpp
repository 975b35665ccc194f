#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace ehpc::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, FifoAmongEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelledEventDoesNotBlockOthers) {
  Simulation sim;
  int count = 0;
  EventId id = sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.cancel(id);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(count, 1);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(5.0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(3.0), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, RunUntilAdvancesClockWhenEmpty) {
  Simulation sim;
  sim.run_until(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), PreconditionError);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ExecutedCounterAccumulates) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<Time>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulation, PendingTracksCancellations) {
  Simulation sim;
  EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// ---- semantics the arena/lane kernel must preserve ----

// FIFO among equal timestamps must hold across the internal lanes: events
// already pending at time T (scheduled earlier, from the heap/run) run
// before events scheduled at T once the clock reached it (the bucket).
TEST(Simulation, FifoAmongEqualTimesAcrossLanes) {
  Simulation sim;
  std::vector<int> order;
  // Scheduled "from the past": pending at time 2 with the smallest seqs.
  sim.schedule_at(2.0, [&] {
    order.push_back(0);
    // Same-timestamp chain started while the clock is exactly 2.
    sim.schedule_now([&] { order.push_back(2); });
    sim.schedule_after(0.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(2.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, ScheduleNowRunsAtCurrentTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(4.0, [&] {
    sim.schedule_now([&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

// The full cancel contract: true exactly once, false for ran / already
// cancelled / never existed / forged ids.
TEST(Simulation, CancelReturnValueContract) {
  Simulation sim;
  EventId ran = sim.schedule_at(1.0, [] {});
  EventId cancelled = sim.schedule_at(2.0, [] {});
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.cancel(cancelled));  // already cancelled
  sim.run();
  EXPECT_FALSE(sim.cancel(ran));            // already executed
  EXPECT_FALSE(sim.cancel(kInvalidEvent));  // never a valid id
  // Forged id: right slot, wrong generation — must not cancel the live event.
  EventId live = sim.schedule_at(9.0, [] {});
  const EventId forged = (0xdeadbeefull << 32) | (live & 0xffffffffull);
  EXPECT_FALSE(sim.cancel(forged));
  EXPECT_TRUE(sim.cancel(live));
}

TEST(Simulation, CancelFromInsideEvent) {
  Simulation sim;
  bool ran = false;
  EventId victim = sim.schedule_at(2.0, [&] { ran = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunUntilAdvancesClockOnEarlyQueueDrain) {
  Simulation sim;
  sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.run_until(10.0), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock reaches the horizon, not 1.0
  // A cancelled event must not hold the clock back either.
  EventId id = sim.schedule_at(11.0, [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.run_until(20.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

// EventIds are single-use forever: recycled slots (after run or cancel)
// must never repeat an id.
TEST(Simulation, EventIdsNeverReusedAcrossSlotRecycling) {
  Simulation sim;
  std::set<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    // Mix of cancelled (tombstoned, compacted) and executed events.
    std::array<EventId, 4> batch;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = sim.schedule_at(sim.now() + 1.0 + static_cast<double>(i),
                                 [] {});
      EXPECT_TRUE(ids.insert(batch[i]).second) << "duplicate EventId";
    }
    sim.cancel(batch[0]);
    sim.cancel(batch[2]);
    sim.run();
  }
  EXPECT_EQ(ids.size(), 800u);
}

// Regression (tentpole fix): cancelled events used to linger in the heap
// until popped, so schedule/cancel loops grew memory unboundedly. With
// tombstone compaction the internal queues stay bounded by the live count.
TEST(Simulation, ScheduleCancelChurnKeepsQueuesBounded) {
  Simulation sim;
  std::set<EventId> ids;
  sim.schedule_at(1e9, [] {});  // one live event pins a non-empty queue
  for (int i = 0; i < 100000; ++i) {
    EventId id = sim.schedule_at(static_cast<Time>(1 + i % 977), [] {});
    // Recycled slots must still mint fresh ids (non-reuse across compaction).
    ASSERT_TRUE(ids.insert(id).second) << "EventId reused, i=" << i;
    EXPECT_TRUE(sim.cancel(id));
    ASSERT_LE(sim.queue_size(), 128u) << "tombstones not compacted, i=" << i;
  }
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

// Same churn but leaving a growing live population; tombstones must stay
// below half the queue (compaction threshold) rather than accumulating.
TEST(Simulation, MixedChurnQueueTracksLivePopulation) {
  Simulation sim;
  std::size_t live = 0;
  for (int i = 0; i < 20000; ++i) {
    EventId keep = sim.schedule_at(1.0 + i, [] {});
    EventId drop = sim.schedule_at(2.0 + i, [] {});
    (void)keep;
    sim.cancel(drop);
    ++live;
    ASSERT_LE(sim.queue_size(), 2 * live + 64);
  }
  EXPECT_EQ(sim.pending(), live);
}

// Regression: the FIFO lanes must reclaim their consumed prefix even when
// the queue never fully drains. A self-rescheduling chain (always exactly
// one pending event) used to accrete one dead 24-byte item per event.
TEST(Simulation, SelfReschedulingChainReclaimsQueueStorage) {
  Simulation sim;
  int remaining = 300000;
  std::function<void()> next = [&] {
    if (--remaining > 0) sim.schedule_after(0.001, next);
  };
  sim.schedule_at(0.0, next);
  sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_LE(sim.queue_capacity(), 16384u) << "consumed prefix not reclaimed";
}

TEST(Simulation, SameTimeChainReclaimsBucketStorage) {
  Simulation sim;
  int remaining = 300000;
  std::function<void()> next = [&] {
    if (--remaining > 0) sim.schedule_now(next);
  };
  sim.schedule_now(next);
  sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_LE(sim.queue_capacity(), 16384u) << "consumed prefix not reclaimed";
}

TEST(Simulation, CallbacksLargerThanInlineBufferWork) {
  Simulation sim;
  std::array<double, 32> payload{};  // 256 bytes: heap-boxed callable
  payload[7] = 42.0;
  double seen = 0.0;
  sim.schedule_at(1.0, [payload, &seen] { seen = payload[7]; });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(Simulation, LargeCallbackCancelReleasesCleanly) {
  Simulation sim;
  auto payload = std::make_shared<std::vector<double>>(1000, 1.0);
  std::weak_ptr<std::vector<double>> watch = payload;
  EventId id = sim.schedule_at(1.0, [payload] { (void)payload; });
  payload.reset();
  EXPECT_FALSE(watch.expired());  // kept alive by the pending event
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(watch.expired());  // cancel destroys the stored callable
}

// Slots are constructed on first use, so destruction must release exactly
// the slots handed out: the pending callbacks in both chunks (inline and
// heap-boxed, each holding a shared_ptr) die with the kernel. 320 events
// reach only 280 slots, because the last 40 reuse slots freed by run
// events; the sanitizer lanes fill fresh heap memory with garbage, so
// destroying one of the never-constructed slots 280.. would crash there.
TEST(Simulation, DestroyReleasesPendingCallbacksAcrossChunks) {
  std::vector<std::pair<int, std::weak_ptr<int>>> watches;
  std::vector<EventId> ids;
  int ran = 0;
  const auto schedule = [&](Simulation& sim, int i) {
    const double at = 1.0 + i;
    if (i % 3 != 0) {
      ids.push_back(sim.schedule_at(at, [&ran] { ++ran; }));  // trivial
      return;
    }
    auto token = std::make_shared<int>(i);
    watches.emplace_back(i, token);
    if (i % 9 == 0) {
      std::array<double, 16> pad{};  // 128 bytes: heap-boxed callable
      ids.push_back(sim.schedule_at(
          at, [token, pad, &ran] { ran += 1 + static_cast<int>(pad[0]); }));
    } else {
      ids.push_back(sim.schedule_at(at, [token, &ran] { ++ran; }));
    }
  };
  {
    Simulation sim;
    for (int i = 0; i < 280; ++i) schedule(sim, i);  // slots 0..279
    sim.run_until(40.5);                             // frees 40 slots
    EXPECT_EQ(ran, 40);
    for (int i = 280; i < 320; ++i) schedule(sim, i);  // reuses them
    int cancelled = 0;
    for (int i = 40; i < 320; i += 5) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
      ++cancelled;
    }
    sim.run_until(50.5);  // events 40..49 minus the cancelled 40 and 45
    EXPECT_EQ(ran, 48);
    EXPECT_EQ(sim.pending(), static_cast<std::size_t>(320 - 50 - cancelled + 2));
    int alive = 0;
    for (const auto& [i, watch] : watches) {
      const bool pending = i >= 50 && i % 5 != 0;
      EXPECT_EQ(!watch.expired(), pending) << "event " << i;
      alive += pending;
    }
    EXPECT_GT(alive, 0);
    // Event 279 holds slot 279, the highest one handed out.
    ASSERT_EQ(watches[93].first, 279);
    ASSERT_FALSE(watches[93].second.expired());
  }
  for (const auto& [i, watch] : watches) {
    EXPECT_TRUE(watch.expired()) << "event " << i << " leaked its callback";
  }
  EXPECT_EQ(ran, 48);  // destruction runs no callback
}

// Out-of-order scheduling exercises the heap lane together with the others;
// global (time, seq) order must hold regardless of which lane holds what.
TEST(Simulation, MixedLaneOrderingMatchesGlobalTimeSeqOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(50); });   // run lane
  sim.schedule_at(9.0, [&] { order.push_back(90); });   // run lane (ascending)
  sim.schedule_at(3.0, [&] { order.push_back(30); });   // heap (backfill)
  sim.schedule_at(9.0, [&] { order.push_back(91); });   // run (ties run tail)
  sim.schedule_at(0.0, [&] { order.push_back(0); });    // bucket (time == now)
  sim.schedule_at(7.0, [&] { order.push_back(70); });   // heap (backfill)
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 30, 50, 70, 90, 91}));
}

}  // namespace
}  // namespace ehpc::sim
