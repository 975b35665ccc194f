// Batched watch delivery: the coalescing window, its edge cases, and the
// view-vs-watcher consistency contract (views are synchronous and exact
// mid-window; watchers see the coalesced replay at the flush the store
// schedules on its simulation).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "k8s/api.hpp"
#include "k8s/store.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {
namespace {

Pod make_pod(const std::string& name, PodPhase phase = PodPhase::kPending) {
  Pod p;
  p.meta.name = name;
  p.phase = phase;
  return p;
}

/// A store on its own simulation, plus a recording watcher capturing
/// (event, name, phase) tuples in delivery order. `sim.run()` delivers the
/// open window.
struct Fixture {
  sim::Simulation sim;
  ObjectStore<Pod> store{sim};
  std::vector<std::tuple<WatchEvent, std::string, PodPhase>> seen;

  Fixture() {
    store.watch([this](WatchEvent e, const Pod& p) {
      seen.emplace_back(e, p.meta.name, p.phase);
    });
  }

  /// Flushes the store has scheduled so far, run or still queued: the
  /// store is the simulation's only client.
  std::uint64_t flush_requests() const {
    return sim.executed() + sim.pending();
  }
};

TEST(BatchedStore, DeliveryDeferredUntilFlushAndRequestedOncePerWindow) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(f.flush_requests(), 1u);  // only the window's first event asks
  EXPECT_TRUE(f.seen.empty());
  EXPECT_EQ(f.store.pending_events(), 3u);

  f.sim.run();
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(f.store.pending_events(), 0u);

  // Next window requests a flush again.
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(f.flush_requests(), 2u);
}

TEST(BatchedStore, ModifiedRunCoalescesToFinalStateAtFirstPosition) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.sim.run();
  f.seen.clear();

  // Run on "a" (3 events), interleaved single event on "b", then one more on
  // "a": the whole "a" run folds into its first queue position.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kScheduled; });
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kScheduled; });
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  EXPECT_EQ(f.store.pending_events(), 2u);

  f.sim.run();
  ASSERT_EQ(f.seen.size(), 2u);
  EXPECT_EQ(f.seen[0], std::make_tuple(WatchEvent::kModified, std::string("a"),
                                       PodPhase::kSucceeded));
  EXPECT_EQ(f.seen[1], std::make_tuple(WatchEvent::kModified, std::string("b"),
                                       PodPhase::kScheduled));
}

TEST(BatchedStore, AddAndDeleteInOneWindowBothDelivered) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kTerminating; });
  f.store.remove("a");
  EXPECT_FALSE(f.store.contains("a"));

  f.sim.run();
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(std::get<0>(f.seen[0]), WatchEvent::kAdded);
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kModified);
  // The Deleted snapshot is the final image even though the object is gone.
  EXPECT_EQ(f.seen[2], std::make_tuple(WatchEvent::kDeleted, std::string("a"),
                                       PodPhase::kTerminating));
}

TEST(BatchedStore, LifecycleEdgesEndModifiedRuns) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.sim.run();
  f.seen.clear();

  // Modified / Deleted / Added / Modified: nothing coalesces across the
  // delete+re-add edge pair, and the final Modified starts a fresh run.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.remove("a");
  f.store.add(make_pod("a"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kScheduled; });

  f.sim.run();
  ASSERT_EQ(f.seen.size(), 4u);
  EXPECT_EQ(std::get<0>(f.seen[0]), WatchEvent::kModified);
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kDeleted);
  EXPECT_EQ(std::get<0>(f.seen[2]), WatchEvent::kAdded);
  EXPECT_EQ(f.seen[3], std::make_tuple(WatchEvent::kModified, std::string("a"),
                                       PodPhase::kScheduled));
}

TEST(BatchedStore, MidWindowWatcherSeesOnlyLaterEvents) {
  Fixture f;
  f.store.mutate(f.store.add(make_pod("early")).meta.name,
                 [](Pod& p) { p.phase = PodPhase::kRunning; });

  std::vector<std::string> late_seen;
  f.store.watch([&](WatchEvent, const Pod& p) {
    late_seen.push_back(p.meta.name);
  });
  // A further fold into "early"'s pre-registration run stays invisible to
  // the new watcher; a fresh object is visible.
  f.store.mutate("early", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  f.store.add(make_pod("late"));

  f.sim.run();
  EXPECT_EQ(late_seen, std::vector<std::string>{"late"});
  // The original watcher saw everything (Added+coalesced Modified, Added).
  ASSERT_EQ(f.seen.size(), 3u);

  // After the flush the registration cutoff resets: the late watcher is a
  // full participant in the next window.
  f.seen.clear();
  late_seen.clear();
  f.store.mutate("early", [](Pod& p) { p.phase = PodPhase::kFailed; });
  f.sim.run();
  EXPECT_EQ(late_seen, std::vector<std::string>{"early"});
}

TEST(BatchedStore, EventsEnqueuedMidFlushDrainInSameFlush) {
  Fixture f;
  f.store.add(make_pod("a"));
  // A reactive watcher: on "a" turning Running, bind "b" (two more events).
  f.store.watch([&](WatchEvent e, const Pod& p) {
    if (e == WatchEvent::kModified && p.meta.name == "a" &&
        p.phase == PodPhase::kRunning && !f.store.contains("b")) {
      f.store.add(make_pod("b"));
      f.store.mutate("b", [](Pod& q) { q.phase = PodPhase::kScheduled; });
    }
  });
  f.sim.run();
  f.seen.clear();

  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  ASSERT_EQ(f.flush_requests(), 2u);
  f.sim.run();

  // One flush delivered the trigger plus both reactive events, appended in
  // order (no coalescing into already-delivered positions).
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(std::get<1>(f.seen[0]), "a");
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kAdded);
  EXPECT_EQ(std::get<1>(f.seen[1]), "b");
  EXPECT_EQ(std::get<0>(f.seen[2]), WatchEvent::kModified);
  EXPECT_EQ(std::get<1>(f.seen[2]), "b");
  EXPECT_EQ(f.store.pending_events(), 0u);
  // The mid-flush enqueue must not have scheduled a second flush...
  EXPECT_EQ(f.flush_requests(), 2u);
  // ...but the *next* window does request one.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  EXPECT_EQ(f.flush_requests(), 3u);
}

TEST(BatchedStore, ViewsStayExactMidWindow) {
  Fixture f;
  int running_pods = 0;
  f.store.attach_view([&](WatchEvent, const Pod* before, const Pod* after) {
    if (before && before->phase == PodPhase::kRunning) --running_pods;
    if (after && after->phase == PodPhase::kRunning) ++running_pods;
  });
  f.store.add(make_pod("a", PodPhase::kRunning));
  f.store.add(make_pod("b", PodPhase::kRunning));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  // The view already reflects all three mutations; no watcher has run yet.
  EXPECT_EQ(running_pods, 1);
  EXPECT_TRUE(f.seen.empty());
  f.sim.run();
  EXPECT_EQ(running_pods, 1);
}

TEST(BatchedStore, FlushOnEmptyQueueIsNoOp) {
  // A window without mutations schedules no flush and delivers no batch.
  Fixture f;
  int batches = 0;
  f.store.observe_batches([&] { ++batches; });
  f.sim.run();
  EXPECT_EQ(f.flush_requests(), 0u);
  EXPECT_EQ(batches, 0);
  EXPECT_TRUE(f.seen.empty());
}

TEST(BatchedStore, BatchObserverFiresOncePerFlush) {
  Fixture f;
  int batches = 0;
  f.store.observe_batches([&] { ++batches; });
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(batches, 0);
  f.sim.run();
  EXPECT_EQ(batches, 1);
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.sim.run();
  EXPECT_EQ(batches, 2);
}

TEST(BatchedStore, FlushRunsAtTheMutationTimeAfterTheInFlightEvent) {
  // The flush joins the current tick's FIFO lane: it runs at the mutation's
  // virtual time, after the event that mutated, and before same-time events
  // that event scheduled later.
  Fixture f;
  std::vector<std::string> order;
  std::vector<double> delivered_at;
  f.store.watch([&](WatchEvent, const Pod& p) {
    order.push_back("watch " + p.meta.name);
    delivered_at.push_back(f.sim.now());
  });
  f.sim.schedule_at(5.0, [&] {
    f.store.add(make_pod("a"));
    order.push_back("event");
    f.sim.schedule_now([&] { order.push_back("later"); });
  });
  f.sim.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"event", "watch a", "later"}));
  EXPECT_EQ(delivered_at, std::vector<double>{5.0});
}

}  // namespace
}  // namespace ehpc::k8s
