#include "opk/controller.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace ehpc::opk {
namespace {

struct Fixture {
  k8s::Cluster cluster;
  k8s::ObjectStore<CharmJob> jobs{cluster.sim()};
  CharmJobController controller{cluster, jobs, ControllerConfig{}};

  explicit Fixture(int cpus_per_node = 16) {
    cluster.add_nodes("node", 4, {cpus_per_node, 32768});
  }

  CharmJob make_job(const std::string& name, int replicas) {
    CharmJob job;
    job.meta.name = name;
    job.desired_replicas = replicas;
    job.phase = CharmJobPhase::kLaunching;
    return job;
  }

  int worker_pods(const std::string& job_name, k8s::PodPhase phase) {
    int count = 0;
    for (const k8s::Pod* pod : cluster.pods().list()) {
      auto jt = pod->meta.labels.find("job");
      auto rt = pod->meta.labels.find("role");
      if (jt != pod->meta.labels.end() && jt->second == job_name &&
          rt != pod->meta.labels.end() && rt->second == "worker" &&
          pod->phase == phase) {
        ++count;
      }
    }
    return count;
  }
};

TEST(CharmJobController, CreatesWorkerPodsToDesired) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
  EXPECT_EQ(f.jobs.get("j1").ready_replicas, 8);
}

TEST(CharmJobController, CreatesLauncherPod) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 4));
  f.cluster.sim().run();
  ASSERT_TRUE(f.cluster.pods().contains("j1-launcher"));
  EXPECT_EQ(f.cluster.pods().get("j1-launcher").request.cpus, 0);
}

TEST(CharmJobController, NodelistSortedAndComplete) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 4));
  f.cluster.sim().run();
  const auto& nodelist = f.jobs.get("j1").nodelist;
  ASSERT_EQ(nodelist.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nodelist.begin(), nodelist.end()));
  EXPECT_EQ(nodelist[0], "j1-worker-0");
}

TEST(CharmJobController, NodelistInRankOrderPastTenWorkers) {
  // Name order would put "j1-worker-10" before "j1-worker-2".
  Fixture f;
  f.jobs.add(f.make_job("j1", 12));
  f.cluster.sim().run();
  std::vector<std::string> want;
  for (int rank = 0; rank < 12; ++rank) want.push_back("j1-worker-" + std::to_string(rank));
  EXPECT_EQ(f.jobs.get("j1").nodelist, want);
}

TEST(CharmJobController, WhenReadyFiresAfterAllRunning) {
  Fixture f;
  bool ready = false;
  f.controller.when_ready("j1", [&](const std::string&) { ready = true; });
  f.jobs.add(f.make_job("j1", 8));
  EXPECT_FALSE(ready);
  f.cluster.sim().run();
  EXPECT_TRUE(ready);
}

TEST(CharmJobController, ShrinkDeletesHighestRanks) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.cluster.sim().run();
  f.jobs.mutate("j1", [](CharmJob& j) { j.desired_replicas = 4; });
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 4);
  EXPECT_TRUE(f.cluster.pods().contains("j1-worker-3"));
  EXPECT_FALSE(f.cluster.pods().contains("j1-worker-7"));
}

TEST(CharmJobController, ExpandAddsPodsAndSignalsReady) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 4));
  f.cluster.sim().run();
  bool expanded = false;
  f.controller.when_ready("j1", [&](const std::string&) { expanded = true; });
  f.jobs.mutate("j1", [](CharmJob& j) { j.desired_replicas = 8; });
  f.cluster.sim().run();
  EXPECT_TRUE(expanded);
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
}

TEST(CharmJobController, CompletedJobTearsDownAllPods) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.cluster.sim().run();
  f.jobs.mutate("j1", [](CharmJob& j) { j.phase = CharmJobPhase::kCompleted; });
  f.cluster.sim().run();
  EXPECT_EQ(f.cluster.used_cpus(), 0);
  EXPECT_FALSE(f.cluster.pods().contains("j1-launcher"));
}

TEST(CharmJobController, TwoJobsCoexist) {
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.jobs.add(f.make_job("j2", 16));
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
  EXPECT_EQ(f.worker_pods("j2", k8s::PodPhase::kRunning), 16);
  EXPECT_EQ(f.cluster.used_cpus(), 24);
}

TEST(CharmJobController, PendingWhenClusterFull) {
  Fixture f;
  f.jobs.add(f.make_job("big", 64));
  f.cluster.sim().run();
  f.jobs.add(f.make_job("late", 8));
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("late", k8s::PodPhase::kRunning), 0);
  EXPECT_EQ(f.worker_pods("late", k8s::PodPhase::kPending), 8);
  // Capacity frees: the late job's pods start.
  f.jobs.mutate("big", [](CharmJob& j) { j.phase = CharmJobPhase::kCompleted; });
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("late", k8s::PodPhase::kRunning), 8);
}

TEST(CharmJobController, InvoluntaryWorkerDeletionIsHealed) {
  // A worker rank the job still wants disappears (node-group kill): the
  // pods-watch heal path must re-reconcile and recreate exactly that rank.
  // Regression: the watch used to ignore kDeleted events entirely, so an
  // involuntary deletion silently shrank the job forever.
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.cluster.sim().run();
  ASSERT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
  f.cluster.delete_pod("j1-worker-2");
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
  EXPECT_TRUE(f.cluster.pods().contains("j1-worker-2"));
  EXPECT_EQ(f.jobs.get("j1").ready_replicas, 8);
}

TEST(CharmJobController, DeletionBurstAcrossJobsIsHealed) {
  // Several workers of several jobs die at one instant (a correlated
  // domain kill): every missing wanted rank comes back.
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.jobs.add(f.make_job("j2", 8));
  f.cluster.sim().run();
  for (const char* name :
       {"j1-worker-0", "j1-worker-5", "j2-worker-1", "j2-worker-7"}) {
    f.cluster.delete_pod(name);
  }
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 8);
  EXPECT_EQ(f.worker_pods("j2", k8s::PodPhase::kRunning), 8);
}

TEST(CharmJobController, CompletedJobDeletionsAreNotHealed) {
  // Teardown deletions of a Completed job must not re-trigger reconcile
  // into recreating pods.
  Fixture f;
  f.jobs.add(f.make_job("j1", 8));
  f.cluster.sim().run();
  f.jobs.mutate("j1", [](CharmJob& j) { j.phase = CharmJobPhase::kCompleted; });
  f.cluster.sim().run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 0);
  EXPECT_EQ(f.cluster.used_cpus(), 0);
}

/// Every pod-store watch event of one scripted job, one line each:
/// "<virtual time> <A|M|D> <pod> <phase> <node or ->". Pins creation order
/// (rank order), surplus deletion order (label-index name order, so
/// "-worker-10" goes before "-worker-5"), heal order and watch coalescing.
std::vector<std::string> scripted_pod_events() {
  Fixture f(6);  // 6-CPU nodes: the job's ranks span three of them
  std::vector<std::string> log;
  f.cluster.pods().watch([&](k8s::WatchEvent event, const k8s::Pod& pod) {
    const char* kind = event == k8s::WatchEvent::kAdded      ? "A"
                       : event == k8s::WatchEvent::kModified ? "M"
                                                             : "D";
    char time[32];
    std::snprintf(time, sizeof time, "%.3f", f.cluster.sim().now());
    log.push_back(std::string(time) + " " + kind + " " + pod.meta.name + " " +
                  k8s::to_string(pod.phase) + " " +
                  (pod.node_name.empty() ? "-" : pod.node_name));
  });
  auto& sim = f.cluster.sim();
  f.jobs.add(f.make_job("j1", 12));
  sim.run();
  f.jobs.mutate("j1", [](CharmJob& j) { j.desired_replicas = 5; });
  sim.run_until(sim.now() + 0.5);  // ranks 5-11 are Terminating, not gone
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kTerminating), 7);
  f.jobs.mutate("j1", [](CharmJob& j) { j.desired_replicas = 14; });
  sim.run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 14);
  f.cluster.delete_pod("j1-worker-3");  // involuntary: healed
  sim.run();
  EXPECT_EQ(f.worker_pods("j1", k8s::PodPhase::kRunning), 14);
  f.jobs.mutate("j1", [](CharmJob& j) { j.phase = CharmJobPhase::kCompleted; });
  sim.run();
  EXPECT_EQ(f.cluster.pods().size(), 0u);
  return log;
}

TEST(CharmJobController, PodEventSequenceGolden) {
  // Launch 12 ranks, shrink to 5, expand to 14 while ranks 5-11 are still
  // Terminating (they are recreated once removed), lose rank 3
  // involuntarily (healed), then complete the job.
  const std::vector<std::string> want = {
      "0.200 A j1-launcher Pending -",
      "0.200 A j1-worker-0 Pending -",
      "0.200 A j1-worker-1 Pending -",
      "0.200 A j1-worker-2 Pending -",
      "0.200 A j1-worker-3 Pending -",
      "0.200 A j1-worker-4 Pending -",
      "0.200 A j1-worker-5 Pending -",
      "0.200 A j1-worker-6 Pending -",
      "0.200 A j1-worker-7 Pending -",
      "0.200 A j1-worker-8 Pending -",
      "0.200 A j1-worker-9 Pending -",
      "0.200 A j1-worker-10 Pending -",
      "0.200 A j1-worker-11 Pending -",
      "0.250 M j1-launcher Scheduled node-0",
      "0.250 M j1-worker-0 Scheduled node-0",
      "0.250 M j1-worker-1 Scheduled node-0",
      "0.250 M j1-worker-2 Scheduled node-0",
      "0.250 M j1-worker-3 Scheduled node-0",
      "0.250 M j1-worker-4 Scheduled node-0",
      "0.250 M j1-worker-5 Scheduled node-0",
      "0.250 M j1-worker-6 Scheduled node-1",
      "0.250 M j1-worker-7 Scheduled node-1",
      "0.250 M j1-worker-8 Scheduled node-1",
      "0.250 M j1-worker-9 Scheduled node-1",
      "0.250 M j1-worker-10 Scheduled node-1",
      "0.250 M j1-worker-11 Scheduled node-1",
      "2.250 M j1-launcher Running node-0",
      "2.250 M j1-worker-0 Running node-0",
      "2.250 M j1-worker-1 Running node-0",
      "2.250 M j1-worker-2 Running node-0",
      "2.250 M j1-worker-3 Running node-0",
      "2.250 M j1-worker-4 Running node-0",
      "2.250 M j1-worker-5 Running node-0",
      "2.250 M j1-worker-6 Running node-1",
      "2.250 M j1-worker-7 Running node-1",
      "2.250 M j1-worker-8 Running node-1",
      "2.250 M j1-worker-9 Running node-1",
      "2.250 M j1-worker-10 Running node-1",
      "2.250 M j1-worker-11 Running node-1",
      "2.650 M j1-worker-10 Terminating node-1",
      "2.650 M j1-worker-11 Terminating node-1",
      "2.650 M j1-worker-5 Terminating node-0",
      "2.650 M j1-worker-6 Terminating node-1",
      "2.650 M j1-worker-7 Terminating node-1",
      "2.650 M j1-worker-8 Terminating node-1",
      "2.650 M j1-worker-9 Terminating node-1",
      "3.150 A j1-worker-12 Pending -",
      "3.150 A j1-worker-13 Pending -",
      "3.200 M j1-worker-12 Scheduled node-2",
      "3.200 M j1-worker-13 Scheduled node-2",
      "3.650 D j1-worker-10 Terminating node-1",
      "3.650 D j1-worker-11 Terminating node-1",
      "3.650 D j1-worker-5 Terminating node-0",
      "3.650 D j1-worker-6 Terminating node-1",
      "3.650 D j1-worker-7 Terminating node-1",
      "3.650 D j1-worker-8 Terminating node-1",
      "3.650 D j1-worker-9 Terminating node-1",
      "3.850 A j1-worker-5 Pending -",
      "3.850 A j1-worker-6 Pending -",
      "3.850 A j1-worker-7 Pending -",
      "3.850 A j1-worker-8 Pending -",
      "3.850 A j1-worker-9 Pending -",
      "3.850 A j1-worker-10 Pending -",
      "3.850 A j1-worker-11 Pending -",
      "3.900 M j1-worker-5 Scheduled node-0",
      "3.900 M j1-worker-6 Scheduled node-2",
      "3.900 M j1-worker-7 Scheduled node-2",
      "3.900 M j1-worker-8 Scheduled node-2",
      "3.900 M j1-worker-9 Scheduled node-2",
      "3.900 M j1-worker-10 Scheduled node-1",
      "3.900 M j1-worker-11 Scheduled node-1",
      "5.200 M j1-worker-12 Running node-2",
      "5.200 M j1-worker-13 Running node-2",
      "5.900 M j1-worker-5 Running node-0",
      "5.900 M j1-worker-6 Running node-2",
      "5.900 M j1-worker-7 Running node-2",
      "5.900 M j1-worker-8 Running node-2",
      "5.900 M j1-worker-9 Running node-2",
      "5.900 M j1-worker-10 Running node-1",
      "5.900 M j1-worker-11 Running node-1",
      "6.100 M j1-worker-3 Terminating node-0",
      "7.100 D j1-worker-3 Terminating node-0",
      "7.300 A j1-worker-3 Pending -",
      "7.350 M j1-worker-3 Scheduled node-0",
      "9.350 M j1-worker-3 Running node-0",
      "9.750 M j1-launcher Terminating node-0",
      "9.750 M j1-worker-0 Terminating node-0",
      "9.750 M j1-worker-1 Terminating node-0",
      "9.750 M j1-worker-10 Terminating node-1",
      "9.750 M j1-worker-11 Terminating node-1",
      "9.750 M j1-worker-12 Terminating node-2",
      "9.750 M j1-worker-13 Terminating node-2",
      "9.750 M j1-worker-2 Terminating node-0",
      "9.750 M j1-worker-3 Terminating node-0",
      "9.750 M j1-worker-4 Terminating node-0",
      "9.750 M j1-worker-5 Terminating node-0",
      "9.750 M j1-worker-6 Terminating node-2",
      "9.750 M j1-worker-7 Terminating node-2",
      "9.750 M j1-worker-8 Terminating node-2",
      "9.750 M j1-worker-9 Terminating node-2",
      "10.750 D j1-launcher Terminating node-0",
      "10.750 D j1-worker-0 Terminating node-0",
      "10.750 D j1-worker-1 Terminating node-0",
      "10.750 D j1-worker-10 Terminating node-1",
      "10.750 D j1-worker-11 Terminating node-1",
      "10.750 D j1-worker-12 Terminating node-2",
      "10.750 D j1-worker-13 Terminating node-2",
      "10.750 D j1-worker-2 Terminating node-0",
      "10.750 D j1-worker-3 Terminating node-0",
      "10.750 D j1-worker-4 Terminating node-0",
      "10.750 D j1-worker-5 Terminating node-0",
      "10.750 D j1-worker-6 Terminating node-2",
      "10.750 D j1-worker-7 Terminating node-2",
      "10.750 D j1-worker-8 Terminating node-2",
      "10.750 D j1-worker-9 Terminating node-2",
  };
  EXPECT_EQ(scripted_pod_events(), want);
}

TEST(CharmJobController, PhaseNames) {
  EXPECT_EQ(to_string(CharmJobPhase::kQueued), "Queued");
  EXPECT_EQ(to_string(CharmJobPhase::kResizing), "Resizing");
}

}  // namespace
}  // namespace ehpc::opk
