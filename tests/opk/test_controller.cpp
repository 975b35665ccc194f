#include "opk/controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ehpc::opk {
namespace {

struct Fixture {
  k8s::Cluster cluster;
  k8s::ObjectStore<CharmJob> jobs{cluster.sim()};
  CharmJobController controller{cluster, jobs, ControllerConfig{}};

  Fixture() { cluster.add_nodes("node", 4, {16, 32768}); }

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

TEST(CharmJobController, PhaseNames) {
  EXPECT_EQ(to_string(CharmJobPhase::kQueued), "Queued");
  EXPECT_EQ(to_string(CharmJobPhase::kResizing), "Resizing");
}

}  // namespace
}  // namespace ehpc::opk
