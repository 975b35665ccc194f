#include "opk/controller.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::opk {

bool is_worker_pod(const k8s::Pod& pod) {
  auto role = pod.meta.labels.find("role");
  return role != pod.meta.labels.end() && role->second == "worker";
}

std::string to_string(CharmJobPhase phase) {
  switch (phase) {
    case CharmJobPhase::kQueued: return "Queued";
    case CharmJobPhase::kLaunching: return "Launching";
    case CharmJobPhase::kRunning: return "Running";
    case CharmJobPhase::kResizing: return "Resizing";
    case CharmJobPhase::kCompleted: return "Completed";
  }
  return "?";
}

CharmJobController::CharmJobController(k8s::Cluster& cluster,
                                       k8s::ObjectStore<CharmJob>& jobs,
                                       ControllerConfig config)
    : cluster_(cluster), jobs_(jobs), config_(config) {
  // CharmJob changes enqueue a reconcile after the controller latency.
  jobs_.watch([this](k8s::WatchEvent event, const CharmJob& job) {
    if (event == k8s::WatchEvent::kDeleted) return;
    request_reconcile(job.meta.name);
  });
  // Pod phase changes update the owning job's readiness. One check per job
  // per tick: the check reads current state, so several pod events landing
  // on the same tick need only the first to schedule it.
  cluster_.pods().watch([this](k8s::WatchEvent event, const k8s::Pod& pod) {
    auto it = pod.meta.labels.find("job");
    if (it == pod.meta.labels.end()) return;
    const std::string job_name = it->second;
    if (event == k8s::WatchEvent::kDeleted) {
      // A worker rank the job still wants disappeared — an involuntary
      // deletion (node-group kill), not one of ours: shrink only removes
      // ranks >= desired and completion teardown runs with the job already
      // Completed. Heal by re-reconciling so the rank is recreated.
      if (is_worker_pod(pod) && jobs_.contains(job_name)) {
        const CharmJob& job = jobs_.get(job_name);
        if (job.phase != CharmJobPhase::kCompleted &&
            job.desired_replicas > 0 &&
            pod_rank(pod.meta.name) < job.desired_replicas) {
          request_reconcile(job_name);
        }
      }
    }
    if (!readiness_check_pending_.insert(job_name).second) return;
    cluster_.sim().schedule_after(0.0, [this, job_name] {
      readiness_check_pending_.erase(job_name);
      if (jobs_.contains(job_name)) update_readiness(job_name);
    });
  });
}

std::string CharmJobController::pod_name(const std::string& job_name,
                                         int rank) const {
  return job_name + "-worker-" + std::to_string(rank);
}

int CharmJobController::pod_rank(const std::string& pod_name) {
  const auto dash = pod_name.rfind('-');
  return std::atoi(pod_name.substr(dash + 1).c_str());
}

void CharmJobController::request_reconcile(const std::string& job_name) {
  cluster_.sim().schedule_after(config_.reconcile_latency_s, [this, job_name] {
    if (jobs_.contains(job_name)) reconcile(job_name);
  });
}

void CharmJobController::reconcile(const std::string& job_name) {
  ++reconcile_count_;
  const CharmJob& job = jobs_.get(job_name);
  const auto& owned = cluster_.index().pods_with_label("job", job_name);
  if (job.phase == CharmJobPhase::kCompleted) {
    // Tear down every pod of the job (workers and launcher). Copy the
    // names: delete_pod mutates the store, which rewrites the index.
    std::vector<std::string> names;
    names.reserve(owned.size());
    for (const auto& [name, pod] : owned) names.push_back(name);
    for (const std::string& name : names) cluster_.delete_pod(name);
    return;
  }
  if (job.desired_replicas <= 0) return;

  // Worker pods are rank-addressed (`<job>-worker-<rank>`); ranks >= desired
  // are surplus. One pass over the job's pods finds both the wanted ranks
  // that have a pod (a Terminating one included: its rank is recreated
  // once it is removed) and the surplus workers, in the index's name order.
  const int desired = job.desired_replicas;
  std::vector<bool> present(static_cast<std::size_t>(desired), false);
  std::vector<std::string> surplus;
  for (const auto& [name, pod] : owned) {
    if (!is_worker_pod(*pod)) continue;
    const int rank = pod_rank(name);
    if (rank >= desired) {
      surplus.push_back(name);
    } else {
      present[static_cast<std::size_t>(rank)] = true;
    }
  }

  // The launcher pod (mpirun home) requests no CPU so it never competes
  // with worker slots, mirroring the paper's testbed where the launcher
  // does not occupy a worker vCPU.
  const std::string launcher = job_name + "-launcher";
  if (cluster_.pods().find(launcher) == nullptr) {
    k8s::Pod pod;
    pod.meta.name = launcher;
    pod.meta.labels["job"] = job_name;
    pod.meta.labels["role"] = "launcher";
    pod.request = {0, 256};
    cluster_.create_pod(std::move(pod));
  }

  for (int rank = 0; rank < desired; ++rank) {
    if (present[static_cast<std::size_t>(rank)]) continue;
    k8s::Pod pod;
    pod.meta.name = pod_name(job_name, rank);
    pod.meta.labels["job"] = job_name;
    pod.meta.labels["role"] = "worker";
    pod.request = {1, 512};  // one vCPU per worker (non-SMP: 1 PE/replica)
    pod.affinity_key = "job";
    pod.affinity_value = job_name;
    cluster_.create_pod(std::move(pod));
  }
  // Delete surplus ranks in the label index's name order, so "-worker-10"
  // goes before "-worker-5" (CharmJobController.PodEventSequenceGolden pins
  // it). The runtime has already evacuated those PEs before we get here.
  for (const std::string& name : surplus) cluster_.delete_pod(name);
  update_readiness(job_name);
}

void CharmJobController::update_readiness(const std::string& job_name) {
  const CharmJob& job = jobs_.get(job_name);
  if (job.phase == CharmJobPhase::kCompleted) return;
  int running = 0;
  std::vector<std::string> nodelist;
  // Reads only — pod mutations cannot happen under us here.
  for (const auto& [name, pod] :
       cluster_.index().pods_with_label("job", job_name)) {
    if (is_worker_pod(*pod) && pod->phase == k8s::PodPhase::kRunning) {
      ++running;
      nodelist.push_back(name);
    }
  }
  // The label index is name-ordered, which puts "-worker-10" before
  // "-worker-2"; the launcher reads ranks in order. Every worker name is
  // the job's prefix plus a rank without leading zeros, so a shorter name
  // has a lower rank and equal-length names order by their digits.
  std::sort(nodelist.begin(), nodelist.end(),
            [](const std::string& a, const std::string& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  const int desired = job.desired_replicas;
  if (running != job.ready_replicas || nodelist != job.nodelist) {
    jobs_.mutate(job_name, [&](CharmJob& j) {
      j.ready_replicas = running;
      j.nodelist = std::move(nodelist);
    });
  }
  if (desired > 0 && running >= desired) {
    auto it = ready_waiters_.find(job_name);
    if (it != ready_waiters_.end()) {
      // Detach before firing: a waiter may register a new waiter.
      auto fns = std::move(it->second);
      ready_waiters_.erase(it);
      EHPC_DEBUG("opk", "job %s ready with %d replicas", job_name.c_str(),
                 running);
      for (auto& fn : fns) fn(job_name);
    }
  }
}

void CharmJobController::when_ready(const std::string& job_name,
                                    ReadyCallback fn) {
  EHPC_EXPECTS(fn != nullptr);
  ready_waiters_[job_name].push_back(std::move(fn));
  cluster_.sim().schedule_after(0.0, [this, job_name] {
    if (jobs_.contains(job_name)) update_readiness(job_name);
  });
}

}  // namespace ehpc::opk
