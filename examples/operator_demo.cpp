// Drives the Charm++ operator directly on the Kubernetes substrate — the
// CRD/controller mechanics without any scheduling policy: create a CharmJob,
// watch its worker pods come up, shrink it, expand it, and tear it down,
// printing every pod transition (the equivalent of `kubectl get pods -w`).

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "k8s/cluster.hpp"
#include "opk/controller.hpp"

using namespace ehpc;

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = Config::from_args(
        argc, argv, {"nodes", "cpus_per_node", "workers", "shrink_to",
                     "expand_to"});
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n"
              << "usage: operator_demo [nodes=4] [cpus_per_node=16]\n"
              << "       [workers=8] [shrink_to=4] [expand_to=12]\n";
    return 2;
  }
  const int workers = cfg.get_int("workers", 8);
  const int shrink_to = cfg.get_int("shrink_to", 4);
  const int expand_to = cfg.get_int("expand_to", 12);

  k8s::Cluster cluster;
  cluster.add_nodes("node", cfg.get_int("nodes", 4),
                    {cfg.get_int("cpus_per_node", 16), 32768});
  k8s::ObjectStore<opk::CharmJob> jobs{cluster.sim()};
  opk::CharmJobController controller(cluster, jobs, {});

  // Watch pod transitions like `kubectl get pods -w`.
  cluster.pods().watch([&](k8s::WatchEvent event, const k8s::Pod& pod) {
    const char* verb = event == k8s::WatchEvent::kAdded      ? "ADDED   "
                       : event == k8s::WatchEvent::kModified ? "MODIFIED"
                                                             : "DELETED ";
    std::cout << "[t=" << format_double(cluster.sim().now(), 2) << "s] " << verb
              << " " << pod.meta.name << "  phase=" << to_string(pod.phase)
              << (pod.node_name.empty() ? "" : "  node=" + pod.node_name)
              << "\n";
  });

  std::cout << "--- kubectl apply -f charmjob.yaml (" << workers
            << " workers) ---\n";
  opk::CharmJob job;
  job.meta.name = "jacobi";
  job.desired_replicas = workers;
  job.phase = opk::CharmJobPhase::kLaunching;
  jobs.add(std::move(job));
  cluster.sim().run();

  std::cout << "\nnodelist: ";
  for (const auto& entry : jobs.get("jacobi").nodelist) std::cout << entry << " ";
  std::cout << "\n\n--- scale down to " << shrink_to
            << " workers (after the app acked) ---\n";
  jobs.mutate("jacobi",
              [shrink_to](opk::CharmJob& j) { j.desired_replicas = shrink_to; });
  cluster.sim().run();

  std::cout << "\n--- scale back up to " << expand_to << " workers ---\n";
  jobs.mutate("jacobi",
              [expand_to](opk::CharmJob& j) { j.desired_replicas = expand_to; });
  cluster.sim().run();

  std::cout << "\nnodelist now has " << jobs.get("jacobi").nodelist.size()
            << " entries; cluster uses " << cluster.used_cpus() << "/"
            << cluster.total_cpus() << " vCPUs\n";

  std::cout << "\n--- job completes: teardown ---\n";
  jobs.mutate("jacobi",
              [](opk::CharmJob& j) { j.phase = opk::CharmJobPhase::kCompleted; });
  cluster.sim().run();
  std::cout << "\ncluster uses " << cluster.used_cpus() << "/"
            << cluster.total_cpus() << " vCPUs; reconciles run: "
            << controller.reconcile_count() << "\n";
  return 0;
}
