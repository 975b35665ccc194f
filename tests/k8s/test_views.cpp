// ClusterIndex property battery: drive the node/pod stores through a long
// randomized mutation sequence and, after every operation, check each
// indexed query against a brute-force reference computed from the stores —
// including `best_node` against a literal reimplementation of the historical
// O(nodes × pods) placement scan whose semantics the index must match bit
// for bit.

#include "k8s/views.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "k8s/api.hpp"
#include "k8s/store.hpp"
#include "sim/simulation.hpp"

namespace ehpc::k8s {
namespace {

bool claims_resources(const Pod& pod) {
  return pod.phase != PodPhase::kSucceeded && pod.phase != PodPhase::kFailed;
}

/// The historical scheduler scan, verbatim: walk every node in name order,
/// recompute its allocation from every pod, score, keep the first strict
/// maximum.
std::string reference_best_node(const ObjectStore<Node>& nodes,
                                const ObjectStore<Pod>& pods, const Pod& pod,
                                bool prefer_packed, double affinity_weight) {
  std::string best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const Node* node : nodes.list()) {
    if (!node->ready) continue;
    Resources used;
    for (const Pod* p : pods.list()) {
      if (p->node_name == node->meta.name && claims_resources(*p)) {
        used = used + p->request;
      }
    }
    if (!(used + pod.request).fits_within(node->capacity)) continue;
    const double ratio =
        node->capacity.cpus > 0
            ? static_cast<double>(used.cpus) / node->capacity.cpus
            : 0.0;
    double score = prefer_packed ? ratio : -ratio;
    if (!pod.affinity_key.empty()) {
      int count = 0;
      for (const Pod* p : pods.list()) {
        auto it = p->meta.labels.find(pod.affinity_key);
        if (p->node_name == node->meta.name && it != p->meta.labels.end() &&
            it->second == pod.affinity_value) {
          ++count;
        }
      }
      score += affinity_weight * count /
               std::max(1, node->capacity.cpus);
    }
    if (score > best_score) {
      best_score = score;
      best = node->meta.name;
    }
  }
  return best;
}

/// Every label pair the battery hands out.
const std::vector<std::pair<std::string, std::string>> kLabelPairs = {
    {"job", "job-0"}, {"job", "job-1"}, {"job", "job-2"},
    {"tier", "a"},    {"tier", "b"},
};

struct Battery {
  sim::Simulation sim;  // watch delivery only; the index is a view
  ObjectStore<Node> nodes{sim};
  ObjectStore<Pod> pods{sim};

  void check(const ClusterIndex& index) const {
    int total = 0, used = 0, bound = 0;
    for (const Node* node : nodes.list()) {
      if (node->ready) total += node->capacity.cpus;
    }
    for (const Pod* pod : pods.list()) {
      if (!claims_resources(*pod)) continue;
      used += pod->request.cpus;
      if (!pod->node_name.empty()) bound += pod->request.cpus;
    }
    ASSERT_EQ(index.total_cpus(), total);
    ASSERT_EQ(index.used_cpus(), used);
    ASSERT_EQ(index.bound_cpus(), bound);

    for (const Node* node : nodes.list()) {
      Resources expect;
      for (const Pod* pod : pods.list()) {
        if (pod->node_name == node->meta.name && claims_resources(*pod)) {
          expect = expect + pod->request;
        }
      }
      const Resources got = index.used_on(node->meta.name);
      ASSERT_EQ(got.cpus, expect.cpus) << node->meta.name;
      ASSERT_EQ(got.memory_mib, expect.memory_mib) << node->meta.name;
    }

    for (const PodPhase phase :
         {PodPhase::kPending, PodPhase::kScheduled, PodPhase::kRunning,
          PodPhase::kSucceeded, PodPhase::kFailed, PodPhase::kTerminating}) {
      std::set<std::string> expect;
      for (const Pod* pod : pods.list()) {
        if (pod->phase == phase) expect.insert(pod->meta.name);
      }
      ASSERT_EQ(index.pods_in_phase(phase), expect) << to_string(phase);
    }

    for (const auto& [key, value] : kLabelPairs) {
      std::set<std::string> expect;
      for (const Pod* pod : pods.list()) {
        auto it = pod->meta.labels.find(key);
        if (it != pod->meta.labels.end() && it->second == value) {
          expect.insert(pod->meta.name);
        }
      }
      const auto& got = index.pods_with_label(key, value);
      std::set<std::string> names;
      for (const auto& [name, pod] : got) {
        names.insert(name);
        // The entry points at the store's own element, not at a copy.
        ASSERT_TRUE(pods.contains(name)) << name;
        ASSERT_EQ(pod, &pods.get(name)) << key << "=" << value << " " << name;
      }
      ASSERT_EQ(names, expect) << key << "=" << value;

      // Affinity counts: bound pods of any phase carrying the pair.
      for (const Node* node : nodes.list()) {
        int colocated = 0;
        for (const std::string& name : expect) {
          if (pods.get(name).node_name == node->meta.name) ++colocated;
        }
        ASSERT_EQ(index.colocated(node->meta.name, key, value), colocated)
            << node->meta.name << " " << key << "=" << value;
      }
    }
  }

  void check_placement(const ClusterIndex& index, Rng& rng) const {
    Pod probe;
    probe.meta.name = "probe";
    probe.request = {static_cast<int>(rng.uniform_int(0, 3)), 256};
    for (const bool with_affinity : {false, true}) {
      if (with_affinity) {
        const auto& [key, value] = kLabelPairs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kLabelPairs.size()) - 1))];
        probe.affinity_key = key;
        probe.affinity_value = value;
      }
      for (const bool packed : {false, true}) {
        ASSERT_EQ(index.best_node(probe, packed, 0.5),
                  reference_best_node(nodes, pods, probe, packed, 0.5))
            << "packed=" << packed << " affinity=" << with_affinity
            << " cpus=" << probe.request.cpus;
      }
    }
  }
};

TEST(ClusterIndex, MatchesBruteForceUnderRandomMutations) {
  Battery b;
  ClusterIndex index(b.nodes, b.pods);
  Rng rng(20250807);
  int pod_counter = 0;
  // How often each delta-only mutation actually changed something.
  int relabels = 0, request_changes = 0, node_moves = 0, unbinds = 0,
      unbound_claim_flips = 0;

  for (int step = 0; step < 1200; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 13));
    const auto node_names = b.nodes.list();
    const auto pod_names = b.pods.list();
    const auto random_pod = [&]() -> const Pod& {
      return *pod_names[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(pod_names.size()) - 1))];
    };
    switch (op) {
      case 0: {  // add a node
        Node node;
        node.meta.name = "node-" + std::to_string(rng.uniform_int(0, 11));
        if (b.nodes.contains(node.meta.name)) break;
        node.capacity = {static_cast<int>(rng.uniform_int(2, 8)), 4096};
        node.ready = rng.uniform_int(0, 3) > 0;
        b.nodes.add(node);
        break;
      }
      case 1: {  // flip readiness
        if (node_names.empty()) break;
        const std::string name =
            node_names[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(node_names.size()) - 1))]->meta.name;
        b.nodes.mutate(name, [](Node& n) { n.ready = !n.ready; });
        break;
      }
      case 2: {  // remove a node (pods bound to it become orphans)
        if (node_names.empty()) break;
        b.nodes.remove(
            node_names[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(node_names.size()) - 1))]->meta.name);
        break;
      }
      case 3:
      case 4: {  // create a pod, sometimes labeled/affine
        Pod pod;
        pod.meta.name = "pod-" + std::to_string(pod_counter++);
        pod.request = {static_cast<int>(rng.uniform_int(0, 3)), 256};
        if (rng.uniform_int(0, 2) > 0) {
          pod.meta.labels["job"] =
              "job-" + std::to_string(rng.uniform_int(0, 2));
        }
        if (rng.uniform_int(0, 1) > 0) pod.meta.labels["tier"] = "a";
        b.pods.add(pod);
        break;
      }
      case 5:
      case 6: {  // bind a pending pod to a random (possibly absent) node
        if (pod_names.empty()) break;
        const Pod* pod =
            pod_names[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pod_names.size()) - 1))];
        if (!pod->node_name.empty()) break;
        const std::string target =
            "node-" + std::to_string(rng.uniform_int(0, 11));
        b.pods.mutate(pod->meta.name, [&](Pod& p) {
          p.node_name = target;
          p.phase = PodPhase::kScheduled;
        });
        break;
      }
      case 7: {  // advance a pod's phase
        if (pod_names.empty()) break;
        const std::string name =
            pod_names[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pod_names.size()) - 1))]->meta.name;
        const auto phase = static_cast<PodPhase>(rng.uniform_int(0, 5));
        b.pods.mutate(name, [&](Pod& p) { p.phase = phase; });
        break;
      }
      case 8: {  // delete a pod
        if (pod_names.empty()) break;
        b.pods.remove(
            pod_names[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pod_names.size()) - 1))]->meta.name);
        break;
      }
      case 9: {  // relabel a pod through update(): the job, the tier or both
        if (pod_names.empty()) break;
        Pod pod = random_pod();
        const auto labels = pod.meta.labels;
        const int job = static_cast<int>(rng.uniform_int(0, 3));
        if (job == 3) {
          pod.meta.labels.erase("job");
        } else {
          pod.meta.labels["job"] = "job-" + std::to_string(job);
        }
        const int tier = static_cast<int>(rng.uniform_int(0, 2));
        if (tier == 2) {
          pod.meta.labels.erase("tier");
        } else {
          pod.meta.labels["tier"] = tier == 0 ? "a" : "b";
        }
        if (pod.meta.labels != labels) ++relabels;
        b.pods.update(pod);
        break;
      }
      case 10: {  // change a pod's request (CPUs, memory or both)
        if (pod_names.empty()) break;
        const Pod& pod = random_pod();
        const Resources request{static_cast<int>(rng.uniform_int(0, 3)),
                                rng.uniform_int(0, 1) > 0 ? 256 : 512};
        if (!(request == pod.request)) ++request_changes;
        b.pods.mutate(pod.meta.name, [&](Pod& p) { p.request = request; });
        break;
      }
      case 11: {  // move a bound pod to another (possibly absent) node, or
                 // unbind it; the phase stays
        if (pod_names.empty()) break;
        const Pod& pod = random_pod();
        if (pod.node_name.empty()) break;
        const std::string node =
            rng.uniform_int(0, 3) == 0
                ? ""
                : "node-" + std::to_string(rng.uniform_int(0, 11));
        if (node.empty()) {
          ++unbinds;
        } else if (node != pod.node_name) {
          ++node_moves;
        }
        b.pods.mutate(pod.meta.name, [&](Pod& p) { p.node_name = node; });
        break;
      }
      case 12: {  // move an unbound pod between claiming and finished phases
        if (pod_names.empty()) break;
        const Pod& pod = random_pod();
        if (!pod.node_name.empty()) break;
        const PodPhase phase =
            claims_resources(pod)
                ? (rng.uniform_int(0, 1) > 0 ? PodPhase::kSucceeded
                                             : PodPhase::kFailed)
                : (rng.uniform_int(0, 1) > 0 ? PodPhase::kPending
                                             : PodPhase::kTerminating);
        ++unbound_claim_flips;
        b.pods.mutate(pod.meta.name, [&](Pod& p) { p.phase = phase; });
        break;
      }
      default: {  // update a node's capacity wholesale
        if (node_names.empty()) break;
        Node node = *node_names[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(node_names.size()) - 1))];
        node.capacity.cpus = static_cast<int>(rng.uniform_int(2, 8));
        b.nodes.update(node);
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(b.check(index)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(b.check_placement(index, rng)) << "step " << step;
  }
  // The battery must actually have exercised placement and every delta
  // case.
  EXPECT_GT(index.stats().placement_queries, 0);
  EXPECT_GT(relabels, 0);
  EXPECT_GT(request_changes, 0);
  EXPECT_GT(node_moves, 0);
  EXPECT_GT(unbinds, 0);
  EXPECT_GT(unbound_claim_flips, 0);
}

TEST(ClusterIndex, BootstrapsFromNonEmptyStores) {
  Battery b;
  Node node;
  node.meta.name = "node-0";
  node.capacity = {16, 32768};
  node.ready = true;
  b.nodes.add(node);
  Pod pod;
  pod.meta.name = "pod-0";
  pod.request = {4, 1024};
  pod.node_name = "node-0";
  pod.phase = PodPhase::kRunning;
  pod.meta.labels["job"] = "job-1";
  b.pods.add(pod);

  ClusterIndex index(b.nodes, b.pods);
  EXPECT_EQ(index.total_cpus(), 16);
  EXPECT_EQ(index.used_cpus(), 4);
  EXPECT_EQ(index.bound_cpus(), 4);
  EXPECT_EQ(index.used_on("node-0").cpus, 4);
  EXPECT_EQ(index.colocated("node-0", "job", "job-1"), 1);
  b.check(index);
}

TEST(ClusterIndex, PlacementCostIsSubLinearInNodes) {
  // 1 pending pod on N idle nodes: the bucket walk touches one node, not N.
  Battery b;
  for (int i = 0; i < 1000; ++i) {
    Node node;
    node.meta.name = "node-" + std::to_string(i);
    node.capacity = {16, 32768};
    node.ready = true;
    b.nodes.add(node);
  }
  ClusterIndex index(b.nodes, b.pods);
  Pod probe;
  probe.meta.name = "probe";
  probe.request = {1, 256};
  EXPECT_FALSE(index.best_node(probe, true, 0.5).empty());
  EXPECT_EQ(index.stats().placement_queries, 1);
  EXPECT_EQ(index.stats().nodes_examined, 1);
}

}  // namespace
}  // namespace ehpc::k8s
