#include "charm/load_balancer.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>

#include "common/error.hpp"

namespace ehpc::charm {

namespace {

// Min-heap of (load, pe) so we can always pick the least-loaded PE.
using PeHeapEntry = std::pair<double, PeId>;
using PeHeap =
    std::priority_queue<PeHeapEntry, std::vector<PeHeapEntry>, std::greater<>>;

bool contains(const std::vector<PeId>& pes, PeId pe) {
  return std::binary_search(pes.begin(), pes.end(), pe);
}

}  // namespace

LbAssignment NullLb::assign(const std::vector<LbObject>& objects,
                            const std::vector<PeId>& available_pes) const {
  EHPC_EXPECTS(!available_pes.empty());
  // Accumulate loads of objects that can stay put.
  std::map<PeId, double> pe_load;
  for (PeId pe : available_pes) pe_load[pe] = 0.0;
  for (const auto& obj : objects) {
    if (contains(available_pes, obj.current_pe)) pe_load[obj.current_pe] += obj.load;
  }
  LbAssignment out;
  out.reserve(objects.size());
  for (const auto& obj : objects) {
    if (contains(available_pes, obj.current_pe)) {
      out.push_back(obj.current_pe);
    } else {
      auto it = std::min_element(
          pe_load.begin(), pe_load.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      it->second += obj.load;
      out.push_back(it->first);
    }
  }
  return out;
}

LbAssignment GreedyLb::assign(const std::vector<LbObject>& objects,
                              const std::vector<PeId>& available_pes) const {
  EHPC_EXPECTS(!available_pes.empty());
  std::vector<std::size_t> order(objects.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return objects[a].load > objects[b].load;
  });
  PeHeap heap;
  for (PeId pe : available_pes) heap.push({0.0, pe});
  LbAssignment out(objects.size(), available_pes.front());
  for (std::size_t idx : order) {
    auto [load, pe] = heap.top();
    heap.pop();
    out[idx] = pe;
    heap.push({load + objects[idx].load, pe});
  }
  return out;
}

LbAssignment RefineLb::assign(const std::vector<LbObject>& objects,
                              const std::vector<PeId>& available_pes) const {
  EHPC_EXPECTS(!available_pes.empty());

  // Start from current placement; objects on unavailable PEs are homeless.
  std::map<PeId, double> pe_load;
  std::map<PeId, std::vector<std::size_t>> pe_objects;
  for (PeId pe : available_pes) {
    pe_load[pe] = 0.0;
    pe_objects[pe] = {};
  }
  LbAssignment out(objects.size(), available_pes.front());
  std::vector<std::size_t> homeless;
  double total_load = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    total_load += objects[i].load;
    if (contains(available_pes, objects[i].current_pe)) {
      out[i] = objects[i].current_pe;
      pe_load[objects[i].current_pe] += objects[i].load;
      pe_objects[objects[i].current_pe].push_back(i);
    } else {
      homeless.push_back(i);
    }
  }
  // Place homeless objects (heaviest first) on the least-loaded PE.
  std::stable_sort(homeless.begin(), homeless.end(), [&](std::size_t a, std::size_t b) {
    return objects[a].load > objects[b].load;
  });
  for (std::size_t i : homeless) {
    auto it = std::min_element(
        pe_load.begin(), pe_load.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    out[i] = it->first;
    it->second += objects[i].load;
    pe_objects[it->first].push_back(i);
  }

  const double avg = total_load / static_cast<double>(available_pes.size());
  if (avg <= 0.0) return out;

  // Iteratively move the best-fitting object off the most overloaded PE.
  // Bounded by the object count to guarantee termination.
  for (std::size_t pass = 0; pass < objects.size(); ++pass) {
    auto heaviest = std::max_element(
        pe_load.begin(), pe_load.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (heaviest->second <= avg * tolerance_) break;
    auto lightest = std::min_element(
        pe_load.begin(), pe_load.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (heaviest->first == lightest->first) break;

    // Pick the largest object on the overloaded PE that fits under the
    // average on the underloaded PE; fall back to the lightest object.
    auto& candidates = pe_objects[heaviest->first];
    if (candidates.empty()) break;
    std::size_t best = candidates.front();
    double best_load = -1.0;
    for (std::size_t i : candidates) {
      const double l = objects[i].load;
      if (lightest->second + l <= avg * tolerance_ && l > best_load) {
        best = i;
        best_load = l;
      }
    }
    if (best_load < 0.0) {
      // Nothing fits cleanly; move the lightest object to make progress.
      best = *std::min_element(candidates.begin(), candidates.end(),
                               [&](std::size_t a, std::size_t b) {
                                 return objects[a].load < objects[b].load;
                               });
      if (lightest->second + objects[best].load >= heaviest->second) break;
    }
    candidates.erase(std::find(candidates.begin(), candidates.end(), best));
    pe_load[heaviest->first] -= objects[best].load;
    pe_load[lightest->first] += objects[best].load;
    pe_objects[lightest->first].push_back(best);
    out[best] = lightest->first;
  }
  return out;
}

LbAssignment CommRefineLb::assign(const std::vector<LbObject>& objects,
                                  const std::vector<PeId>& available_pes) const {
  // No measured communication: behave like RefineLB (migration-averse
  // compute balancing), so the strategy is safe on comm-free apps.
  return RefineLb(tolerance_).assign(objects, available_pes);
}

LbAssignment CommRefineLb::assign(const std::vector<LbObject>& objects,
                                  const LbCommGraph& comm,
                                  const std::vector<PeId>& available_pes) const {
  EHPC_EXPECTS(!available_pes.empty());
  if (comm.empty()) return assign(objects, available_pes);
  // The price table must cover every PE a move can name.
  EHPC_EXPECTS(comm.pe_node.size() >
               static_cast<std::size_t>(available_pes.back()));
  for (PeId pe : available_pes) {
    EHPC_EXPECTS(comm.pe_node[static_cast<std::size_t>(pe)] >= 0);
  }

  // Seed with the best compute balance, then spend the tolerance headroom
  // on traffic locality.
  LbAssignment out = GreedyLb().assign(objects, available_pes);

  // Indexed by PeId: the candidate loop below reads it for every candidate.
  std::vector<double> pe_load(
      static_cast<std::size_t>(available_pes.back()) + 1, 0.0);
  double total_load = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    pe_load[static_cast<std::size_t>(out[i])] += objects[i].load;
    total_load += objects[i].load;
  }
  const double cap =
      tolerance_ * total_load / static_cast<double>(available_pes.size());

  // Adjacency lists plus per-object total adjacent traffic.
  std::vector<std::vector<std::pair<int, double>>> adj(objects.size());
  std::vector<double> adjacent_bytes(objects.size(), 0.0);
  for (const auto& e : comm.edges) {
    EHPC_EXPECTS(e.a >= 0 && static_cast<std::size_t>(e.a) < objects.size());
    EHPC_EXPECTS(e.b >= 0 && static_cast<std::size_t>(e.b) < objects.size());
    if (e.a == e.b || e.bytes <= 0.0) continue;
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.bytes});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.bytes});
    adjacent_bytes[static_cast<std::size_t>(e.a)] += e.bytes;
    adjacent_bytes[static_cast<std::size_t>(e.b)] += e.bytes;
  }

  // Refine hottest talkers first: hub parts have the most traffic at stake.
  std::vector<std::size_t> order(objects.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return adjacent_bytes[a] > adjacent_bytes[b];
  });

  const auto comm_cost = [&](std::size_t i, PeId pe) {
    double cost = 0.0;
    for (const auto& [j, bytes] : adj[i]) {
      cost += bytes * comm.byte_cost(pe, out[static_cast<std::size_t>(j)]);
    }
    return cost;
  };

  // Each accepted move strictly lowers the total cut cost, so the loop
  // terminates; the pass bound just caps worst-case work.
  constexpr int kMaxPasses = 8;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    for (std::size_t i : order) {
      if (adj[i].empty()) continue;
      const PeId from = out[i];
      double best_cost = comm_cost(i, from);
      PeId best_pe = from;
      for (PeId pe : available_pes) {
        if (pe == from) continue;
        if (pe_load[static_cast<std::size_t>(pe)] + objects[i].load > cap) {
          continue;
        }
        const double cost = comm_cost(i, pe);
        if (cost < best_cost) {
          best_cost = cost;
          best_pe = pe;
        }
      }
      if (best_pe != from) {
        pe_load[static_cast<std::size_t>(from)] -= objects[i].load;
        pe_load[static_cast<std::size_t>(best_pe)] += objects[i].load;
        out[i] = best_pe;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return out;
}

std::unique_ptr<LoadBalancer> make_load_balancer(const std::string& name) {
  if (name == "null") return std::make_unique<NullLb>();
  if (name == "greedy") return std::make_unique<GreedyLb>();
  if (name == "refine") return std::make_unique<RefineLb>();
  if (name == "commrefine") return std::make_unique<CommRefineLb>();
  throw PreconditionError("unknown load balancer: " + name);
}

const std::vector<std::string>& load_balancer_names() {
  // Appended-only: ablations index into this list, so existing indices are
  // stable across additions.
  static const std::vector<std::string> kNames{"null", "greedy", "refine",
                                               "commrefine"};
  return kNames;
}

LbAssignment run_strategy(const LoadBalancer& strategy,
                          const std::vector<LbObject>& objects,
                          const std::vector<PeId>& available_pes,
                          LbStepStats* stats) {
  return run_strategy(strategy, objects, LbCommGraph{}, available_pes, stats);
}

LbAssignment run_strategy(const LoadBalancer& strategy,
                          const std::vector<LbObject>& objects,
                          const LbCommGraph& comm,
                          const std::vector<PeId>& available_pes,
                          LbStepStats* stats) {
  EHPC_EXPECTS(!available_pes.empty());

  // Current placement and its legality under the available set.
  LbAssignment current;
  current.reserve(objects.size());
  bool current_legal = true;
  std::vector<PeId> hosting;  // sorted unique PEs currently hosting objects
  for (const auto& obj : objects) {
    current.push_back(obj.current_pe);
    hosting.push_back(obj.current_pe);
    if (!contains(available_pes, obj.current_pe)) current_legal = false;
  }
  std::sort(hosting.begin(), hosting.end());
  hosting.erase(std::unique(hosting.begin(), hosting.end()), hosting.end());

  const bool comm_driven = strategy.comm_aware() && !comm.empty();
  LbAssignment proposal = comm_driven
                              ? strategy.assign(objects, comm, available_pes)
                              : strategy.assign(objects, available_pes);
  EHPC_ENSURES(proposal.size() == objects.size());

  // Pre-LB ratio over the available set whenever the current placement is
  // legal there (so pre and post are directly comparable); only during a
  // rescale, where objects sit on vanishing PEs, fall back to the PEs that
  // actually host them.
  const double pre_ratio =
      current_legal
          ? (objects.empty() ? 1.0
                             : load_imbalance(objects, current, available_pes))
          : (hosting.empty() ? 1.0 : load_imbalance(objects, current, hosting));
  // Never-worse guard: compare both placements over the same PE set. A
  // comm-driven proposal is exempt — it intentionally trades (bounded,
  // self-tolerated) compute imbalance for cut-traffic reduction, which the
  // compute-only ratio cannot value.
  if (!comm_driven && current_legal && !objects.empty() &&
      load_imbalance(objects, proposal, available_pes) > pre_ratio) {
    proposal = current;
  }

  if (stats != nullptr) {
    stats->strategy = strategy.name();
    // Clamp: max/avg is mathematically >= 1 but can dip below by an ulp.
    stats->pre_ratio = std::max(1.0, pre_ratio);
    stats->post_ratio =
        objects.empty()
            ? 1.0
            : std::max(1.0, load_imbalance(objects, proposal, available_pes));
    stats->objects = static_cast<int>(objects.size());
    stats->migrated = 0;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      if (proposal[i] != objects[i].current_pe) ++stats->migrated;
    }
  }
  return proposal;
}

double load_imbalance(const std::vector<LbObject>& objects,
                      const LbAssignment& assignment,
                      const std::vector<PeId>& available_pes) {
  EHPC_EXPECTS(assignment.size() == objects.size());
  EHPC_EXPECTS(!available_pes.empty());
  std::map<PeId, double> pe_load;
  for (PeId pe : available_pes) pe_load[pe] = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    pe_load.at(assignment[i]) += objects[i].load;
    total += objects[i].load;
  }
  const double avg = total / static_cast<double>(available_pes.size());
  if (avg <= 0.0) return 1.0;
  double max_load = 0.0;
  for (const auto& [pe, load] : pe_load) max_load = std::max(max_load, load);
  return max_load / avg;
}

}  // namespace ehpc::charm
