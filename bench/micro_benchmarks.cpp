// google-benchmark micro-benchmarks for the substrate hot paths: DES event
// dispatch, minicharm message delivery, load-balancing strategies, the
// contention network model, PUP serialization, and the policy engine itself.

#include <benchmark/benchmark.h>

#include <numeric>

#include "apps/graph.hpp"
#include "charm/load_balancer.hpp"
#include "charm/pup.hpp"
#include "charm/runtime.hpp"
#include "net/network_model.hpp"
#include "common/piecewise_linear.hpp"
#include "common/rng.hpp"
#include "elastic/policy.hpp"
#include "k8s/cluster.hpp"
#include "schedsim/calibrate.hpp"
#include "schedsim/fault.hpp"
#include "schedsim/jobmix.hpp"
#include "schedsim/simulator.hpp"
#include "sim/simulation.hpp"
#include "trace/sources.hpp"

namespace {

using namespace ehpc;

void BM_SimulationEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventDispatch)->Arg(1000)->Arg(10000)->Arg(100000);

// Cancel-heavy (timeout/retry pattern): schedule a batch at staggered future
// times, cancel 7/8 of it, run the rest. Exercises generation tombstones and
// queue compaction; a persistent kernel pins steady-state slot recycling.
void BM_SimulationScheduleCancel(benchmark::State& state) {
  sim::Simulation sim;
  const int batch = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_at(sim.now() + 1.0 + i, [] {});
    }
    for (int i = 0; i < batch; ++i) {
      if (i % 8 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulationScheduleCancel)->Arg(1024)->Arg(16384);

// Classic hold model: N pending events in steady state; each operation pops
// the earliest event and schedules a replacement at a random future offset.
// Measures the queue at constant occupancy (no cold-start effects).
void BM_SimulationChurnHold(benchmark::State& state) {
  sim::Simulation sim;
  Rng rng(11);
  const int occupancy = static_cast<int>(state.range(0));
  for (int i = 0; i < occupancy; ++i) {
    sim.schedule_at(rng.uniform(0.0, 2.0), [] {});
  }
  for (auto _ : state) {
    sim.step();
    sim.schedule_at(sim.now() + rng.uniform(0.0, 2.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulationChurnHold)->Arg(256)->Arg(4096)->Arg(65536);

// Same-timestamp chains (zero-delay reconcile hops): drain a FIFO of events
// scheduled at exactly now(). Hits the bucket fast path, never the heap.
void BM_SimulationSameTimeChain(benchmark::State& state) {
  sim::Simulation sim;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) sim.schedule_now([] {});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulationSameTimeChain)->Arg(1000)->Arg(10000);

// Mixed timestamp distribution: ascending arrivals interleaved with random
// backfill (out-of-order, lands in the heap) and same-time events. The
// realistic blend across the bucket / sorted-run / heap lanes.
void BM_SimulationMixedTimestamps(benchmark::State& state) {
  sim::Simulation sim;
  Rng rng(23);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const double base = sim.now();
    for (int i = 0; i < n; ++i) {
      switch (i % 10) {
        case 3:
        case 7:  // backfill: behind the latest pending timestamp
          sim.schedule_at(base + rng.uniform(0.0, 0.1 * i), [] {});
          break;
        case 5:  // same-time chain
          sim.schedule_now([] {});
          break;
        default:  // in-order arrival
          sim.schedule_at(base + 0.1 * i, [] {});
      }
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulationMixedTimestamps)->Arg(1000)->Arg(10000);

// Short runs on a fresh kernel, the scheduler simulator's pattern: each of
// a sweep's thousands of runs builds its own Simulation and executes a few
// dozen events, so kernel construction and teardown weigh as much as
// dispatch. Mixes in-order arrivals, backfill and same-time events.
void BM_SimulationFreshShortRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < n; ++i) {
      switch (i % 6) {
        case 3:  // backfill: behind the latest pending timestamp
          sim.schedule_at(0.5 * i, [] {});
          break;
        case 5:  // same-time event
          sim.schedule_now([] {});
          break;
        default:  // in-order arrival
          sim.schedule_at(1.0 * i, [] {});
      }
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulationFreshShortRun)->Arg(48);

struct NopChare final : charm::Chare {
  void pup(charm::Pup&) override {}
};

void BM_RuntimeMessageDelivery(benchmark::State& state) {
  for (auto _ : state) {
    charm::RuntimeConfig cfg;
    cfg.num_pes = 16;
    charm::Runtime rt(cfg);
    auto array = rt.create_array("a", 64, [](charm::ElementId) {
      return std::make_unique<NopChare>();
    });
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      rt.send(array, i % 64, 64, [](charm::Chare&, charm::Runtime&) {});
    }
    benchmark::DoNotOptimize(rt.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RuntimeMessageDelivery)->Arg(1000)->Arg(10000);

void BM_LoadBalancer(benchmark::State& state, const char* name) {
  Rng rng(7);
  std::vector<charm::LbObject> objects;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    charm::LbObject o;
    o.elem = i;
    o.load = rng.uniform(0.1, 2.0);
    o.current_pe = static_cast<charm::PeId>(rng.uniform_int(0, 63));
    objects.push_back(o);
  }
  std::vector<charm::PeId> pes(32);
  std::iota(pes.begin(), pes.end(), 0);
  auto lb = charm::make_load_balancer(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb->assign(objects, pes));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_LoadBalancer, greedy, "greedy")->Arg(256)->Arg(4096);
BENCHMARK_CAPTURE(BM_LoadBalancer, refine, "refine")->Arg(256)->Arg(4096);

// CommRefineLB over a measured power-law comm graph: 64 objects on 32 PEs
// (4 per node), edges drawn towards low-index hubs, priced once from a
// fat-tree oversub-4 table as the runtime does each LB step. Items =
// objects placed.
void BM_CommRefineLb(benchmark::State& state) {
  constexpr int kObjects = 64;
  constexpr int kPesPerNode = 4;
  constexpr std::size_t kRefBytes = 65536;
  Rng rng(29);
  std::vector<charm::LbObject> objects;
  for (int i = 0; i < kObjects; ++i) {
    charm::LbObject o;
    o.elem = i;
    o.load = rng.uniform(0.1, 2.0);
    o.current_pe = static_cast<charm::PeId>(rng.uniform_int(0, 31));
    objects.push_back(o);
  }
  charm::LbCommGraph comm;
  for (int e = 0; e < 4 * kObjects; ++e) {
    const double u = rng.uniform(0.0, 1.0);
    comm.edges.push_back(
        {static_cast<int>(kObjects * u * u * u),
         static_cast<int>(rng.uniform_int(0, kObjects - 1)),
         rng.uniform(1.0e3, 1.0e6)});
  }
  std::vector<charm::PeId> pes(32);
  std::iota(pes.begin(), pes.end(), 0);
  const auto model = net::make_network_model("fattree", /*oversub=*/4.0);
  comm.set_prices(
      pes, [](charm::PeId pe) { return pe / kPesPerNode; },
      [&](int x, int y) {
        return model->message_time(kRefBytes, x, y) /
               static_cast<double>(kRefBytes);
      });
  const charm::CommRefineLb lb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.assign(objects, comm, pes));
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}
BENCHMARK(BM_CommRefineLb);

// Full graph superstep loop on minicharm: Chung-Lu generation, the scatter /
// inbox messaging, per-superstep reductions and periodic comm-aware LB over
// the fat-tree model. Items = vertex updates (vertices * iterations); the
// perf gate floors items_per_second.
void BM_GraphSuperstep(benchmark::State& state) {
  apps::GraphConfig config;
  config.vertices = static_cast<int>(state.range(0));
  config.parts = 32;
  config.skew = 0.9;
  config.max_iterations = 8;
  for (auto _ : state) {
    charm::RuntimeConfig rc;
    rc.num_pes = 16;
    rc.pes_per_node = 4;
    rc.load_balancer = "commrefine";
    rc.network = net::make_network_model("fattree", /*oversub=*/4.0);
    charm::Runtime rt(rc);
    apps::Graph app(rt, config);
    app.driver().set_lb_period(4);
    app.start();
    rt.run();
    benchmark::DoNotOptimize(app.active_last_iteration());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          config.max_iterations);
}
BENCHMARK(BM_GraphSuperstep)->Arg(1024)->Arg(4096);

// The per-message pricing hot path of the contention model: route lookup,
// per-link window sharing and the additive penalty, cycling through
// same-node / same-rack / cross-rack routes. Items = priced transfers.
void BM_TopologyMessageTime(benchmark::State& state) {
  net::ContentionConfig config{net::pod_network(),
                               net::Topology::fat_tree(8, /*oversub=*/4.0)};
  net::ContentionNetworkModel model(config);
  const std::pair<int, int> routes[] = {{0, 1}, {2, 19}, {5, 5}, {7, 42}};
  double now = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = routes[i++ % 4];
    benchmark::DoNotOptimize(model.begin_transfer(4096, src, dst, now));
    now += 1.0e-4;  // ~10 transfers share each 1 ms window
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyMessageTime);

struct BigChare final : charm::Chare {
  std::vector<double> data;
  void pup(charm::Pup& p) override { p | data; }
};

void BM_PupPackUnpack(benchmark::State& state) {
  BigChare a;
  a.data.assign(static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    std::vector<std::byte> buf;
    charm::Pup packer = charm::Pup::packer(buf);
    a.pup(packer);
    BigChare b;
    charm::Pup unpacker = charm::Pup::unpacker(buf);
    b.pup(unpacker);
    benchmark::DoNotOptimize(b.data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(sizeof(double)) * 2);
}
BENCHMARK(BM_PupPackUnpack)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_PiecewiseLinearEval(benchmark::State& state) {
  std::vector<std::pair<double, double>> pts;
  for (int i = 1; i <= 128; i *= 2) pts.emplace_back(i, 100.0 / i);
  PiecewiseLinear f(pts);
  double x = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.at(x));
    x = x < 120.0 ? x + 0.37 : 1.0;
  }
}
BENCHMARK(BM_PiecewiseLinearEval);

// End-to-end control-plane hot path: create N pending pods with affinity
// labels on a range(0)/16-node cluster and run the simulation until every
// pod is bound and running. Exercises the indexed placement (ClusterIndex
// score buckets + affinity candidates), batched watch delivery and the
// kubelet transitions — the loop that bench_fig_k8s_scale scales to 100k
// pods. Items = pods bound; the perf gate floors items_per_second.
void BM_K8sClusterSchedule(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int pods = nodes * 16;  // exactly fills the cluster at 1 cpu/pod
  for (auto _ : state) {
    k8s::Cluster cluster;
    cluster.add_nodes("node", nodes, {16, 32768});
    for (int i = 0; i < pods; ++i) {
      k8s::Pod pod;
      pod.meta.name = "job-" + std::to_string(i % 64) + "-worker-" +
                      std::to_string(i / 64);
      pod.meta.labels["job"] = "job-" + std::to_string(i % 64);
      pod.affinity_key = "job";
      pod.affinity_value = pod.meta.labels["job"];
      cluster.create_pod(pod);
    }
    cluster.sim().run();
    benchmark::DoNotOptimize(cluster.bound_cpus());
  }
  state.SetItemsProcessed(state.iterations() * pods);
}
BENCHMARK(BM_K8sClusterSchedule)->Arg(64)->Arg(512);

void BM_PolicyEngineSubmitComplete(benchmark::State& state) {
  for (auto _ : state) {
    elastic::PolicyConfig cfg;
    cfg.mode = elastic::PolicyMode::kElastic;
    cfg.rescale_gap_s = 0.0;
    elastic::PolicyEngine eng(64, cfg);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      elastic::JobSpec spec;
      spec.id = i;
      spec.min_replicas = 4;
      spec.max_replicas = 16;
      spec.priority = 1 + i % 5;
      eng.submit(spec, static_cast<double>(i));
    }
    for (int i = 0; i < n; ++i) {
      if (eng.job(i).running) eng.complete(i, 1000.0 + i);
    }
    benchmark::DoNotOptimize(eng.free_slots());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PolicyEngineSubmitComplete)->Arg(16)->Arg(128)->Arg(1024);

// End-to-end streaming replay hot path: N synthetic jobs with prun-style
// queue/task timeouts pulled lazily through SchedSimulator::run_stream,
// each finished job retiring to O(1) summaries (the loop bench_fig_trace
// scales to 1M jobs). Items = jobs replayed; the perf gate floors
// items_per_second.
void BM_TraceReplay(benchmark::State& state) {
  const long jobs = state.range(0);
  const auto workloads = schedsim::analytic_workloads();
  elastic::PolicyConfig cfg;
  cfg.mode = elastic::PolicyMode::kElastic;
  cfg.rescale_gap_s = 180.0;
  for (auto _ : state) {
    trace::SyntheticTraceConfig trace_cfg;
    trace_cfg.num_jobs = jobs;
    trace_cfg.submission_gap_s = 60.0;
    trace_cfg.seed = 2025;
    trace_cfg.defaults.queue_timeout_s = 3600.0;
    trace_cfg.defaults.task_timeout_s = 900.0;
    trace::SyntheticTraceSource source(trace_cfg);
    schedsim::SchedSimulator simulator(64, cfg, workloads);
    benchmark::DoNotOptimize(simulator.run_stream(source));
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_TraceReplay)->Arg(1000)->Arg(10000);

// Correlated-recovery hot path: a random mix on 64 slots split into four
// failure domains, with periodic disk checkpoints and a capped restore
// path. Every domain crash walks the slot-ownership map, rolls each
// resident job back to its last durable checkpoint and queues its restore
// through the shared-bandwidth storm model. Items = jobs simulated.
void BM_CorrelatedRecovery(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const auto workloads = schedsim::analytic_workloads();
  elastic::PolicyConfig cfg;
  cfg.mode = elastic::PolicyMode::kElastic;
  cfg.rescale_gap_s = 180.0;
  schedsim::FaultPlan plan;
  plan.domain_sizes = {16, 16, 16, 16};
  for (int i = 0; i < 8; ++i) {
    plan.domain_crashes.push_back({400.0 + 350.0 * i, i % 4});
  }
  plan.checkpoint_period_s = 300.0;
  plan.restore_bandwidth = 2.0;
  for (auto _ : state) {
    schedsim::JobMixGenerator generator(2025);
    const auto mix = generator.generate(jobs, 30.0);
    schedsim::SchedSimulator simulator(64, cfg, workloads);
    simulator.set_fault_plan(plan);
    benchmark::DoNotOptimize(simulator.run(mix));
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_CorrelatedRecovery)->Arg(16)->Arg(64);

}  // namespace
