// Repository benchmark. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--reference <file>]
//   perfbench --record-reference <file>
//   perfbench --selftest
//
// One run sets the workload up several times (median = setup_s), repeats
// untraced passes until `--seconds` have elapsed, then runs traced passes
// that wrap the program's seams with the probes in probes.hpp. Every
// operation's outputs are checked; the last line of stdout is one JSON
// object with `correct`, `attempted`, `failed` and `metrics`.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The seed whose outputs reference.txt records.
constexpr unsigned kReferenceSeed = 2025;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< deterministic count: repeats bit for bit
};

struct RunConfig {
  std::string workload;
  unsigned seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  /// Expected per-group outputs at kReferenceSeed, keyed
  /// "<workload>/<group>/<value>"; empty = no reference check.
  std::map<std::string, double> reference;
};

struct RunReport {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Headline> headlines;
  std::string item;  ///< what work_per_s counts (jobs, pods, supersteps)
  /// Per-group means of the first pass, keyed like RunConfig::reference.
  std::map<std::string, double> outputs;
  std::vector<std::string> notes;
};

std::uint64_t hash_values(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the bytes
  for (const double v : values) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Items of one pass per second of the per-operation fastest times; 0 if an
/// operation never completed.
double best_rate(const std::vector<double>& items,
                 const std::vector<double>& fastest_s) {
  double total_items = 0.0;
  double total_s = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!std::isfinite(fastest_s[i])) return 0.0;
    total_items += items[i];
    total_s += fastest_s[i];
  }
  return ratio(total_items, total_s);
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so a large launcher does not mask it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Set the workload up repeatedly. Each sample repeats setup until it has
/// run for at least 20 ms, so sub-millisecond setups are timed as a mean
/// over many calls; setup_s is the median sample.
void measure_setup(Workload& wl, unsigned seed, double& setup_s,
                   double& calibrate_s) {
  constexpr int kSamples = 7;
  std::vector<double> setup, calibrate;
  for (int s = 0; s < kSamples; ++s) {
    const Clock::time_point start = Clock::now();
    int reps = 0;
    double cal = 0.0;
    do {
      wl.setup(seed);
      cal += wl.calibrate_s();
      ++reps;
    } while (seconds_since(start) < 0.02);
    setup.push_back(seconds_since(start) / reps);
    calibrate.push_back(cal / reps);
  }
  setup_s = median(setup);
  calibrate_s = median(calibrate);
}

RunReport run_benchmark(const RunConfig& cfg) {
  RunReport rep;
  const auto wl = make_workload(cfg.workload, cfg.small);
  double setup_s = 0.0;
  double calibrate_s = 0.0;
  measure_setup(*wl, cfg.seed, setup_s, calibrate_s);

  const std::size_t n = wl->pass_size();
  const std::size_t values = wl->value_names().size();
  const auto fail = [&rep](const std::string& why) {
    ++rep.failed;
    if (rep.notes.size() < 20) rep.notes.push_back(why);
  };

  // A traced run splits its time between untraced and traced passes.
  const double window_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;

  // ---- untraced passes: throughput, determinism, reference check ----
  std::vector<std::optional<std::uint64_t>> first_hash(n);
  std::vector<std::vector<double>> sums(wl->num_groups(),
                                        std::vector<double>(values, 0.0));
  std::vector<long> counts(wl->num_groups(), 0);
  std::vector<bool> bad_group(wl->num_groups(), false);
  // Every operation is deterministic, so its cost is fixed; on a shared
  // host, whatever a run adds to it comes from other tenants. Throughput is
  // therefore one pass's items over the sum of each operation's fastest
  // observed host time.
  std::vector<double> items(n, 0.0);
  std::vector<double> fastest_s(n, std::numeric_limits<double>::infinity());
  int passes = 0;  // complete passes
  const Clock::time_point measure_start = Clock::now();
  for (bool done = false; !done;) {
    for (std::size_t i = 0; i < n; ++i) {
      if (passes > 0 && seconds_since(measure_start) >= window_s) {
        done = true;
        break;
      }
      const std::size_t g = wl->group_of(i);
      ++rep.attempted;
      try {
        const Op op = wl->run(i, nullptr);
        items[i] = op.items;
        fastest_s[i] = std::min(fastest_s[i], op.host_s);
        const std::uint64_t h = hash_values(op.values);
        if (passes == 0) {
          first_hash[i] = h;
          for (std::size_t v = 0; v < values; ++v) sums[g][v] += op.values[v];
          ++counts[g];
        } else if (!first_hash[i] || *first_hash[i] != h) {
          fail("op " + std::to_string(i) + " changed between passes");
        } else if (bad_group[g]) {
          ++rep.failed;  // same outputs as a pass-0 op that missed its reference
        }
      } catch (const std::exception& e) {
        fail("op " + std::to_string(i) + " threw: " + e.what());
        bad_group[g] = true;
      }
    }
    if (done) break;
    if (passes++ > 0) continue;  // only the first pass has group checks

    // First pass complete: per-group means, checked against the reference.
    std::vector<std::vector<double>> means(wl->num_groups());
    for (std::size_t g = 0; g < means.size(); ++g) {
      for (std::size_t v = 0; v < values; ++v) {
        // Sum-then-divide in op order, as elastic::average_metrics does.
        means[g].push_back(counts[g] > 0
                               ? sums[g][v] / static_cast<double>(counts[g])
                               : 0.0);
        const std::string key = cfg.workload + "/" + wl->group_name(g) + "/" +
                                wl->value_names()[v];
        rep.outputs[key] = means[g][v];
        if (cfg.reference.empty()) continue;
        const auto it = cfg.reference.find(key);
        if (it == cfg.reference.end() || it->second != means[g][v]) {
          if (!bad_group[g] && rep.notes.size() < 20) {
            rep.notes.push_back("reference mismatch: " + key);
          }
          bad_group[g] = true;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (bad_group[wl->group_of(i)] && first_hash[i]) ++rep.failed;
    }
    rep.headlines = wl->headlines(means);
  }
  const double untraced_per_s = best_rate(items, fastest_s);
  const double rss_mb = peak_rss_mb();

  // ---- traced passes: per-layer numbers; observation must not change any
  // output, the engine replay must agree, and exact counters must repeat.
  std::vector<std::optional<std::uint64_t>> counter_hash(n);
  Layers layers;
  std::vector<double> traced_fastest_s(
      n, std::numeric_limits<double>::infinity());
  int traced_passes = 0;
  const Clock::time_point traced_start = Clock::now();
  do {
    for (std::size_t i = 0; i < n; ++i) {
      ++rep.attempted;
      try {
        const Op op = wl->run(i, &layers);
        traced_fastest_s[i] = std::min(traced_fastest_s[i], op.host_s);
        const std::uint64_t ch = hash_values(op.counters);
        if (!first_hash[i] || *first_hash[i] != hash_values(op.values)) {
          fail("op " + std::to_string(i) + " traced output differs");
        } else if (op.mismatches != 0) {
          fail("op " + std::to_string(i) + ": " +
               std::to_string(op.mismatches) + " engine replay mismatches");
        } else if (traced_passes > 0 && counter_hash[i] != ch) {
          fail("op " + std::to_string(i) + " exact counters changed");
        } else if (bad_group[wl->group_of(i)]) {
          ++rep.failed;
        }
        if (traced_passes == 0) counter_hash[i] = ch;
      } catch (const std::exception& e) {
        fail("op " + std::to_string(i) + " threw when traced: " + e.what());
      }
    }
    ++traced_passes;
  } while (cfg.trace && (traced_passes < 2 ||
                         seconds_since(traced_start) < window_s));

  rep.correct = rep.failed == 0;
  const double traced_per_s = best_rate(items, traced_fastest_s);
  rep.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"work_per_s", untraced_per_s, "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  // Per-layer numbers are per pass: counts are exact, times are means.
  const double p = traced_passes;
  const Layers& L = layers;
  const double host_run_s = L.sched_run_s + L.opk_run_s + L.charm_run_s;
  rep.per_layer = {
      {"elastic.decisions", L.decisions / p, "count", true},
      {"elastic.decide_s", L.decide_s / p, "s"},
      {"elastic.decide_us_p50", percentile(L.decide_us, 0.50), "us"},
      {"elastic.decide_us_p99", percentile(L.decide_us, 0.99), "us"},
      {"elastic.jobs_scanned_per_decision",
       ratio(static_cast<double>(L.jobs_scanned), L.decisions), "count", true},
      {"elastic.replay_mismatches", L.replay_mismatches / p, "count", true},
      {"elastic.share", ratio(L.decide_s, host_run_s), "fraction"},
      {"schedsim.runs", L.sched_runs / p, "count", true},
      {"schedsim.run_s", L.sched_run_s / p, "s"},
      {"schedsim.run_ms_p50", percentile(L.sched_run_ms, 0.50), "ms"},
      {"schedsim.run_ms_p99", percentile(L.sched_run_ms, 0.99), "ms"},
      {"schedsim.jobs_retired", L.jobs_retired / p, "count", true},
      {"schedsim.peak_live_jobs", static_cast<double>(L.peak_live_jobs),
       "count", true},
      {"trace.records", L.trace_records / p, "count", true},
      {"trace.pull_s", L.trace_pull_s / p, "s"},
      {"trace.share", ratio(L.trace_pull_s, L.sched_run_s), "fraction"},
      {"k8s.pods_bound", L.pods_bound / p, "count", true},
      {"k8s.bind_attempts", L.bind_attempts / p, "count", true},
      {"k8s.retry_sweeps", L.retry_sweeps / p, "count", true},
      {"k8s.nodes_examined_per_bind",
       ratio(static_cast<double>(L.nodes_examined), L.pods_bound), "count",
       true},
      {"k8s.pod_mutations", L.pod_mutations / p, "count", true},
      {"opk.run_s", L.opk_run_s / p, "s"},
      {"opk.rescales", L.opk_rescales / p, "count", true},
      {"charm.run_s", L.charm_run_s / p, "s"},
      {"charm.lb_steps", L.lb_steps / p, "count", true},
      {"charm.migrations_per_lb_step",
       ratio(static_cast<double>(L.lb_migrations), L.lb_steps), "count",
       true},
      {"net.calls", L.net_calls / p, "count", true},
      {"net.s", L.net_s / p, "s"},
      {"net.share", ratio(L.net_s, L.charm_run_s), "fraction"},
      {"apps.calibrate_s", calibrate_s, "s"},
      {"sim.events", L.sim_events / p, "count", true},
      {"sim.events_per_s",
       ratio(static_cast<double>(L.sim_events), L.opk_run_s + L.charm_run_s),
       "1/s"},
      {"overhead.untraced_per_s", untraced_per_s, "1/s"},
      {"overhead.traced_per_s", traced_per_s, "1/s"},
      {"overhead.pct", 100.0 * ratio(untraced_per_s - traced_per_s,
                                     untraced_per_s),
       "%"},
  };
  rep.item = wl->item();
  rep.notes.insert(rep.notes.begin(),
                   std::to_string(passes) + " untraced passes, " +
                       std::to_string(traced_passes) + " traced passes of " +
                       std::to_string(n) + " ops; work items are " +
                       wl->item());
  return rep;
}

// ---- reference file: "seed <n>" then "<key> <hex float>" lines ----

std::map<std::string, double> read_reference(const std::string& path,
                                             unsigned& seed) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  std::string value;
  while (in >> key >> value) {
    if (key == "seed") {
      seed = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      out[key] = std::strtod(value.c_str(), nullptr);
    }
  }
  return out;
}

bool write_reference(const std::string& path,
                     const std::map<std::string, double>& outputs) {
  std::ofstream out(path);
  out << "seed " << kReferenceSeed << "\n";
  char buf[64];
  for (const auto& [key, v] : outputs) {
    std::snprintf(buf, sizeof buf, "%a", v);
    out << key << " " << buf << "\n";
  }
  return static_cast<bool>(out);
}

/// Record every workload's first-pass outputs at the reference seed.
int record_reference(const std::string& path) {
  std::map<std::string, double> outputs;
  for (const std::string& name : workload_names()) {
    RunConfig cfg;
    cfg.workload = name;
    cfg.seconds = 0.0;
    const RunReport rep = run_benchmark(cfg);
    if (!rep.correct) {
      std::fprintf(stderr, "perfbench: %s failed; reference not recorded\n",
                   name.c_str());
      return 1;
    }
    outputs.insert(rep.outputs.begin(), rep.outputs.end());
  }
  return write_reference(path, outputs) ? 0 : 1;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const RunConfig& cfg, const RunReport& rep) {
  const auto& metrics = cfg.trace ? rep.per_layer : rep.end_to_end;
  std::printf("# workload %s seed %u seconds %g trace %d\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);
  for (const std::string& note : rep.notes) std::printf("# %s\n", note.c_str());
  for (const Headline& h : rep.headlines) {
    std::printf("%-36s %.17g %s [virtual time]\n", h.name.c_str(), h.value,
                h.unit.c_str());
  }
  for (const Metric& m : metrics) {
    // work_per_s is also printed under its workload-specific name.
    const std::string name =
        m.name == "work_per_s" ? rep.item + "_per_s (work_per_s)" : m.name;
    std::printf("%-36s %.17g %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                m.exact ? " [exact]" : "");
  }
  std::printf("%-36s %ld of %ld\n", "failed_ops", rep.failed, rep.attempted);
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- self-tests ----

int selftest() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  for (const std::string& name : workload_names()) {
    const auto wl = make_workload(name, /*small=*/true);
    wl->setup(kReferenceSeed);
    bool transparent = true;
    Layers layers;
    for (std::size_t i = 0; i < wl->pass_size(); ++i) {
      const Op plain = wl->run(i, nullptr);
      const Op traced = wl->run(i, &layers);
      transparent = transparent && plain.values == traced.values;
    }
    check(transparent, name + ": probes leave every output bit-identical");
    if (name != "graph_fattree") {  // the only workload without the engine
      check(layers.decisions > 0 && layers.replay_mismatches == 0,
            name + ": engine replay reproduces every start decision");
    }
  }

  RunConfig cfg;
  cfg.workload = "paper_sweep";
  cfg.seconds = 0.0;
  cfg.small = true;
  const RunReport recorded = run_benchmark(cfg);
  check(recorded.correct && recorded.failed == 0,
        "paper_sweep: an unchecked run passes");
  cfg.reference = recorded.outputs;
  const RunReport same = run_benchmark(cfg);
  check(same.correct && same.failed == 0,
        "paper_sweep: a run matching its reference passes");
  auto& perturbed = cfg.reference.begin()->second;
  perturbed = std::nextafter(perturbed, 1e300);
  const RunReport off = run_benchmark(cfg);
  check(!off.correct && off.failed > 0,
        "paper_sweep: a perturbed reference value fails its ops");
  std::printf("%d self-test failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reference <file>]\n"
               "       perfbench --record-reference <file>\n"
               "       perfbench --selftest\n");
  return 2;
}

int run_main(int argc, char** argv) {
  RunConfig cfg;
  std::string reference_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--record-reference") return record_reference(value);
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--reference") {
      reference_path = value;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return usage();
  }
  if (!reference_path.empty()) {
    unsigned seed = kReferenceSeed;
    const auto all = read_reference(reference_path, seed);
    // Only the reference seed has recorded outputs; other seeds are checked
    // by determinism, the traced-vs-untraced comparison and the replay.
    if (seed == cfg.seed) {
      for (const auto& [key, v] : all) {
        if (key.compare(0, cfg.workload.size() + 1, cfg.workload + "/") == 0) {
          cfg.reference.emplace(key, v);
        }
      }
      if (cfg.reference.empty()) {
        std::fprintf(stderr, "perfbench: %s records no outputs for %s\n",
                     reference_path.c_str(), cfg.workload.c_str());
        return 1;
      }
    }
  }
  const RunReport rep = run_benchmark(cfg);
  print_report(cfg, rep);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
