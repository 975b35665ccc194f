#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "charm/load_balancer.hpp"
#include "common/error.hpp"
#include "elastic/workload.hpp"
#include "scenario/axis_point.hpp"

namespace ehpc::scenario {

using elastic::PolicyMode;

std::string to_string(Substrate s) {
  switch (s) {
    case Substrate::kSchedSim: return "schedsim";
    case Substrate::kCluster: return "cluster";
  }
  return "?";
}

Substrate substrate_from_string(const std::string& name) {
  if (name == "schedsim" || name == "sim") return Substrate::kSchedSim;
  if (name == "cluster" || name == "k8s") return Substrate::kCluster;
  throw ConfigError("unknown substrate '" + name +
                    "'; known: schedsim cluster");
}

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Text parsers, one per non-scalar field type.
using Text = const std::string&;
void from_text(Text text, std::string& v) { v = text; }
void from_text(Text text, Substrate& v) { v = substrate_from_string(text); }
void from_text(Text text, SweepAxis& v) { v = sweep_axis_from_string(text); }

void from_text(Text text, std::vector<PolicyMode>& v) {
  if (text == "all") {
    v = {PolicyMode::kRigidMin, PolicyMode::kRigidMax, PolicyMode::kMoldable,
         PolicyMode::kElastic};
    return;
  }
  std::vector<PolicyMode> out;
  for (const auto& item : split_list(text)) {
    try {
      out.push_back(elastic::policy_mode_from_string(item));
    } catch (const std::exception&) {
      throw ConfigError("unknown policy '" + item +
                        "'; known: min_replicas max_replicas moldable elastic "
                        "(or 'all')");
    }
  }
  if (out.empty()) throw ConfigError("policies list is empty: '" + text + "'");
  v = std::move(out);
}

void from_text(Text text, std::vector<double>& v) {
  std::vector<double> out;
  for (const auto& item : split_list(text)) {
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + item.size()) {
      throw ConfigError("bad sweep value '" + item + "' in '" + text + "'");
    }
    out.push_back(value);
  }
  v = std::move(out);
}

void from_text(Text text, std::vector<int>& v) {
  std::vector<int> out;
  for (const auto& item : split_list(text)) {
    char* end = nullptr;
    const long value = std::strtol(item.c_str(), &end, 10);
    if (end != item.c_str() + item.size() || value <= 0 ||
        value > std::numeric_limits<int>::max()) {
      throw ConfigError("bad fault_domains entry '" + item + "' in '" + text +
                        "' (expected positive slot counts)");
    }
    out.push_back(static_cast<int>(value));
  }
  if (out.empty()) {
    throw ConfigError("fault_domains list is empty: '" + text + "'");
  }
  v = std::move(out);
}

void from_text(Text text, std::vector<schedsim::DomainCrash>& v) {
  std::vector<schedsim::DomainCrash> out;
  for (const auto& item : split_list(text)) {
    const auto colon = item.find(':');
    char* time_end = nullptr;
    char* domain_end = nullptr;
    const double time = std::strtod(item.c_str(), &time_end);
    const long domain =
        colon == std::string::npos
            ? -1
            : std::strtol(item.c_str() + colon + 1, &domain_end, 10);
    if (colon == std::string::npos || colon == 0 ||
        time_end != item.c_str() + colon ||
        colon + 1 == item.size() || domain_end != item.c_str() + item.size() ||
        domain < 0 || domain > std::numeric_limits<int>::max()) {
      throw ConfigError("bad fault_domain_crash_times entry '" + item +
                        "' in '" + text + "' (expected time:domain)");
    }
    out.push_back({time, static_cast<int>(domain)});
  }
  if (out.empty()) {
    throw ConfigError("fault_domain_crash_times list is empty: '" + text +
                      "'");
  }
  v = std::move(out);
}

/// Shortest fixed-notation text that parses back to exactly `v`: 90 → "90",
/// 0.12 → "0.12", 3.75 → "3.75".
std::string show(double v) {
  char buf[512];  // fits every finite double in fixed notation
  return std::string(
      buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
               .ptr);
}
std::string show(bool v) { return v ? "true" : "false"; }
template <std::integral T>
std::string show(T v) {
  return std::to_string(v);
}
std::string show(const std::string& v) { return v; }
std::string show(Substrate v) { return to_string(v); }
std::string show(SweepAxis v) { return to_string(v); }
std::string show(PolicyMode v) { return elastic::to_string(v); }
std::string show(const schedsim::DomainCrash& v) {
  return show(v.time_s) + ':' + show(v.domain);
}
template <typename T>
std::string show(const std::vector<T>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ',';
    out += show(item);
  }
  return out;
}

std::string join(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const auto& name : names) out += (out.empty() ? "" : sep) + name;
  return out;
}

/// Parse a field: scalars through Config's strict getters, the other types
/// through `from_text`.
template <typename T>
void parse_into(const Config& cfg, const std::string& key, T& v) {
  if constexpr (std::is_same_v<T, double>) {
    v = cfg.get_double(key, v);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = cfg.get_bool(key, v);
  } else if constexpr (std::is_integral_v<T>) {
    const int value = cfg.get_int(key, 0);
    if (std::is_unsigned_v<T> && value < 0) {
      throw ConfigError("bad value for '" + key + "': '" + *cfg.get(key) +
                        "' (expected a non-negative integer)");
    }
    v = static_cast<T>(value);
  } else {
    from_text(*cfg.get(key), v);
  }
}

/// When a key is in effect, besides differing from its default.
struct When {
  bool (*holds)(const ScenarioSpec&);
  const char* what;  ///< the condition in words, for error messages
  /// A value changed from the default is an error unless `holds`.
  bool required = false;
};

using S = ScenarioSpec;
using F = schedsim::FaultPlan;

constexpr When kAlways{[](const S&) { return true; }, "always"};
constexpr When kAmr{[](const S& s) { return s.app == "amr"; }, "app=amr"};
constexpr When kIrregular{
    [](const S& s) { return s.app == "amr" || s.app == "graph"; },
    "app=amr or app=graph"};
constexpr When kGraph{[](const S& s) { return s.app == "graph"; },
                      "app=graph", true};
constexpr When kTopology{[](const S& s) { return s.net_model != "flat"; },
                         "net_model=fattree or dragonfly", true};
constexpr When kStraggler{
    [](const S& s) { return s.faults.straggler_at_s >= 0.0; },
    "straggler_at>=0"};
constexpr When kCron{[](const S& s) { return s.cron_period_s > 0.0; },
                     "cron_period>0"};

/// What a field check accepts: numbers in a range, or text in a name list.
struct Check {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool above = false;  ///< `lo` itself is out of range
  const std::vector<std::string>* names = nullptr;
};
constexpr Check kPositive{0.0, std::numeric_limits<double>::infinity(), true};
constexpr Check kNonNegative{0.0};

template <typename T, typename Owner>
Owner owner_of(T Owner::*);

/// The field member `M` names, of the spec or of its fault plan.
template <auto M>
auto& ref(auto& spec) {
  if constexpr (std::is_same_v<decltype(owner_of(M)), F>) {
    return spec.faults.*M;
  } else {
    return spec.*M;
  }
}

/// How a key parses and renders its field, and reads or sets it as a number.
struct Field {
  void (*parse)(const Config&, const std::string& key, ScenarioSpec&);
  std::string (*show)(const ScenarioSpec&);
  double (*number)(const ScenarioSpec&) = nullptr;  ///< arithmetic fields
  void (*assign)(ScenarioSpec&, double) = nullptr;  ///< double fields
};

template <auto M>
constexpr Field make_field() {
  using T = std::remove_cvref_t<decltype(ref<M>(std::declval<S&>()))>;
  Field field{[](const Config& cfg, const std::string& key, S& s) {
                parse_into(cfg, key, ref<M>(s));
              },
              [](const S& s) { return show(ref<M>(s)); }};
  if constexpr (std::is_arithmetic_v<T>) {
    field.number = [](const S& s) { return static_cast<double>(ref<M>(s)); };
  }
  if constexpr (std::is_same_v<T, double>) {
    field.assign = [](S& s, double v) { ref<M>(s) = v; };
  }
  return field;
}
template <auto M>
constexpr Field field = make_field<M>();

/// The sweep axis a key serves. A double key takes sweep values as they
/// are; the values of a name-list key (lb_strategy) index its names.
struct Axis {
  SweepAxis axis = SweepAxis::kNone;
  bool recalibrates = false;  ///< points need their own workload calibration
};

/// One scenario config key. Its row in `make_table()` is the only place the
/// key's name, field, help, check, in-effect rule and sweep axis are written;
/// every public function in this file is a loop over the rows.
struct Key {
  std::string name;
  Field field;
  const char* help;
  Check check = {};
  /// When the key is in effect; nullptr: when it differs from its default.
  /// describe() renders a key that is in effect or changed, and a sweep
  /// over the key needs it in effect at every point.
  const When* when = nullptr;
  Axis sweep = {};
};

/// The key table: one row per config key, in describe() order.
/// `axes` lists the sweep_axis names; keys() fills it from these rows.
std::vector<Key> make_table(const std::vector<std::string>* axes) {
  using A = SweepAxis;
  static const std::vector<std::string> apps{"jacobi", "amr", "graph"};
  static const std::vector<std::string> nets{"flat", "fattree", "dragonfly"};
  static const std::vector<std::string> classes{"small", "medium", "large",
                                                "xlarge"};
  return {
      {"substrate", field<&S::substrate>,
       "schedsim | cluster (k8s emulation)", {}, &kAlways},
      {"nodes", field<&S::nodes>, "emulated cluster nodes", kPositive,
       &kAlways},
      {"cpus_per_node", field<&S::cpus_per_node>, "vCPUs per node", kPositive,
       &kAlways},
      {"num_jobs", field<&S::num_jobs>, "jobs per random mix", kPositive,
       &kAlways},
      {"pods_per_job", field<&S::pods_per_job>,
       "force rigid job width (min=max replicas); 0 keeps class widths",
       kNonNegative},
      {"submission_gap", field<&S::submission_gap_s>,
       "seconds between submissions", kNonNegative, &kAlways,
       {A::kSubmissionGap}},
      {"rescale_gap", field<&S::rescale_gap_s>, "T_rescale_gap in seconds",
       kNonNegative, &kAlways, {A::kRescaleGap}},
      {"calibrated", field<&S::calibrated>,
       "minicharm-calibrated step-time curves", {}, &kAlways},
      {"app", field<&S::app>,
       "workload app (amr: adaptive mesh; graph: power-law supersteps)",
       {.names = &apps}, &kAlways},
      {"refine_rate", field<&S::refine_rate>,
       "AMR refinement-event rate per patch/iter", {0.0, 0.5}, &kAmr,
       {A::kRefineRate, true}},
      {"graph_vertices", field<&S::graph_vertices>,
       "graph app vertex count (medium class)", {256, 1 << 22}, &kGraph},
      {"graph_skew", field<&S::graph_skew>,
       "power-law exponent of the degree law", {0.0, 1.5}, &kGraph,
       {A::kGraphSkew, true}},
      {"lb_strategy", field<&S::lb_strategy>,
       "runtime LB; as a sweep axis, values index the list",
       {.names = &charm::load_balancer_names()}, &kIrregular,
       {A::kLbStrategy, true}},
      {"net_model", field<&S::net_model>,
       "graph calibration network; topologies add link contention",
       {.names = &nets}},
      {"net_oversub", field<&S::net_oversub>,
       "core-level oversubscription factor", {1.0, 64.0}, &kTopology,
       {A::kNetOversub, true}},
      {"fault_times", field<&F::crash_times>,
       "comma list of node-crash virtual times (s)"},
      {"fault_mtbf", field<&F::crash_mtbf_s>,
       "deterministic crash chain period (s); 0 off", kNonNegative, nullptr,
       {A::kFaultMtbf}},
      {"evict_times", field<&F::evict_times>,
       "comma list of pod-eviction virtual times (s)"},
      {"straggler_at", field<&F::straggler_at_s>,
       "time a straggler PE appears (s); <0 off"},
      {"straggler_factor", field<&F::straggler_factor>,
       "step-time multiplier of the straggler job", {}, &kStraggler},
      {"checkpoint_period", field<&F::checkpoint_period_s>,
       "disk checkpoint cadence (s); 0 = none", kNonNegative, nullptr,
       {A::kCheckpointPeriod}},
      {"fault_detection", field<&F::detection_s>,
       "crash detection delay before recovery (s)"},
      {"max_failed_nodes", field<&F::max_failed_nodes>,
       "per-job crash budget (prun); <0 unlimited"},
      {"fault_domains", field<&F::domain_sizes>,
       "comma list of failure-domain slot counts (e.g. racks)"},
      {"fault_domain_crash_times", field<&F::domain_crashes>,
       "comma list of time:domain crashes, each killing a whole domain"},
      {"failure_trace_path", field<&F::failure_trace_path>,
       "CSV failure trace (time_s,kind[,domain])"},
      {"restore_bandwidth", field<&F::restore_bandwidth>,
       "concurrent restores before the restore path saturates; 0 = unlimited"},
      {"trace", field<&S::trace_path>,
       "CSV job trace to stream (replaces num_jobs)"},
      {"trace_jobs", field<&S::trace_jobs>,
       "synthetic streaming trace length; 0 off", kNonNegative},
      {"cron_period", field<&S::cron_period_s>,
       "recurring-job submission period (s); 0 off", kNonNegative},
      {"cron_phase", field<&S::cron_phase_s>, "first cron submission time (s)",
       kNonNegative, &kCron},
      {"cron_end", field<&S::cron_end_s>,
       "last eligible cron submission (s, inclusive)", {}, &kCron},
      {"cron_class", field<&S::cron_class>, "cron job class",
       {.names = &classes}, &kCron},
      {"cron_priority", field<&S::cron_priority>, "cron job priority",
       kPositive, &kCron},
      {"queue_timeout", field<&S::queue_timeout_s>,
       "abandon jobs queued this long (s); <0 off"},
      {"task_timeout", field<&S::task_timeout_s>,
       "kill jobs running this long (s); <0 off"},
      {"policies", field<&S::policies>,
       "comma list of min_replicas, max_replicas, moldable, elastic; or all",
       {}, &kAlways},
      {"sweep_axis", field<&S::axis>, "swept key", {.names = axes}, &kAlways},
      {"sweep_values", field<&S::axis_values>,
       "comma list of swept parameter values"},
      {"repeats", field<&S::repeats>, "random mixes averaged per point",
       kPositive, &kAlways},
      {"seed", field<&S::seed>, "base RNG seed (repeat r uses seed + r)", {},
       &kAlways},
  };
}

const std::vector<Key>& keys() {
  static std::vector<std::string> axes{"none"};
  static const std::vector<Key> table = [] {
    std::vector<Key> rows = make_table(&axes);
    for (const Key& key : rows) {
      if (key.sweep.axis != SweepAxis::kNone) axes.push_back(key.name);
    }
    return rows;
  }();
  return table;
}

/// "" when the key's field passes its check, else "<key>: <what is wrong>".
std::string check_field(const Key& key, const ScenarioSpec& spec) {
  const Check& c = key.check;
  if (c.names != nullptr) {
    const std::string v = key.field.show(spec);
    if (std::find(c.names->begin(), c.names->end(), v) != c.names->end()) {
      return "";
    }
    return key.name + ": unknown '" + v + "'; known: " + join(*c.names, " ");
  }
  if (key.field.number == nullptr) return "";
  const double v = key.field.number(spec);
  if ((c.above ? v > c.lo : v >= c.lo) && v <= c.hi) return "";
  return key.name + ": must be " +
         (c.hi == std::numeric_limits<double>::infinity()
              ? (c.above ? "> " : ">= ") + show(c.lo)
              : "in [" + show(c.lo) + ", " + show(c.hi) + "]");
}

const ScenarioSpec& defaults() {
  static const ScenarioSpec spec;
  return spec;
}

bool changed(const Key& key, const ScenarioSpec& spec) {
  // Numbers compare as numbers: rendering a double is not free.
  if (const auto number = key.field.number) {
    return number(spec) != number(defaults());
  }
  return key.field.show(spec) != key.field.show(defaults());
}

bool in_effect(const Key& key, const ScenarioSpec& spec) {
  return key.when != nullptr ? key.when->holds(spec) : changed(key, spec);
}

/// The row sweeping `axis` (which is not kNone).
const Key& axis_key(SweepAxis axis) {
  for (const Key& key : keys()) {
    if (key.sweep.axis == axis) return key;
  }
  throw InvariantError("no config key sweeps axis " +
                       std::to_string(static_cast<int>(axis)));
}

}  // namespace

std::string to_string(SweepAxis a) {
  return a == SweepAxis::kNone ? "none" : axis_key(a).name;
}

SweepAxis sweep_axis_from_string(const std::string& name) {
  std::string known = "none";
  if (name == known) return SweepAxis::kNone;
  for (const Key& key : keys()) {
    if (key.sweep.axis == SweepAxis::kNone) continue;
    if (key.name == name) return key.sweep.axis;
    known += " " + key.name;
  }
  throw ConfigError("unknown sweep axis '" + name + "'; known: " + known);
}

bool axis_affects_workloads(SweepAxis a) {
  return a != SweepAxis::kNone && axis_key(a).sweep.recalibrates;
}

ScenarioSpec at_axis_value(const ScenarioSpec& spec, double value) {
  ScenarioSpec point = spec;
  if (spec.axis == SweepAxis::kNone) return point;
  const Key& key = axis_key(spec.axis);
  if (key.field.assign != nullptr) {
    key.field.assign(point, value);
    return point;
  }
  // Any value that is no index parses as its own text, which the key's check
  // then rejects.
  const auto& names = *key.check.names;
  const bool index = std::floor(value) == value && value >= 0.0 &&
                     value < static_cast<double>(names.size());
  Config text;
  text.set(key.name, index ? names[static_cast<std::size_t>(value)]
                           : show(value));
  key.field.parse(text, key.name, point);
  return point;
}

void ScenarioSpec::validate() const {
  auto fail = [this](const std::string& what) {
    throw ConfigError("scenario '" + name + "': " + what);
  };
  for (const Key& key : keys()) {
    if (const std::string error = check_field(key, *this); !error.empty()) {
      fail(error);
    }
    if (key.when != nullptr && key.when->required && changed(key, *this) &&
        !key.when->holds(*this)) {
      fail(key.name + " requires " + key.when->what);
    }
  }
  if (axis == SweepAxis::kNone && !axis_values.empty()) {
    fail("sweep_values given but sweep_axis is 'none'");
  }
  if (axis != SweepAxis::kNone) {
    if (axis_values.empty()) {
      fail("sweep axis '" + to_string(axis) + "' needs sweep_values");
    }
    // Each point is checked by the same row that checks the scalar key.
    const Key& key = axis_key(axis);
    for (const double v : axis_values) {
      const ScenarioSpec point = at_axis_value(*this, v);
      std::string error = check_field(key, point);
      if (error.empty() && !in_effect(key, point)) {
        error = key.when != nullptr ? "needs " + std::string(key.when->what)
                                    : "is the default, which has no effect";
      }
      if (!error.empty()) {
        fail("axis '" + key.name + "' value " + show(v) + ": " + error);
      }
    }
  }

  // Checks spanning several keys, or whole lists.
  if (policies.empty()) fail("policies must not be empty");
  if (net_model != "flat" && app != "graph") {
    fail("net_model '" + net_model + "' requires app=graph (only the graph "
         "calibration routes through the topology seam)");
  }
  if (cron_period_s > 0.0 && cron_end_s < cron_phase_s) {
    fail("cron_end must be >= cron_phase (the cron window is "
         "[cron_phase, cron_end])");
  }
  try {
    faults.validate();
  } catch (const std::exception& e) {
    fail(std::string("bad fault plan: ") + e.what());
  }
  if (!faults.domain_sizes.empty()) {
    long long covered = 0;  // wide: each size may be up to INT_MAX
    for (const int s : faults.domain_sizes) covered += s;
    if (covered > total_slots()) {
      fail("fault_domains cover " + std::to_string(covered) +
           " slots but the cluster has only " +
           std::to_string(total_slots()));
    }
  }
}

const std::vector<std::string>& spec_config_keys() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Key& key : keys()) out.push_back(key.name);
    return out;
  }();
  return names;
}

std::string spec_config_help() {
  // "  key=default", then the help words from column 26, wrapped at 78.
  constexpr std::size_t kColumn = 26;
  constexpr std::size_t kWidth = 78;
  std::string out;
  for (const Key& key : keys()) {
    std::string help = key.help;
    if (key.check.names != nullptr) {
      help += "; one of: " + join(*key.check.names, " | ");
    }
    if (key.when != nullptr && key.when->required) {
      help += " (needs " + std::string(key.when->what) + ")";
    }
    std::string line = "  " + key.name + '=' + key.field.show(defaults());
    std::istringstream words(help);
    for (std::string word; words >> word;) {
      if (line.size() + 1 + word.size() > kWidth) {
        out += line + '\n';
        line.clear();
      }
      line.resize(std::max(line.size() + 1, kColumn), ' ');
      line += word;
    }
    out += line + '\n';
  }
  return out;
}

ScenarioSpec spec_from_config(const Config& cfg, ScenarioSpec base) {
  ScenarioSpec spec = std::move(base);
  for (const Key& key : keys()) {
    if (cfg.has(key.name)) {
      key.field.parse(cfg, key.name, spec);
    }
  }
  spec.validate();
  return spec;
}

std::string describe(const ScenarioSpec& spec) {
  std::string out;
  for (const Key& key : keys()) {
    if (!in_effect(key, spec) && !changed(key, spec)) continue;
    if (!out.empty()) out += ' ';
    out += key.name + '=' + key.field.show(spec);
  }
  return out;
}

}  // namespace ehpc::scenario
