// atm_bench — the repository benchmark. Three workloads driven through the
// public API only (apps::BlackscholesApp / apps::JacobiApp, App::run,
// rt::Runtime::submit / taskwait and the RunResult exports):
//
//   atm_bench --workload bs-reuse|jacobi-dyn|task-storm --seed N
//             --seconds S --trace 0|1 [--scale bench|tiny] [--git-sha SHA]
//   atm_bench --manifest        print the metric catalog (BENCHMARK.json body)
//
// --trace 0 measures the end-to-end metrics from untraced runs; --trace 1
// adds a traced twin to every unit and reports the per-layer split. The last
// stdout line is {"correct", "attempted", "failed", "metrics"}; the line
// before it is the host block. perfbench/README.md explains the workloads,
// the metrics and which layer metric should move which end-to-end metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/blackscholes.hpp"
#include "apps/jacobi.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

#ifndef ATM_BENCH_BUILD_TYPE
#define ATM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using atm::AtmMode;
using atm::now_ns;
using atm::apps::App;
using atm::apps::RunConfig;
using atm::apps::RunResult;
namespace obs = atm::obs;
namespace rt = atm::rt;

// ---------------------------------------------------------------------------
// Metric catalog: the single source of BENCHMARK.json and of every printed
// metric name. Names carry no host-derived part (no lane or thread count).
// ---------------------------------------------------------------------------

struct EndToEndMetric {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  ///< share of the parent's median a change may lose
};

// Absolute run times (wall or CPU) of identical code swung by up to 2.4x
// from run to run on a shared VM, so the gated time is the ratio to an
// interleaved twin; run times are reported per-layer (README.md,
// "Steadiness").
constexpr EndToEndMetric kEndToEnd[] = {
    {"speedup", "x", "higher", 0.2},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MB", "lower", 0.1},
};

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr LayerMetric kPerLayer[] = {
    {"runtime.submit_ns_p50", "ns", "lower"},
    {"runtime.taskwait_ms_p50", "ms", "lower"},
    {"runtime.creation_pct", "%", "lower"},
    {"dep.exact_hit_pct", "%", "higher"},
    {"arena.slab_mb", "MB", "lower"},
    {"sched.idle_pct", "%", "lower"},
    {"sched.help_pct", "%", "lower"},
    {"sched.steal_fail_pct", "%", "lower"},
    {"sched.steal_batch_mean", "tasks", "higher"},
    {"atm.hash_pct", "%", "lower"},
    {"atm.hash_ns_p50", "ns", "lower"},
    {"atm.hash_ns_p99", "ns", "lower"},
    {"atm.hash_bytes_per_key", "B/key", "lower"},
    {"atm.memoize_pct", "%", "lower"},
    {"atm.copy_ns_p50", "ns", "lower"},
    {"atm.copy_ns_p99", "ns", "lower"},
    {"atm.update_ns_p50", "ns", "lower"},
    {"atm.update_ns_p99", "ns", "lower"},
    {"atm.update_ns_max", "ns", "lower"},
    {"atm.update_ms_total", "ms", "lower"},
    {"atm.tht_hit_pct", "%", "higher"},
    {"atm.ikt_hits", "count", "higher"},
    {"atm.memory_mb", "MB", "lower"},
    {"atm.final_p", "ratio", "lower"},
    {"atm.training_failures", "count", "lower"},
    {"exec.task_pct", "%", "higher"},
    {"exec.ms_total", "ms", "lower"},
    {"apps.reuse_pct", "%", "higher"},
    {"apps.run_ms_p50", "ms", "lower"},
    {"apps.unit_cpu_ms", "ms", "lower"},
    {"apps.off_run_ms_p50", "ms", "lower"},
    {"apps.run_ms_p90", "ms", "lower"},
    {"apps.run_samples", "count", "higher"},
    {"apps.tasks_per_s", "1/s", "higher"},
    {"apps.max_rel_err", "ratio", "lower"},
    {"obs.trace_overhead_pct", "%", "lower"},
    {"attrib.unattributed_pct", "%", "lower"},
    {"host.cpu_steal_pct", "%", "lower"},
};

struct WorkloadInfo {
  const char* name;
  const char* why;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"bs-reuse",
     "blackscholes Static ATM: 95% of tasks complete from the THT, so key "
     "hashing and THT copy-out are the engine path measured"},
    {"jacobi-dyn",
     "jacobi Dynamic ATM on an iterative stencil: training, THT update and "
     "dependences across waves are exercised and execution dominates"},
    {"task-storm",
     "100k tiny non-memoizable tasks with no engine: submit, dependence "
     "registration and scheduling are the whole cost and atm/ is bypassed"},
};

constexpr int kRunSeconds = 20;

/// One worker plus the master, which helps at every taskwait: two lanes on
/// any host. On a 4-vCPU shared VM each extra lane added the hypervisor's
/// wake-up latency to every barrier, and run times swung by 2x between runs
/// of identical code (see README.md).
constexpr unsigned kWorkers = 1;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 != 0) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// Nearest-rank quantile (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Total of `ms` samples, in seconds.
double sum_seconds(const std::vector<double>& ms) {
  double total = 0.0;
  for (double v : ms) total += v;
  return total * 1e-3;
}

double ratio_pct(double part, double whole) { return whole > 0.0 ? 100.0 * part / whole : 0.0; }

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// CPUs in this process's affinity mask (what the benchmark may use), and
/// the mask itself as hex.
struct Affinity {
  unsigned cpus = 1;
  std::string mask_hex = "0";
};

Affinity read_affinity() {
  Affinity a;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return a;
  a.cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  std::string hex;
  for (int base = 0; base < CPU_SETSIZE; base += 4) {
    int nibble = 0;
    for (int b = 0; b < 4; ++b) {
      if (CPU_ISSET(base + b, &set)) nibble |= 1 << b;
    }
    hex.insert(hex.begin(), "0123456789abcdef"[nibble]);
  }
  const auto first = hex.find_first_not_of('0');
  a.mask_hex = first == std::string::npos ? "0" : hex.substr(first);
  return a;
}


/// Aggregate CPU steal from /proc/stat: (steal ticks, all ticks).
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct_since(const CpuTicks& start) {
  const CpuTicks now = read_cpu_ticks();
  return ratio_pct(now.steal - start.steal, now.total - start.total);
}

/// CPU time of every thread of this process so far. The kernel leaves
/// hypervisor steal out of it.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Report: every catalog metric of the run's mode exactly once, in order.
// ---------------------------------------------------------------------------

class Report {
 public:
  void set(const std::string& name, double value) {
    if (!values_.emplace(name, value).second) {
      throw std::logic_error("metric set twice: " + name);
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }

  /// The metrics JSON object; throws if a catalog metric is missing or an
  /// uncatalogued one was set.
  template <typename Catalog>
  [[nodiscard]] std::string metrics_json(const Catalog& catalog) const {
    std::string out = "{";
    std::size_t emitted = 0;
    for (const auto& m : catalog) {
      const auto it = values_.find(m.name);
      if (it == values_.end()) throw std::logic_error(std::string("metric missing: ") + m.name);
      if (!std::isfinite(it->second)) {
        throw std::logic_error(std::string("metric not finite: ") + m.name);
      }
      if (emitted++ != 0) out += ", ";
      obs::json_append_string(out, m.name);
      out += ": {\"value\": " + fmt(it->second) + ", \"unit\": ";
      obs::json_append_string(out, m.unit);
      out += "}";
    }
    if (emitted != values_.size()) throw std::logic_error("uncatalogued metric set");
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Per-layer accounting from the traced runs
// ---------------------------------------------------------------------------

/// Lane-state time pooled over every traced unit, clipped to each unit's
/// timed window. Shares of it, plus the unattributed rest, sum to 100%.
struct LaneTotals {
  double state_ns[rt::kTraceStateCount] = {};
  double lane_ns = 0.0;

  void add(const std::vector<std::vector<rt::TraceEvent>>& lanes, std::uint64_t w0,
           std::uint64_t w1) {
    if (w1 <= w0) return;
    for (const auto& lane : lanes) {
      lane_ns += static_cast<double>(w1 - w0);
      for (const rt::TraceEvent& e : lane) {
        const std::uint64_t a = std::max(e.t0, w0);
        const std::uint64_t b = std::min(e.t1, w1);
        if (b > a) state_ns[static_cast<std::size_t>(e.state)] += static_cast<double>(b - a);
      }
    }
  }

  [[nodiscard]] double pct(rt::TraceState s) const {
    return ratio_pct(state_ns[static_cast<std::size_t>(s)], lane_ns);
  }

  void report(Report& out) const {
    double attributed = 0.0;
    for (double ns : state_ns) attributed += ns;
    out.set("runtime.creation_pct", pct(rt::TraceState::Creation));
    out.set("sched.idle_pct", pct(rt::TraceState::Idle));
    out.set("sched.help_pct", pct(rt::TraceState::Helping));
    out.set("atm.hash_pct", pct(rt::TraceState::HashKey));
    out.set("atm.memoize_pct", pct(rt::TraceState::Memoize));
    out.set("exec.task_pct", pct(rt::TraceState::TaskExec));
    // RuntimeOther is declared but never recorded by the runtime, so its
    // time (scheduling, completion bookkeeping) lands here.
    out.set("attrib.unattributed_pct", ratio_pct(lane_ns - attributed, lane_ns));
  }
};

/// Per-unit layer values; each reported metric is the median over units.
class LayerSamples {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }

  /// Registry-derived values every workload has (runtime, scheduler, dep
  /// index, arena, per-type execution profile).
  void add_runtime(const obs::RegistrySnapshot& snap) {
    add("dep.exact_hit_pct", ratio_pct(value(snap, "dep.exact_hits"),
                                       value(snap, "dep.exact_hits") +
                                           value(snap, "dep.tree_fallbacks")));
    add("arena.slab_mb", value(snap, "arena.slab_bytes") / (1024.0 * 1024.0));
    add("sched.steal_fail_pct",
        ratio_pct(value(snap, "sched.steal_fails"), value(snap, "sched.steal_attempts")));
    const obs::MetricSample* batch = snap.find("sched.steal_batch_size");
    add("sched.steal_batch_mean", batch != nullptr ? batch->hist.mean : 0.0);
    double exec_ns = 0.0;
    for (const obs::MetricSample& m : snap.metrics) {
      if (m.kind == obs::MetricKind::Histogram && m.name.starts_with("task.") &&
          m.name.ends_with(".exec_ns")) {
        exec_ns += static_cast<double>(m.hist.sum);
      }
    }
    add("exec.ms_total", exec_ns * 1e-6);
  }

  /// Engine-side values for the memoized task type `type`.
  void add_engine(const RunResult& r, const std::string& type) {
    const obs::RegistrySnapshot& snap = r.metrics;
    const std::string base = "atm.type." + type + ".";
    const obs::LatencyHistogram::Snapshot hash = hist(snap, base + "hash_ns");
    const obs::LatencyHistogram::Snapshot copy = hist(snap, base + "copy_ns");
    const obs::LatencyHistogram::Snapshot update = hist(snap, base + "update_ns");
    add("atm.hash_ns_p50", hash.p50);
    add("atm.hash_ns_p99", hash.p99);
    add("atm.hash_bytes_per_key",
        r.atm.keys_computed != 0 ? static_cast<double>(r.atm.hash_bytes) /
                                       static_cast<double>(r.atm.keys_computed)
                                 : 0.0);
    add("atm.copy_ns_p50", copy.p50);
    add("atm.copy_ns_p99", copy.p99);
    add("atm.update_ns_p50", update.p50);
    add("atm.update_ns_p99", update.p99);
    add("atm.update_ns_max", static_cast<double>(update.max));
    add("atm.update_ms_total", static_cast<double>(update.sum) * 1e-6);
    add("atm.tht_hit_pct", ratio_pct(static_cast<double>(r.atm.tht_hits),
                                     static_cast<double>(r.atm.tht_hits + r.atm.tht_misses)));
    add("atm.ikt_hits", static_cast<double>(r.atm.ikt_hits));
    add("atm.memory_mb", value(snap, "atm.memory_bytes") / (1024.0 * 1024.0));
    add("atm.final_p", r.final_p);
    add("atm.training_failures", static_cast<double>(r.atm.training_failures));
  }

  /// The median of each sampled metric into `out`.
  void report(Report& out) const {
    for (const auto& [name, values] : samples_) out.set(name, median(values));
  }

 private:
  static double value(const obs::RegistrySnapshot& snap, std::string_view name) {
    const obs::MetricSample* m = snap.find(name);
    return m != nullptr ? m->value : 0.0;
  }
  static obs::LatencyHistogram::Snapshot hist(const obs::RegistrySnapshot& snap,
                                              std::string_view name) {
    const obs::MetricSample* m = snap.find(name);
    return m != nullptr ? m->hist : obs::LatencyHistogram::Snapshot{};
  }

  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
};

/// What one workload process measured.
struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs units until `seconds` have passed (and at least kMinUnits). Unit 0
/// warms caches and lazy set-up: it is checked but `keep` is false, so its
/// timings are dropped. `unit(i, keep)` returns whether unit i passed its
/// correctness checks.
template <typename Unit>
void run_units(double seconds, Outcome& outcome, Unit&& unit) {
  constexpr std::size_t kMinUnits = 5;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const bool keep = i != 0;
    ++outcome.attempted;
    if (!unit(i, keep)) ++outcome.failed;
    if (i >= kMinUnits && static_cast<double>(now_ns() - start) * 1e-9 >= seconds) break;
  }
}

bool counters_balance(const rt::RuntimeCounters& c) {
  return c.submitted != 0 && c.submitted == c.executed + c.memoized + c.deferred;
}

struct TimedRun {
  RunResult result;
  double cpu_s = 0.0;  ///< process CPU time of the whole App::run call
};

TimedRun timed_run(const App& app, const RunConfig& config) {
  const double c0 = process_cpu_s();
  TimedRun run{app.run(config), 0.0};
  run.cpu_s = process_cpu_s() - c0;
  return run;
}

/// bs-reuse / jacobi-dyn: each unit runs an AtmMode::Off twin and the ATM
/// run, rotating which goes first so a slow host phase hits both sides of
/// the speedup ratio. Untraced, a unit also runs `setup_app` — the same app
/// with zero sweeps, whose whole App::run is set-up and teardown; traced, it
/// adds a traced ATM run instead.
Outcome run_app_workload(const App& app, const App& setup_app, AtmMode mode,
                         const Args& args) {
  RunConfig off;
  off.threads = kWorkers;
  off.mode = AtmMode::Off;
  RunConfig atm = off;
  atm.mode = mode;
  RunConfig traced = atm;
  traced.tracing = true;
  traced.profile_tasks = true;
  enum Kind : std::size_t { kOff, kAtm, kSetup, kTraced };
  const RunConfig* configs[] = {&off, &atm, &atm, &traced};
  const std::vector<std::size_t> kinds = {kOff, kAtm, args.trace ? kTraced : kSetup};

  Outcome outcome;
  std::vector<double> run_ms, off_ms, traced_ms, speedup, unit_cpu_ms, setup_s, reuse_pct;
  double tasks = 0.0;
  double max_err = 0.0;
  LaneTotals lanes;
  LayerSamples layers;
  const double bound = app.tolerance_error_bound();

  run_units(args.seconds, outcome, [&](std::size_t i, bool keep) {
    std::vector<std::size_t> order = kinds;
    std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(i % order.size()),
                order.end());
    TimedRun runs[4];
    for (std::size_t k : order) runs[k] = timed_run(k == kSetup ? setup_app : app, *configs[k]);

    bool ok = runs[kOff].result.counters.memoized + runs[kOff].result.counters.deferred == 0;
    for (std::size_t k : kinds) {
      if (k == kSetup) continue;  // submits nothing: there is no output to check
      const RunResult& r = runs[k].result;
      ok = ok && counters_balance(r.counters);
      if (k != kOff) {
        const double err = app.program_error(runs[kOff].result, r);
        max_err = std::max(max_err, err);
        ok = ok && std::isfinite(err) && err <= bound;
      }
    }
    if (!ok) {
      std::cerr << "atm_bench: unit " << i << " failed its correctness checks\n";
      return false;
    }
    if (!keep) return true;

    const RunResult& a = runs[kAtm].result;
    run_ms.push_back(a.wall_seconds * 1e3);
    off_ms.push_back(runs[kOff].result.wall_seconds * 1e3);
    speedup.push_back(runs[kOff].result.wall_seconds / a.wall_seconds);
    unit_cpu_ms.push_back(runs[kAtm].cpu_s * 1e3);
    if (!args.trace) setup_s.push_back(runs[kSetup].cpu_s);
    reuse_pct.push_back(a.reuse_fraction() * 100.0);
    tasks += static_cast<double>(a.counters.submitted);
    if (args.trace) {
      const RunResult& t = runs[kTraced].result;
      traced_ms.push_back(t.wall_seconds * 1e3);
      const auto& master = t.trace_lanes[t.trace_master_lane];
      if (!master.empty()) {
        std::uint64_t w1 = 0;
        for (const rt::TraceEvent& e : master) w1 = std::max(w1, e.t1);
        lanes.add(t.trace_lanes, master.front().t0, w1);
      }
      layers.add_runtime(t.metrics);
      layers.add_engine(t, app.memoized_task_type());
    }
    return true;
  });

  Report& out = outcome.report;
  if (!args.trace) {
    out.set("speedup", median(speedup));
    out.set("setup_s", median(setup_s));
    return outcome;
  }
  layers.add("apps.reuse_pct", median(reuse_pct));
  layers.add("apps.run_ms_p50", median(run_ms));
  layers.add("apps.unit_cpu_ms", median(unit_cpu_ms));
  layers.add("apps.off_run_ms_p50", median(off_ms));
  layers.add("apps.run_ms_p90", quantile(run_ms, 0.9));
  layers.add("apps.run_samples", static_cast<double>(run_ms.size()));
  layers.add("apps.tasks_per_s", tasks / sum_seconds(run_ms));
  layers.add("apps.max_rel_err", max_err);
  layers.add("obs.trace_overhead_pct", (median(traced_ms) / median(run_ms) - 1.0) * 100.0);
  layers.report(out);
  lanes.report(out);
  return outcome;
}

/// The storm's task body: a ~64-FLOP dependent chain on one cell. The
/// serial replay runs the same function, so results must match bit for bit.
inline void storm_kernel(float* cell) noexcept {
  float x = *cell;
  for (int k = 0; k < 16; ++k) x = x * 1.0001f + 0.0001f;
  *cell = x;
}

/// task-storm: each unit is one round — `tasks` tasks × 5 taskwait waves on a
/// fresh Runtime, one inout cell per task, no engine — paired with a serial
/// replay of the same kernel over the same cells (the storm's twin, and the
/// reference its cells must match bit for bit).
Outcome run_storm(const Args& args) {
  const std::size_t tasks = args.tiny ? 2'000 : 20'000;
  constexpr int kWaves = 5;

  Outcome outcome;
  std::vector<double> run_ms, replay_ms, traced_ms, speedup, unit_cpu_ms, setup_s;
  LaneTotals lanes;
  LayerSamples layers;

  struct Round {
    std::vector<float> cells;
    double timed_ms = 0.0;
    double cpu_s = 0.0;    ///< process CPU time of the whole round
    double setup_s = 0.0;  ///< ... of construction, input copy and teardown
    bool balanced = false;
  };
  const auto storm_round = [&](const std::vector<float>& initial, bool traced) {
    Round round;
    const double c0 = process_cpu_s();
    std::uint64_t t1 = 0;
    std::uint64_t t2 = 0;
    double c1 = 0.0;
    double c2 = 0.0;
    {
      rt::Runtime runtime({.num_threads = kWorkers,
                           .enable_tracing = traced,
                           .profile_tasks = traced});
      const rt::TaskType* type =
          runtime.register_type({.name = "storm", .memoizable = false, .atm = {}});
      round.cells = initial;
      std::vector<double> submit_ns;
      std::vector<double> taskwait_ms;
      if (traced) submit_ns.reserve(tasks * kWaves);
      c1 = process_cpu_s();
      t1 = now_ns();
      for (int w = 0; w < kWaves; ++w) {
        for (std::size_t i = 0; i < tasks; ++i) {
          float* cell = &round.cells[i];
          const std::uint64_t s0 = traced ? now_ns() : 0;
          runtime.submit(type, [cell] { storm_kernel(cell); }, {rt::inout(cell, 1)});
          if (traced) submit_ns.push_back(static_cast<double>(now_ns() - s0));
        }
        const std::uint64_t s0 = traced ? now_ns() : 0;
        runtime.taskwait();
        if (traced) taskwait_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      }
      t2 = now_ns();
      c2 = process_cpu_s();
      const rt::RuntimeCounters c = runtime.counters();
      round.balanced = counters_balance(c) && c.submitted == tasks * kWaves;
      if (traced) {
        const rt::TraceRecorder& tracer = runtime.tracer();
        std::vector<std::vector<rt::TraceEvent>> events;
        for (std::size_t l = 0; l < tracer.lane_count(); ++l) events.push_back(tracer.lane(l));
        lanes.add(events, t1, t2);
        layers.add_runtime(runtime.metrics().snapshot());
        layers.add("runtime.submit_ns_p50", median(std::move(submit_ns)));
        layers.add("runtime.taskwait_ms_p50", median(std::move(taskwait_ms)));
      }
    }
    const double c3 = process_cpu_s();
    round.timed_ms = static_cast<double>(t2 - t1) * 1e-6;
    round.cpu_s = c3 - c0;
    round.setup_s = (c1 - c0) + (c3 - c2);
    return round;
  };

  const std::uint64_t seed = atm::splitmix64(args.seed ^ 0x5707A11ull);
  std::vector<float> initial(tasks);
  run_units(args.seconds, outcome, [&](std::size_t i, bool keep) {
    atm::Rng rng(seed + i);
    for (float& v : initial) v = rng.next_float(0.5f, 1.5f);

    std::vector<float> replay;
    double serial_ms = 0.0;
    Round plain;
    Round traced;
    enum Kind : std::size_t { kReplay, kPlain, kTraced };
    std::vector<std::size_t> order = {kReplay, kPlain};
    if (args.trace) order.push_back(kTraced);
    std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(i % order.size()),
                order.end());
    for (std::size_t k : order) {
      if (k == kReplay) {
        replay = initial;
        const std::uint64_t r0 = now_ns();
        for (int w = 0; w < kWaves; ++w) {
          for (float& v : replay) storm_kernel(&v);
        }
        serial_ms = static_cast<double>(now_ns() - r0) * 1e-6;
      } else if (k == kPlain) {
        plain = storm_round(initial, false);
      } else {
        traced = storm_round(initial, true);
      }
    }

    const auto matches = [&replay](const Round& r) {
      return r.balanced &&
             std::memcmp(r.cells.data(), replay.data(), replay.size() * sizeof(float)) == 0;
    };
    const bool ok = matches(plain) && (!args.trace || matches(traced));
    if (!ok) {
      std::cerr << "atm_bench: storm round " << i << " failed its correctness checks\n";
      return false;
    }
    if (!keep) return true;
    run_ms.push_back(plain.timed_ms);
    replay_ms.push_back(serial_ms);
    speedup.push_back(serial_ms / plain.timed_ms);
    unit_cpu_ms.push_back(plain.cpu_s * 1e3);
    setup_s.push_back(plain.setup_s);
    if (args.trace) traced_ms.push_back(traced.timed_ms);
    return true;
  });

  Report& out = outcome.report;
  if (!args.trace) {
    out.set("speedup", median(speedup));
    out.set("setup_s", median(setup_s));
    return outcome;
  }
  layers.add("apps.run_ms_p50", median(run_ms));
  layers.add("apps.unit_cpu_ms", median(unit_cpu_ms));
  layers.add("apps.off_run_ms_p50", median(replay_ms));
  layers.add("apps.run_ms_p90", quantile(run_ms, 0.9));
  layers.add("apps.run_samples", static_cast<double>(run_ms.size()));
  layers.add("apps.tasks_per_s",
             static_cast<double>(tasks * kWaves * run_ms.size()) / sum_seconds(run_ms));
  layers.add("obs.trace_overhead_pct", (median(traced_ms) / median(run_ms) - 1.0) * 100.0);
  layers.report(out);
  lanes.report(out);
  return outcome;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out;
  obs::json_append_string(out, s);
  return out;
}

/// BENCHMARK.json, generated from the catalog above.
std::string manifest_json() {
  std::string out = "{\"command\": [\"python3\", \"perfbench/run.py\"], ";
  out += "\"paths\": [\"perfbench\"], \"run_seconds\": " + std::to_string(kRunSeconds);
  out += ", \"workloads\": [";
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    out += (i ? ", " : "") + std::string("{\"name\": ") + json_string(kWorkloads[i].name) +
           ", \"why\": " + json_string(kWorkloads[i].why) + "}";
  }
  out += "], \"end_to_end\": [";
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    const EndToEndMetric& m = kEndToEnd[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + json_string(m.name) +
           ", \"unit\": " + json_string(m.unit) + ", \"better\": " + json_string(m.better) +
           ", \"bound\": " + fmt(m.bound) + "}";
  }
  out += "], \"per_layer\": [";
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    const LayerMetric& m = kPerLayer[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + json_string(m.name) +
           ", \"unit\": " + json_string(m.unit) + ", \"better\": " + json_string(m.better) +
           "}";
  }
  return out + "]}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "atm_bench: " << why
            << "\nusage: atm_bench --workload bs-reuse|jacobi-dyn|task-storm --seed N"
               " --seconds S --trace 0|1 [--scale bench|tiny] [--git-sha SHA]\n"
               "       atm_bench --manifest\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "bench" && value != "tiny") usage("--scale takes bench or tiny");
        args.tiny = value == "tiny";
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const WorkloadInfo& w) { return args.workload == w.name; });
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

Outcome run_workload(const Args& args) {
  const atm::apps::Preset preset = args.tiny ? atm::apps::Preset::Test : atm::apps::Preset::Bench;
  if (args.workload == "bs-reuse") {
    atm::apps::BlackscholesParams params = atm::apps::BlackscholesParams::preset(preset);
    params.seed = atm::splitmix64(args.seed ^ 0xB5ull);
    atm::apps::BlackscholesParams setup = params;
    setup.iterations = 0;
    return run_app_workload(atm::apps::BlackscholesApp(params),
                            atm::apps::BlackscholesApp(setup), AtmMode::Static, args);
  }
  if (args.workload == "jacobi-dyn") {
    atm::apps::StencilParams params = atm::apps::StencilParams::preset(preset);
    params.l_training = args.tiny ? 14 : 64;  // Table II, Jacobi at this scale
    params.seed = atm::splitmix64(args.seed ^ 0x7AC0B1ull);
    atm::apps::StencilParams setup = params;
    setup.iterations = 0;
    return run_app_workload(atm::apps::JacobiApp(params), atm::apps::JacobiApp(setup),
                            AtmMode::Dynamic, args);
  }
  return run_storm(args);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_MMAP_THRESHOLD
  // A fixed threshold turns off glibc's dynamic one, under which whether a
  // freed multi-MiB buffer went back to the OS depended on thread timing:
  // peak RSS of identical runs flipped between two values ~7 MB apart.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  if (argc == 2 && std::string_view(argv[1]) == "--manifest") {
    std::cout << manifest_json() << "\n";
    return 0;
  }
  const Args args = parse_args(argc, argv);
  const Affinity affinity = read_affinity();
  try {
    const CpuTicks ticks = read_cpu_ticks();
    Outcome outcome = run_workload(args);
    const double steal_pct = steal_pct_since(ticks);
    if (args.trace) {
      outcome.report.set("host.cpu_steal_pct", steal_pct);
      // A layer this workload does not exercise (the engine on task-storm,
      // benchmark-timed submit on the app workloads) reads 0 — see README.md.
      for (const LayerMetric& m : kPerLayer) {
        if (!outcome.report.has(m.name)) outcome.report.set(m.name, 0.0);
      }
    } else {
      outcome.report.set("peak_rss_mb", peak_rss_mb());
    }
    const std::string metrics = args.trace ? outcome.report.metrics_json(kPerLayer)
                                           : outcome.report.metrics_json(kEndToEnd);
    std::cout << "{\"host\": {\"workload\": " << json_string(args.workload)
              << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"scale\": " << json_string(args.tiny ? "tiny" : "bench")
              << ", \"nproc\": " << affinity.cpus
              << ", \"affinity\": " << json_string(affinity.mask_hex)
              << ", \"compiler\": " << json_string(kCompiler)
              << ", \"build_type\": " << json_string(ATM_BENCH_BUILD_TYPE)
              << ", \"git_sha\": " << json_string(args.git_sha)
              << ", \"workers\": " << kWorkers << ", \"lanes\": " << kWorkers + 1
              << ", \"cpu_steal_pct\": " << fmt(steal_pct) << "}}\n";
    std::cout << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
              << ", \"metrics\": " << metrics << "}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "atm_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
