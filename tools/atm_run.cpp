// atm_run — command-line driver for the ATM benchmarks.
//
//   atm_run [app] [options]
//
//   app                    blackscholes | gauss-seidel | jacobi | kmeans |
//                          lu | swaptions | all            (default: all)
//   --mode=M               off | static | dynamic | fixed  (default: static)
//   --p=F                  fixed-p value for --mode=fixed   (default: 1.0)
//   --threads=N            worker threads                   (default: 2)
//   --sched=S              steal | central ready-task scheduler (default: steal)
//   --taskwait=T           help | park: helping barrier (the master drains/
//                          steals tasks at taskwait) or the paper's parking
//                          condvar barrier                 (default: help)
//   --preset=P             test | bench | paper             (default: bench)
//   --no-ikt               disable the In-flight Key Table
//   --no-type-aware        uniform byte shuffling (§III-C off)
//   --verify-full-inputs   §III-E full-input check on exact hits
//   --lru                  LRU eviction instead of FIFO
//   --n=K  --m=K           THT sizing: 2^n buckets, m entries per bucket
//   --l2                   enable the L2 capacity tier behind the THT
//   --l2-budget-mb=K       L2 byte budget in MiB            (default: 64)
//   --l2-compress          RLE-compress demoted snapshots
//   --save-store=PATH      persist THT + L2 + p-controllers after the run
//   --load-store=PATH      warm-start from a saved store (zero training);
//                          a missing/corrupt/version- or endianness-
//                          mismatched snapshot aborts the run (exit 2)
//   --tolerance[=F]        tolerance-quantized memo keys: relative epsilon F
//                          (bare --tolerance uses each app's preset)
//   --tolerance-abs=F      absolute epsilon (overrides relative on overlap)
//   --probes=K             multi-probe lookups: also try K quantization
//                          neighbors on a primary-key miss   (default: 0)
//   --noise=F              noisy-sensor demo: re-read inputs each iteration
//                          with relative jitter F (deterministic per
//                          iteration, so --baseline stays an exact reference)
//   --trace                print the per-core ASCII timeline
//   --trace-json=FILE      record the full timeline and write it as Chrome
//                          trace-event JSON (chrome://tracing / Perfetto);
//                          with app=all, FILE gains a per-app suffix
//   --stats                print runtime observability per app: two-level
//                          dependence-index counters (exact hits / tree
//                          fallbacks / prune scans)
//   --stats-json=FILE      dump the end-of-run metrics-registry snapshot
//                          (every counter/gauge/histogram by name) as JSON
//   --metrics-json=FILE    run the background sampler and dump its time
//                          series as JSON (starts it at 10ms if no
//                          --stats-interval was given)
//   --metrics-csv=FILE     same series as CSV (counters/gauges only)
//   --stats-interval=MS    sampler period; also echoes one live stderr
//                          line per tick
//   --profile              per-task-type execution-latency histograms
//                          (task.<type>.exec_ns; two extra clock reads
//                          per task)
//   --profile-types=N      cap on distinct task-type ids carrying per-type
//                          profiles; types with id >= N run unprofiled
//                          (default: 256)
//   --baseline             also run mode=off and report speedup/correctness
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>

#include "apps/app_registry.hpp"
#include "atm/error_metric.hpp"
#include "common/table.hpp"
#include "obs/trace_export.hpp"
#include "store/snapshot_io.hpp"

namespace {

using namespace atm;
using namespace atm::apps;

struct Options {
  std::string app = "all";
  RunConfig config{.threads = 2, .mode = AtmMode::Static};
  Preset preset = Preset::Bench;
  bool trace = false;
  bool stats = false;
  bool baseline = false;
  bool tol_preset = false;  ///< bare --tolerance: use each app's epsilon preset
  std::string trace_json;   ///< Chrome trace-event output path ("" = off)
  std::string stats_json;   ///< registry-snapshot output path ("" = off)
  std::string metrics_json; ///< sampler-series JSON output path ("" = off)
  std::string metrics_csv;  ///< sampler-series CSV output path ("" = off)
};

/// With app=all every app writes its own file: out.json -> out.jacobi.json.
std::string per_app_path(const std::string& path, const std::string& app_name,
                         bool multi) {
  if (!multi) return path;
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + app_name;
  }
  return path.substr(0, dot) + "." + app_name + path.substr(dot);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "atm_run: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

/// Every sampled gauge becomes a Chrome counter track next to the lanes, so
/// Perfetto shows e.g. arena occupancy over the same time axis as the states.
std::vector<obs::CounterTrack> sampler_counter_tracks(
    const obs::MetricsSampler::Series& series) {
  std::vector<obs::CounterTrack> tracks;
  for (const obs::RegistrySnapshot& snap : series.samples) {
    for (const obs::MetricSample& m : snap.metrics) {
      if (m.kind != obs::MetricKind::Gauge) continue;
      obs::CounterTrack* track = nullptr;
      for (obs::CounterTrack& t : tracks) {
        if (t.name == m.name) {
          track = &t;
          break;
        }
      }
      if (track == nullptr) {
        tracks.push_back({m.name, {}});
        track = &tracks.back();
      }
      track->points.emplace_back(snap.t_ns, m.value);
    }
  }
  return tracks;
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = "";
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [app] [--mode=off|static|dynamic|fixed] [--p=F]\n"
               "          [--threads=N] [--sched=steal|central] [--taskwait=help|park]\n"
               "          [--preset=test|bench|paper] [--no-ikt]\n"
               "          [--no-type-aware] [--verify-full-inputs] [--lru]\n"
               "          [--n=K] [--m=K] [--l2] [--l2-budget-mb=K]\n"
               "          [--l2-compress] [--save-store=PATH] [--load-store=PATH]\n"
               "          [--tolerance[=F]] [--tolerance-abs=F] [--probes=K] [--noise=F]\n"
               "          [--trace] [--trace-json=FILE] [--stats] [--stats-json=FILE]\n"
               "          [--metrics-json=FILE] [--metrics-csv=FILE]\n"
               "          [--stats-interval=MS] [--profile] [--profile-types=N]\n"
               "          [--baseline]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (arg[0] != '-') {
      opts->app = arg;
    } else if (parse_flag(arg, "--mode", &value)) {
      const std::string m = value;
      if (m == "off") opts->config.mode = AtmMode::Off;
      else if (m == "static") opts->config.mode = AtmMode::Static;
      else if (m == "dynamic") opts->config.mode = AtmMode::Dynamic;
      else if (m == "fixed") opts->config.mode = AtmMode::FixedP;
      else return false;
    } else if (parse_flag(arg, "--p", &value)) {
      opts->config.fixed_p = std::strtod(value, nullptr);
    } else if (parse_flag(arg, "--threads", &value)) {
      opts->config.threads = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (parse_flag(arg, "--sched", &value)) {
      const std::string s = value;
      if (s == "steal") opts->config.sched = rt::SchedPolicy::Steal;
      else if (s == "central") opts->config.sched = rt::SchedPolicy::Central;
      else return false;
    } else if (parse_flag(arg, "--taskwait", &value)) {
      const std::string t = value;
      if (t == "help") opts->config.help_taskwait = true;
      else if (t == "park") opts->config.help_taskwait = false;
      else return false;
    } else if (parse_flag(arg, "--preset", &value)) {
      const std::string p = value;
      if (p == "test") opts->preset = Preset::Test;
      else if (p == "bench") opts->preset = Preset::Bench;
      else if (p == "paper") opts->preset = Preset::Paper;
      else return false;
    } else if (parse_flag(arg, "--no-ikt", &value)) {
      opts->config.use_ikt = false;
    } else if (parse_flag(arg, "--no-type-aware", &value)) {
      opts->config.type_aware = false;
    } else if (parse_flag(arg, "--verify-full-inputs", &value)) {
      opts->config.verify_full_inputs = true;
    } else if (parse_flag(arg, "--lru", &value)) {
      opts->config.eviction = EvictionPolicy::Lru;
    } else if (parse_flag(arg, "--l2-budget-mb", &value)) {
      opts->config.l2_enabled = true;
      opts->config.l2_budget_bytes =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10)) << 20;
    } else if (parse_flag(arg, "--l2-compress", &value)) {
      opts->config.l2_enabled = true;
      opts->config.l2_compress = true;
    } else if (parse_flag(arg, "--l2", &value)) {
      opts->config.l2_enabled = true;
    } else if (parse_flag(arg, "--save-store", &value)) {
      opts->config.save_store_path = value;
    } else if (parse_flag(arg, "--load-store", &value)) {
      opts->config.load_store_path = value;
    } else if (parse_flag(arg, "--n", &value)) {
      opts->config.log2_buckets = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (parse_flag(arg, "--m", &value)) {
      opts->config.bucket_capacity =
          static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (parse_flag(arg, "--tolerance-abs", &value)) {
      opts->config.tolerance_abs = std::strtod(value, nullptr);
    } else if (parse_flag(arg, "--tolerance", &value)) {
      if (value[0] == '\0') {
        opts->tol_preset = true;  // resolved per app in run_one
      } else {
        opts->config.tolerance_rel = std::strtod(value, nullptr);
      }
    } else if (parse_flag(arg, "--probes", &value)) {
      opts->config.tolerance_probes =
          static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (parse_flag(arg, "--noise", &value)) {
      opts->config.input_noise = std::strtod(value, nullptr);
    } else if (parse_flag(arg, "--trace-json", &value)) {
      opts->trace_json = value;
      opts->config.tracing = true;
    } else if (parse_flag(arg, "--trace", &value)) {
      opts->trace = true;
      opts->config.tracing = true;
    } else if (parse_flag(arg, "--stats-json", &value)) {
      opts->stats_json = value;
    } else if (parse_flag(arg, "--stats-interval", &value)) {
      opts->config.metrics_interval_ms = std::strtoull(value, nullptr, 10);
      opts->config.metrics_live = true;
    } else if (parse_flag(arg, "--metrics-json", &value)) {
      opts->metrics_json = value;
    } else if (parse_flag(arg, "--metrics-csv", &value)) {
      opts->metrics_csv = value;
    } else if (parse_flag(arg, "--profile-types", &value)) {
      opts->config.profile_max_types =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (parse_flag(arg, "--profile", &value)) {
      opts->config.profile_tasks = true;
    } else if (parse_flag(arg, "--stats", &value)) {
      opts->stats = true;
    } else if (parse_flag(arg, "--baseline", &value)) {
      opts->baseline = true;
    } else {
      return false;
    }
  }
  // The sampler series is what --metrics-json/--metrics-csv dump; start it
  // at a default period when the caller asked for the dump but no interval.
  if ((!opts->metrics_json.empty() || !opts->metrics_csv.empty()) &&
      opts->config.metrics_interval_ms == 0) {
    opts->config.metrics_interval_ms = 10;
  }
  return true;
}

void run_one(const App& app, const Options& opts, TablePrinter* table,
             TablePrinter* stats_table) {
  RunConfig config = opts.config;
  if (opts.tol_preset && config.tolerance_rel == 0.0) {
    config.tolerance_rel = app.tolerance_preset();
  }
  RunResult baseline;
  if (opts.baseline) {
    // Same inputs (the per-iteration jitter is deterministic), memoization
    // off: the exact reference for speedup and output error.
    RunConfig off = config;
    off.mode = AtmMode::Off;
    off.tracing = false;
    baseline = app.run(off);
  }
  const RunResult run = app.run(config);

  const bool l2 = opts.config.l2_enabled;
  const bool tol = config.tolerance_rel > 0.0 || config.tolerance_abs > 0.0;
  std::string tol_cell = "-";
  if (tol) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.0e/%u",
                  config.tolerance_abs > 0.0 ? config.tolerance_abs
                                             : config.tolerance_rel,
                  config.tolerance_probes);
    tol_cell = buf;
  }
  std::vector<std::string> row{
      app.name(),
      atm_mode_name(opts.config.mode),
      fmt_double(run.wall_seconds * 1e3, 1) + " ms",
      fmt_percent(run.reuse_fraction()),
      std::to_string(run.counters.submitted),
      std::to_string(run.atm.tht_hits),
      std::to_string(run.atm.ikt_hits),
      // L2 traffic: hits (all promoted) / demotions from THT evictions.
      l2 ? std::to_string(run.atm.l2_hits) + "/" + std::to_string(run.atm.l2_demotions)
         : "-",
      run.final_p > 0 ? fmt_percent(run.final_p, 4) : "-",
      fmt_bytes(run.atm_memory_bytes),
      // Resident store bytes (L2 payload + index), inside "ATM mem" above.
      l2 ? fmt_bytes(run.atm.l2_memory_bytes) : "-",
      // Tolerance matching: epsilon/probes and tolerance-path hit counts.
      tol_cell,
      tol ? std::to_string(run.atm.tolerance_hits) + "/" +
                std::to_string(run.atm.probe_hits)
          : "-",
  };
  if (opts.baseline) {
    row.push_back(fmt_speedup(baseline.wall_seconds / run.wall_seconds));
    row.push_back(fmt_double(correctness_percent(app.program_error(baseline, run)), 2) +
                  "%");
    // Measured max relative output error vs the exact reference (the bound
    // the tolerance epsilon promises to respect).
    const double max_rel = chebyshev_relative_error(
        std::span<const double>(baseline.output), std::span<const double>(run.output));
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", max_rel);
    row.emplace_back(buf);
  }
  table->add_row(std::move(row));

  if (stats_table != nullptr) {
    // Runtime observability: the two-level dependence-index counters (is
    // the submit path exact-dominated? are prune scans pathological?).
    stats_table->add_row({
        app.name(),
        std::to_string(run.atm.dep_exact_hits),
        std::to_string(run.atm.dep_tree_fallbacks),
        std::to_string(run.atm.prune_scans),
    });
  }

  if (opts.trace && !run.ascii_timeline.empty()) {
    std::printf("\n%s trace (.idle X exec h hash m memoize c create H help):\n%s",
                app.name().c_str(), run.ascii_timeline.c_str());
  }

  const bool multi = opts.app == "all";
  if (!opts.trace_json.empty() && !run.trace_lanes.empty()) {
    const std::string json =
        obs::chrome_trace_json(run.trace_lanes, run.trace_master_lane,
                               run.depth_samples,
                               sampler_counter_tracks(run.metrics_series));
    const std::string path = per_app_path(opts.trace_json, app.name(), multi);
    if (write_file(path, json)) {
      std::fprintf(stderr, "atm_run: wrote Chrome trace %s (load in ui.perfetto.dev)\n",
                   path.c_str());
    }
  }
  if (!opts.stats_json.empty()) {
    write_file(per_app_path(opts.stats_json, app.name(), multi),
               run.metrics.to_json());
  }
  if (!opts.metrics_json.empty()) {
    write_file(per_app_path(opts.metrics_json, app.name(), multi),
               run.metrics_series.to_json());
  }
  if (!opts.metrics_csv.empty()) {
    write_file(per_app_path(opts.metrics_csv, app.name(), multi),
               run.metrics_series.to_csv());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, &opts)) return usage(argv[0]);

  if (!opts.config.load_store_path.empty()) {
    // Validate the snapshot container up front (magic/version/endianness/
    // checksum — no entry materialization): a missing, truncated,
    // corrupted, version- or endianness-mismatched store must fail the run
    // with a clear diagnostic, not silently degrade into a cold start.
    // The engine performs the real load inside the run; the preflight
    // deliberately re-reads the file — checksumming here is what turns a
    // corrupted payload into exit 2 instead of the engine's warn-and-
    // continue, and the warm-start artifact is small relative to a run.
    std::string err;
    if (!store::validate(opts.config.load_store_path, &err)) {
      std::fprintf(stderr, "atm_run: --load-store failed: %s\n", err.c_str());
      return 2;
    }
  }

  std::vector<std::string> header{"Benchmark", "Mode",     "Wall",      "Reuse",
                                  "Tasks",     "THT hits", "IKT hits",  "L2 h/d",
                                  "p",         "ATM mem",  "Store mem", "Tol/Pr",
                                  "Tol h/p"};
  if (opts.baseline) {
    header.push_back("Speedup");
    header.push_back("Correctness");
    header.push_back("MaxRelErr");
  }
  TablePrinter table(std::move(header));
  TablePrinter stats_table({"Benchmark", "Dep exact", "Dep tree", "Prune scans"});

  TablePrinter* stats = opts.stats ? &stats_table : nullptr;
  if (opts.app == "all") {
    for (const auto& app : make_all_apps(opts.preset)) {
      run_one(*app, opts, &table, stats);
    }
  } else {
    const auto app = make_app(opts.app, opts.preset);
    if (app == nullptr) {
      std::fprintf(stderr, "unknown app '%s'\n", opts.app.c_str());
      return usage(argv[0]);
    }
    run_one(*app, opts, &table, stats);
  }
  table.print(std::cout);
  if (opts.stats) {
    std::printf("\nRuntime stats (two-level dependence index / steal scheduler):\n");
    stats_table.print(std::cout);
  }
  return 0;
}
