// PR 7 observability benchmark: machine-readable numbers for the unified
// MetricsRegistry and its runtime integration. Emits JSON (bench name ->
// value), consumed by `tools/run_benches.sh <build> json`, which writes
// BENCH_pr7.json.
//
//   pr7_observability [--out=PATH]     (default: JSON to stdout)
//
// Sections:
//   sched_storm_{central,steal}_tN    same harness and names as
//                                     BENCH_pr6/pr5.json — the default
//                                     configuration (metrics collectors
//                                     registered). Cross-PR A/B requires
//                                     interleaved same-host runs of both
//                                     builds (see drift_note).
//   sched_storm_steal_nometrics_tN    RuntimeConfig::metrics = false: no
//                                     collectors on the registry. The
//                                     within-file A/B for the "metrics-
//                                     enabled <= 3%" acceptance gate.
//   sched_storm_steal_profile_tN      profile_tasks = true plus a 1ms
//                                     background sampler: the worst-case
//                                     fully-instrumented configuration
//                                     (two clock reads per ~240ns task).
//   obs_counter_inc_ns                one sharded Counter::inc()
//   obs_hist_record_ns                one LatencyHistogram::record()
//   obs_registry_snapshot_ns          full registry snapshot at a realistic
//                                     metric count (the sampler's per-tick
//                                     cost, off the hot path)
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace atm;
using namespace atm::bench;

struct Entry {
  std::string name;
  double value = 0.0;
  const char* unit = "ns_per_op";
};

constexpr std::size_t kStormTasks = 20'000;
constexpr int kStormWaves = 5;

/// The gated A/B: one run of each config per round, interleaved, so drift
/// cancels out of the ratios. Returns ns/task medians, one per config.
std::vector<double> storm_ab_ns_per_task(
    const std::vector<rt::RuntimeConfig>& cfgs, int reps) {
  std::vector<double> medians =
      sched_storm_medians_interleaved(cfgs, kStormTasks, kStormWaves, reps);
  for (double& m : medians) m = 1e9 / m;
  return medians;
}

/// Median ns of one call over `iters` calls, `reps` repetitions.
template <typename Fn>
double op_ns(int reps, std::size_t iters, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    times.push_back(timer.elapsed_s() * 1e9 / static_cast<double>(iters));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int reps = default_reps();
  std::vector<Entry> entries;

  // --- storm A/B: default vs collectors-off vs fully instrumented ----------
  const rt::RuntimeConfig central{.num_threads = hw,
                                  .sched = rt::SchedPolicy::Central};
  rt::RuntimeConfig steal{.num_threads = hw, .sched = rt::SchedPolicy::Steal};
  rt::RuntimeConfig nometrics = steal;
  nometrics.metrics = false;
  rt::RuntimeConfig profiled = steal;
  profiled.profile_tasks = true;
  profiled.metrics_interval_ms = 1;

  // Interleave the three gated configurations (one run of each per round);
  // the central storm rides the same rotation for cross-file continuity.
  const std::vector<double> ab =
      storm_ab_ns_per_task({steal, nometrics, profiled, central}, reps);
  const double steal_hw = ab[0];
  const double nometrics_hw = ab[1];
  const double profile_hw = ab[2];
  const double central_hw = ab[3];
  entries.push_back({"sched_storm_central_t" + std::to_string(hw), central_hw});
  entries.push_back({"sched_storm_steal_t" + std::to_string(hw), steal_hw});
  entries.push_back(
      {"sched_storm_steal_nometrics_t" + std::to_string(hw), nometrics_hw});
  entries.push_back(
      {"sched_storm_steal_profile_t" + std::to_string(hw), profile_hw});
  // Oversubscribed (threads > cores on CI): the contended point pr5/6 track.
  const unsigned contended = 4;
  if (contended != hw) {
    rt::RuntimeConfig steal4 = steal;
    steal4.num_threads = contended;
    rt::RuntimeConfig nometrics4 = nometrics;
    nometrics4.num_threads = contended;
    const rt::RuntimeConfig central4{.num_threads = contended,
                                     .sched = rt::SchedPolicy::Central};
    const std::vector<double> ab4 =
        storm_ab_ns_per_task({steal4, nometrics4, central4}, reps);
    entries.push_back(
        {"sched_storm_central_t" + std::to_string(contended), ab4[2]});
    entries.push_back(
        {"sched_storm_steal_t" + std::to_string(contended), ab4[0]});
    entries.push_back(
        {"sched_storm_steal_nometrics_t" + std::to_string(contended), ab4[1]});
  }

  // --- instrument micro-costs ----------------------------------------------
  obs::MetricsRegistry reg;
  obs::Counter* counter = reg.counter("bench.counter");
  obs::LatencyHistogram* hist = reg.histogram("bench.hist");
  const double inc_ns =
      op_ns(reps, 10'000'000, [&](std::size_t) { counter->inc(); });
  const double record_ns =
      op_ns(reps, 10'000'000, [&](std::size_t i) { hist->record(i & 0xffff); });
  entries.push_back({"obs_counter_inc_ns", inc_ns});
  entries.push_back({"obs_hist_record_ns", record_ns});

  // A registry populated like a real run (Runtime + engine collectors export
  // ~50 metrics; give the synthetic one the same order of magnitude).
  for (int i = 0; i < 40; ++i) {
    reg.counter("bench.c" + std::to_string(i));
    reg.gauge("bench.g" + std::to_string(i));
  }
  reg.add_collector([](obs::SampleSink& sink) {
    for (int i = 0; i < 10; ++i) {
      sink.counter("bench.ext" + std::to_string(i), 42);
    }
  });
  double snap_sink = 0.0;
  const double snapshot_ns = op_ns(reps, 2'000, [&](std::size_t) {
    snap_sink += static_cast<double>(reg.snapshot().metrics.size());
  });
  if (snap_sink < 0) std::fprintf(stderr, ".");  // defeat dead-code elimination
  entries.push_back({"obs_registry_snapshot_ns", snapshot_ns});

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "pr7_observability: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"pr\": 7,\n");
  std::fprintf(out, "  \"generated_by\": \"bench/pr7_observability\",\n");
  std::fprintf(out,
               "  \"baseline\": \"BENCH_pr6.json (same storm names; re-run the "
               "pr6 build on the same host for drift-free A/B)\",\n");
  std::fprintf(out,
               "  \"drift_note\": \"container clocks drift between merges: do NOT "
               "compare raw ns across BENCH_prN.json files recorded at different "
               "times. The acceptance A/B protocol is interleaved same-host runs "
               "of both builds (see docs/BENCHMARKS.md, pr7 section). The "
               "metrics-on/off gates below are within-file, same-run ratios.\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"reps\": %d,\n", reps);
  std::fprintf(out, "  \"benches\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "    \"%s\": {\"%s\": %.6g}%s\n", entries[i].name.c_str(),
                 entries[i].unit, entries[i].value,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"derived\": {\n");
  std::fprintf(out,
               "    \"storm_metrics_over_nometrics\": %.3f,\n"
               "    \"storm_profile_over_metrics\": %.3f,\n"
               "    \"storm_profile_over_nometrics\": %.3f\n",
               steal_hw / nometrics_hw, profile_hw / steal_hw,
               profile_hw / nometrics_hw);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "pr7_observability: storm steal t%u = %.1f ns/task (nometrics "
               "%.1f, profiled %.1f; on/off ratio %.3f), counter inc %.2f ns, "
               "hist record %.2f ns, snapshot %.0f ns\n",
               hw, steal_hw, nometrics_hw, profile_hw, steal_hw / nometrics_hw,
               inc_ns, record_ns, snapshot_ns);
  return 0;
}
