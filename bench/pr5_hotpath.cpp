// PR 5 hot-path benchmark: machine-readable numbers for the two-level
// dependence index (exact-interval table over the interval tree, with
// barrier-retained geometry) and the helping taskwait. Emits JSON (bench
// name -> ns/op plus derived ratios), consumed by
// `tools/run_benches.sh <build> json`, which writes BENCH_pr5.json.
//
//   pr5_hotpath [--out=PATH]     (default: JSON to stdout)
//
// Sections:
//   sched_storm_{central,steal}_tN   fine-grained task storm through the
//                                    full runtime, ns per task — same
//                                    harness and names as BENCH_pr4.json /
//                                    BENCH_pr3.json, so the files A/B
//                                    directly (re-measure the older build
//                                    on the same host before comparing
//                                    absolute numbers across machines)
//   wave_boundary_{help,park}_t1     taskwait-heavy few-core wave pattern
//                                    (2000 barriers x 32 tiny tasks) with
//                                    the helping barrier vs the parking
//                                    condvar barrier, ns per task
//   stream_submit_steal_tN           barrier-free 200k-task stream (eager
//                                    retirement + exact-index WAW chains)
//   stream_peak_arena_slots          records resident at the stream's peak
//   dep_{exact,tree}_<app>           two-level index counters from the
//                                    iterative apps (test preset, mode off)
//   tht_lookup_hit_t{1,4}            THT lookup continuity numbers
//   reuse_percent_blackscholes_static  sanity: memoization still reuses
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "atm/tht.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace atm;
using namespace atm::bench;

struct Entry {
  std::string name;
  double value = 0.0;
  const char* unit = "ns_per_op";
};

double storm_ns_per_task(rt::SchedPolicy sched, unsigned threads, int reps) {
  const std::size_t tasks = 20'000;
  const int waves = 5;
  const double rate = sched_storm_median(sched, threads, tasks, waves, reps);
  return 1e9 / rate;
}

/// Taskwait-heavy wave pattern on a few-core configuration: tiny waves, so
/// the barrier turnaround IS the workload. help=true lets the master drain
/// and steal through the scheduler's helper lane; help=false parks it on
/// the PR-4 condvar. Median ns/task over reps.
double wave_boundary_ns_per_task(bool help, int reps) {
  const int waves = 2'000;
  constexpr std::size_t kTasks = 32;
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    rt::Runtime runtime({.num_threads = 1, .help_taskwait = help});
    const auto* type =
        runtime.register_type({.name = "fine", .memoizable = false, .atm = {}});
    std::vector<float> cells(kTasks, 1.0f);
    Timer timer;
    for (int w = 0; w < waves; ++w) {
      for (std::size_t i = 0; i < kTasks; ++i) {
        float* cell = &cells[i];
        runtime.submit(type,
                       [cell] {
                         float x = *cell;
                         for (int k = 0; k < 16; ++k) x = x * 1.0001f + 0.0001f;
                         *cell = x;
                       },
                       {rt::inout(cell, 1)});
      }
      runtime.taskwait();
    }
    const double secs = timer.elapsed_s();
    rates.push_back(static_cast<double>(kTasks) * waves / secs);
  }
  std::sort(rates.begin(), rates.end());
  return 1e9 / rates[rates.size() / 2];
}

/// Barrier-free stream: one taskwait at the very end. Measures the eager-
/// retirement submit path (every re-touched cell is an exact-index WAW
/// chain) and samples the arena's peak occupancy.
double stream_ns_per_task(unsigned threads, int reps, std::size_t* peak_slots) {
  const std::size_t tasks = 200'000;
  const std::size_t kCells = 1024;
  std::vector<double> rates;
  *peak_slots = 0;
  for (int r = 0; r < reps; ++r) {
    rt::Runtime runtime({.num_threads = threads, .sched = rt::SchedPolicy::Steal});
    const auto* type =
        runtime.register_type({.name = "fine", .memoizable = false, .atm = {}});
    std::vector<float> cells(kCells, 1.0f);
    Timer timer;
    for (std::size_t i = 0; i < tasks; ++i) {
      float* cell = &cells[i % kCells];
      runtime.submit(type, [cell] { *cell += 1.0f; }, {rt::inout(cell, 1)});
      if ((i & 0x3fff) == 0) {
        *peak_slots = std::max(*peak_slots, runtime.arena_stats().slots);
      }
    }
    runtime.taskwait();
    const double secs = timer.elapsed_s();
    *peak_slots = std::max(*peak_slots, runtime.arena_stats().slots);
    rates.push_back(static_cast<double>(tasks) / secs);
  }
  std::sort(rates.begin(), rates.end());
  return 1e9 / rates[rates.size() / 2];
}

/// THT steady-state hit path: lookup_and_copy on a prefilled table, with
/// `threads` concurrent readers hammering disjoint key streams.
double tht_lookup_hit_ns(unsigned threads) {
  constexpr std::size_t kEntries = 1024;
  constexpr std::size_t kFloats = 64;  // 256-byte snapshots
  TaskHistoryTable tht(/*log2_buckets=*/8, /*bucket_capacity=*/16);
  std::vector<float> producer_out(kFloats, 1.5f);
  rt::Task producer;
  producer.id = 1;
  producer.accesses.push_back(rt::out(producer_out.data(), producer_out.size()));
  for (std::size_t k = 0; k < kEntries; ++k) {
    tht.insert(/*type_id=*/0, /*key=*/splitmix64(k), /*p=*/0.25, producer);
  }

  constexpr int kOpsPerThread = 200'000;
  std::vector<std::thread> readers;
  Timer timer;
  for (unsigned t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<float> sink(kFloats, 0.0f);
      rt::Task consumer;
      consumer.accesses.push_back(rt::out(sink.data(), sink.size()));
      std::uint64_t hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const HashKey key = splitmix64((t * 7919 + i) % kEntries);
        rt::TaskId creator = 0;
        std::uint64_t c0 = 0, c1 = 0;
        hits += tht.lookup_and_copy(0, key, 0.25, consumer, &creator, &c0, &c1);
      }
      if (hits != kOpsPerThread) {
        std::fprintf(stderr, "pr5_hotpath: THT lookup missed (%llu/%d)\n",
                     static_cast<unsigned long long>(hits), kOpsPerThread);
      }
    });
  }
  for (auto& t : readers) t.join();
  const double secs = timer.elapsed_s();
  return secs * 1e9 / (static_cast<double>(kOpsPerThread) * threads);
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

  // --- Scheduler: fine-grained storm (names match BENCH_pr4/pr3.json) ------
  const double central_hw = storm_ns_per_task(rt::SchedPolicy::Central, hw, reps);
  const double steal_hw = storm_ns_per_task(rt::SchedPolicy::Steal, hw, reps);
  entries.push_back({"sched_storm_central_t" + std::to_string(hw), central_hw});
  entries.push_back({"sched_storm_steal_t" + std::to_string(hw), steal_hw});
  const unsigned contended = std::max(4u, hw);
  const double central_c = storm_ns_per_task(rt::SchedPolicy::Central, contended, reps);
  const double steal_c = storm_ns_per_task(rt::SchedPolicy::Steal, contended, reps);
  entries.push_back({"sched_storm_central_t" + std::to_string(contended), central_c});
  entries.push_back({"sched_storm_steal_t" + std::to_string(contended), steal_c});

  // --- Wave boundary: helping vs parking taskwait ---------------------------
  const double wave_help = wave_boundary_ns_per_task(/*help=*/true, reps);
  const double wave_park = wave_boundary_ns_per_task(/*help=*/false, reps);
  entries.push_back({"wave_boundary_help_t1", wave_help});
  entries.push_back({"wave_boundary_park_t1", wave_park});

  // --- Barrier-free stream (eager retirement + exact WAW chains) ------------
  std::size_t peak_slots = 0;
  const double stream_ns = stream_ns_per_task(hw, reps, &peak_slots);
  entries.push_back({"stream_submit_steal_t" + std::to_string(hw), stream_ns});
  entries.push_back({"stream_peak_arena_slots", static_cast<double>(peak_slots),
                     "slots"});

  // --- Two-level index on the iterative apps (mode off, test preset) --------
  std::uint64_t exact_total = 0, tree_total = 0;
  const struct { const char* app; const char* key; } kIterative[] = {
      {"gauss-seidel", "gs"}, {"jacobi", "jacobi"}, {"kmeans", "kmeans"}};
  for (const auto& it : kIterative) {
    const auto app = apps::make_app(it.app, apps::Preset::Test);
    RunConfig cfg{.threads = hw, .mode = AtmMode::Off};
    const RunResult run = app->run(cfg);
    entries.push_back({std::string("dep_exact_") + it.key,
                       static_cast<double>(run.atm.dep_exact_hits), "count"});
    entries.push_back({std::string("dep_tree_") + it.key,
                       static_cast<double>(run.atm.dep_tree_fallbacks), "count"});
    exact_total += run.atm.dep_exact_hits;
    tree_total += run.atm.dep_tree_fallbacks;
  }

  // --- THT lookup continuity -------------------------------------------------
  entries.push_back({"tht_lookup_hit_t1", tht_lookup_hit_ns(1)});
  entries.push_back({"tht_lookup_hit_t4", tht_lookup_hit_ns(4)});

  // --- Reuse sanity: the submit-path rework must not break memoization ------
  const auto app = apps::make_app("blackscholes", apps::Preset::Test);
  RunConfig cfg{.threads = hw, .sched = rt::SchedPolicy::Steal,
                .mode = AtmMode::Static};
  const RunResult run = app->run(cfg);
  entries.push_back(
      {"reuse_percent_blackscholes_static", 100.0 * run.reuse_fraction(), "percent"});
  entries.push_back({"key_gather_oob", static_cast<double>(run.atm.key_gather_oob),
                     "count"});

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "pr5_hotpath: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"pr\": 5,\n");
  std::fprintf(out, "  \"generated_by\": \"bench/pr5_hotpath\",\n");
  std::fprintf(out,
               "  \"baseline\": \"BENCH_pr4.json (same storm/stream names; re-run "
               "the pr4 build on the same host for drift-free A/B)\",\n");
  std::fprintf(out,
               "  \"drift_note\": \"container clocks drift between merges: do NOT "
               "compare raw ns across BENCH_prN.json files recorded at different "
               "times. The acceptance A/B protocol is interleaved same-host runs "
               "of both builds (see docs/BENCHMARKS.md, pr5 section, for the "
               "merge-time medians: pr4 273.9 ns -> pr5 235.8 ns per storm task, "
               "1.16x, over 10 alternating rounds).\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"reps\": %d,\n", reps);
  std::fprintf(out, "  \"benches\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "    \"%s\": {\"%s\": %.1f}%s\n", entries[i].name.c_str(),
                 entries[i].unit, entries[i].value,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"derived\": {\n");
  std::fprintf(out,
               "    \"storm_steal_over_central_at_max_hw\": %.2f,\n"
               "    \"storm_steal_over_central_contended_t%u\": %.2f,\n"
               "    \"wave_boundary_help_over_park\": %.2f,\n"
               "    \"dep_exact_over_tree_iterative_apps\": %.2f,\n"
               "    \"stream_over_storm_steal\": %.2f\n",
               central_hw / steal_hw, contended, central_c / steal_c,
               wave_park / wave_help,
               tree_total > 0 ? static_cast<double>(exact_total) /
                                    static_cast<double>(tree_total)
                              : 0.0,
               steal_hw / stream_ns);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "pr5_hotpath: storm steal t%u = %.1f ns/task (central %.1f), "
               "wave help/park = %.1f/%.1f ns, stream = %.1f ns/task (peak %zu "
               "slots), dep exact/tree = %llu/%llu, reuse = %.1f%%\n",
               hw, steal_hw, central_hw, wave_help, wave_park, stream_ns,
               peak_slots, static_cast<unsigned long long>(exact_total),
               static_cast<unsigned long long>(tree_total),
               100.0 * run.reuse_fraction());
  return 0;
}
