// Scale-out benchmark for the work-stealing scheduler: machine-readable
// numbers for oversubscribed and high-worker-count storms, where steal
// sweeps and task transfer dominate. (The steal-half transfer, victim rings
// and steal backoff it was first written for have since been removed; see
// docs/BENCHMARKS.md.) Emits JSON consumed by
// `tools/run_benches.sh <build> json`, which writes BENCH_pr10.json.
//
//   pr10_scale [--out=PATH]     (default: JSON to stdout)
//
// Sections:
//   sched_storm_{central,steal}_t{1,4}
//                                    fine-grained task storm, ns per task —
//                                    same harness and names as
//                                    BENCH_pr5/pr7.json (t1/t4 continuity
//                                    gate: <= 1.03x regression vs PR 9)
//   sched_storm_steal_oversub_t{8,16}
//                                    8- and 16-lane storm configs
//   sched_acquire_storm_lN           scheduler-level contended acquisition
//                                    storm (producer lane + N-1 thieves,
//                                    tasks acquired but never executed):
//                                    ns per acquisition. The runtime-level
//                                    storms are submission-bound on small
//                                    hosts (t1 == t8 ns/task), which hides
//                                    the acquisition path; this config
//                                    measures it directly
//   sched_steal_batch_*              steal-batch-size histogram stats from
//                                    the 16-lane storm (1 per deque steal,
//                                    the chain length per inbox adoption)
//
// Lane counts are fixed, not derived from hardware_concurrency(), so every
// host writes the same bench names (the host's thread count is recorded in
// "hardware_threads"). On a host with fewer cores than lanes the storms
// time-slice rather than contend in parallel.
//
// All storm configs within one section run INTERLEAVED (round-robin one rep
// of each config per round) so machine drift lands on every config equally
// — the same protocol the cross-build BENCH A/Bs use.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/scheduler.hpp"

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

/// Steal-batch histogram stats after an oversubscribed storm through the
/// full runtime (the registry owns the histogram; the scheduler records
/// into it on every successful steal).
struct StealHistStats {
  double batch_mean = 0.0;
  double batch_p95 = 0.0;
  std::uint64_t batch_count = 0;
};

StealHistStats oversub_steal_hist(unsigned workers) {
  rt::Runtime runtime({.num_threads = workers, .sched = rt::SchedPolicy::Steal});
  const auto* type =
      runtime.register_type({.name = "fine", .memoizable = false, .atm = {}});
  // Nested submissions: children are owner pushes into the submitting
  // worker's deque (not the external inboxes), so worker deques build the
  // backlogs thieves steal from — the path the steal-batch histogram
  // instruments.
  constexpr std::size_t kRoots = 256;
  constexpr int kChildren = 16;
  std::vector<float> cells(kRoots * (kChildren + 1), 1.0f);
  for (int w = 0; w < kStormWaves; ++w) {
    for (std::size_t i = 0; i < kRoots; ++i) {
      float* base = &cells[i * (kChildren + 1)];
      rt::Runtime* rtp = &runtime;
      const rt::TaskType* tp = type;
      runtime.submit(type,
                     [rtp, tp, base] {
                       *base += 1.0f;
                       for (int c = 1; c <= kChildren; ++c) {
                         float* cell = base + c;
                         rtp->submit(tp, [cell] { *cell += 1.0f; },
                                     {rt::inout(cell, 1)});
                       }
                     },
                     {rt::inout(base, 1)});
    }
    runtime.taskwait();
  }
  StealHistStats stats;
  const obs::RegistrySnapshot snap = runtime.metrics().snapshot();
  if (const obs::MetricSample* m = snap.find("sched.steal_batch_size")) {
    stats.batch_mean = m->hist.mean;
    stats.batch_p95 = m->hist.p95;
    stats.batch_count = m->hist.count;
  }
  return stats;
}

/// Scheduler-level contended acquisition storm: lane 0 owner-pushes a deque
/// backlog; every other lane drains through try_pop (steal sweep + private
/// consume), and lane 0 helps drain its own. Tasks are acquired but never
/// executed, so the measured ns/task IS the acquisition path. One run, ns
/// per acquired task.
double acquire_storm_ns(unsigned lanes) {
  constexpr std::size_t kTasks = 100'000;
  constexpr int kWaves = 5;
  rt::StealScheduler sched(lanes, nullptr);
  std::vector<rt::Task> tasks(kTasks);
  std::atomic<std::size_t> consumed{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(lanes - 1);
  for (unsigned lane = 1; lane < lanes; ++lane) {
    thieves.emplace_back([&sched, &consumed, &done, lane] {
      while (!done.load(std::memory_order_relaxed)) {
        if (sched.try_pop(lane) != nullptr) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t target = 0;
  for (int w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < kTasks; ++i) sched.push(&tasks[i], 0);
    target += kTasks;
    while (consumed.load(std::memory_order_relaxed) < target) {
      if (sched.try_pop(0) != nullptr) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : thieves) t.join();
  return 1e9 * secs / (static_cast<double>(kTasks) * kWaves);
}

/// Interleaved medians of the acquisition storm over several lane counts:
/// one rep of each config per round, the same drift-cancelling protocol as
/// the runtime storm blocks.
std::vector<double> acquire_storm_medians(const std::vector<unsigned>& lane_cfgs,
                                          int reps) {
  std::vector<std::vector<double>> samples(lane_cfgs.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < lane_cfgs.size(); ++c) {
      samples[c].push_back(acquire_storm_ns(lane_cfgs[c]));
    }
  }
  std::vector<double> medians(lane_cfgs.size());
  for (std::size_t c = 0; c < lane_cfgs.size(); ++c) {
    std::sort(samples[c].begin(), samples[c].end());
    medians[c] = samples[c][samples[c].size() / 2];
  }
  return medians;
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

  // --- Continuity storms (t1/t4 names match BENCH_pr5/pr7.json) -------------
  // One interleaved block over all four configs: central/steal at one and at
  // four lanes, so the continuity ratios are drift-free.
  {
    const std::vector<rt::RuntimeConfig> cfgs = {
        {.num_threads = 1, .sched = rt::SchedPolicy::Central},
        {.num_threads = 1, .sched = rt::SchedPolicy::Steal},
        {.num_threads = 4, .sched = rt::SchedPolicy::Central},
        {.num_threads = 4, .sched = rt::SchedPolicy::Steal},
    };
    const std::vector<double> rates =
        sched_storm_medians_interleaved(cfgs, kStormTasks, kStormWaves, reps);
    entries.push_back({"sched_storm_central_t1", 1e9 / rates[0]});
    entries.push_back({"sched_storm_steal_t1", 1e9 / rates[1]});
    entries.push_back({"sched_storm_central_t4", 1e9 / rates[2]});
    entries.push_back({"sched_storm_steal_t4", 1e9 / rates[3]});
  }

  // --- Oversubscribed / high-lane-count storms (the PR 10 win surface) ------
  // More lanes than cores: lanes time-slice, so every wasted steal sweep
  // burns a quantum some other lane needed. 16 lanes exercises wide steal
  // sweeps.
  constexpr unsigned kOversub = 8;
  constexpr unsigned kWide = 16;
  double oversub_ns = 0.0, wide_ns = 0.0;
  {
    const std::vector<rt::RuntimeConfig> cfgs = {
        {.num_threads = kOversub, .sched = rt::SchedPolicy::Steal},
        {.num_threads = kWide, .sched = rt::SchedPolicy::Steal},
    };
    const std::vector<double> rates =
        sched_storm_medians_interleaved(cfgs, kStormTasks, kStormWaves, reps);
    oversub_ns = 1e9 / rates[0];
    wide_ns = 1e9 / rates[1];
    entries.push_back({"sched_storm_steal_oversub_t8", oversub_ns});
    entries.push_back({"sched_storm_steal_oversub_t16", wide_ns});
  }

  // --- Contended acquisition storms (scheduler-level A/B surface) -----------
  double acquire_l8 = 0.0, acquire_l16 = 0.0;
  {
    const std::vector<double> medians = acquire_storm_medians({8u, 16u}, reps);
    acquire_l8 = medians[0];
    acquire_l16 = medians[1];
    entries.push_back({"sched_acquire_storm_l8", acquire_l8});
    entries.push_back({"sched_acquire_storm_l16", acquire_l16});
  }

  // --- Steal-batch histogram ------------------------------------------------
  const StealHistStats hist = oversub_steal_hist(kWide);
  entries.push_back({"sched_steal_batch_mean", hist.batch_mean, "tasks"});
  entries.push_back({"sched_steal_batch_p95", hist.batch_p95, "tasks"});
  entries.push_back(
      {"sched_steal_batches", static_cast<double>(hist.batch_count), "count"});

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "pr10_scale: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"pr\": 10,\n");
  std::fprintf(out, "  \"generated_by\": \"bench/pr10_scale\",\n");
  std::fprintf(out,
               "  \"baseline\": \"BENCH_pr7.json (sched_storm_{central,steal}_tN "
               "continuity names; re-run the older build on the same host for "
               "drift-free A/B)\",\n");
  std::fprintf(out,
               "  \"drift_note\": \"container clocks drift between merges: do NOT "
               "compare raw ns across BENCH_prN.json files recorded at different "
               "times. The acceptance A/B protocol is interleaved same-host runs "
               "of both builds; see docs/BENCHMARKS.md (pr10 section) for the "
               "merge-time medians on the oversubscribed storm configs.\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"reps\": %d,\n", reps);
  std::fprintf(out, "  \"benches\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(out, "    \"%s\": {\"%s\": %.2f}%s\n", entries[i].name.c_str(),
                 entries[i].unit, entries[i].value,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"derived\": {\n");
  std::fprintf(out,
               "    \"oversub_over_wide\": %.2f,\n"
               "    \"steal_batch_mean_tasks\": %.2f\n",
               wide_ns > 0.0 ? oversub_ns / wide_ns : 0.0, hist.batch_mean);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "pr10_scale: oversub t%u = %.1f ns/task, wide t%u = %.1f ns/task, "
               "acquire storm l8 = %.1f ns (l16 = %.1f), "
               "steal batches = %llu (mean %.1f tasks)\n",
               kOversub, oversub_ns, kWide, wide_ns, acquire_l8, acquire_l16,
               static_cast<unsigned long long>(hist.batch_count), hist.batch_mean);
  return 0;
}
