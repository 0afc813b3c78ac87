// PR 3 hot-path benchmark: machine-readable numbers for the scheduler and
// hash-key changes. Emits JSON (bench name -> ns/op plus derived ratios and
// the reuse check), consumed by `tools/run_benches.sh <build> json`, which
// writes BENCH_pr3.json — the start of the checked-in perf trajectory.
//
//   pr3_hotpath [--out=PATH]     (default: JSON to stdout)
//
// Sections:
//   sched_storm_{central,steal}_tN   fine-grained task storm through the
//                                    full runtime, ns per task
//   sched_pushpop_{central,steal}    raw scheduler push+pop pair, one worker
//   compute_key_planned_pP           key over the coalesced plan of a
//                                    six-region task at p = P
//   reuse_percent_blackscholes_static  sanity: memoization still reuses
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

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

double pushpop_ns(rt::SchedPolicy policy, std::size_t push_lane) {
  auto sched = rt::Scheduler::make(policy, /*workers=*/1, nullptr);
  rt::Task task;
  constexpr int kOps = 400'000;
  Timer timer;
  for (int i = 0; i < kOps; ++i) {
    sched->push(&task, push_lane);
    (void)sched->try_pop(0);
  }
  const double secs = timer.elapsed_s();
  sched->shutdown();
  return secs * 1e9 / kOps;
}

double key_ns(MultiRegionKeyFixture& fx, double p) {
  const GatherPlan& plan = fx.sampler.plan_for(0, InputLayout::from_task(fx.task), p);
  const std::uint64_t seed = 4;
  // Calibrate the iteration count so each measurement runs ~0.2 s.
  int iters = 64;
  volatile HashKey sink = 0;
  for (;;) {
    Timer timer;
    for (int i = 0; i < iters; ++i) {
      sink = compute_key(fx.task, plan, seed).key;
    }
    (void)sink;
    const double secs = timer.elapsed_s();
    if (secs >= 0.2 || iters >= (1 << 20)) return secs * 1e9 / iters;
    iters *= 4;
  }
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

  // --- Scheduler: fine-grained storm ---------------------------------------
  // Measured at the hardware thread count (the acceptance point) and at a
  // contended count (>= 4 workers; oversubscribed on small machines): the
  // central queue's collapse under contention is the ceiling the steal
  // scheduler removes, and it must be visible even when hw == 1.
  const double central_hw = storm_ns_per_task(rt::SchedPolicy::Central, hw, reps);
  const double steal_hw = storm_ns_per_task(rt::SchedPolicy::Steal, hw, reps);
  entries.push_back({"sched_storm_central_t" + std::to_string(hw), central_hw});
  entries.push_back({"sched_storm_steal_t" + std::to_string(hw), steal_hw});
  const unsigned contended = std::max(4u, hw);
  const double central_c = storm_ns_per_task(rt::SchedPolicy::Central, contended, reps);
  const double steal_c = storm_ns_per_task(rt::SchedPolicy::Steal, contended, reps);
  entries.push_back({"sched_storm_central_t" + std::to_string(contended), central_c});
  entries.push_back({"sched_storm_steal_t" + std::to_string(contended), steal_c});

  // --- Scheduler: raw push/pop pair (1 worker; local + external lanes) ------
  entries.push_back({"sched_pushpop_central", pushpop_ns(rt::SchedPolicy::Central, 0)});
  entries.push_back({"sched_pushpop_steal_local", pushpop_ns(rt::SchedPolicy::Steal, 0)});
  entries.push_back({"sched_pushpop_steal_external",
                     pushpop_ns(rt::SchedPolicy::Steal, 1)});

  // --- Hash key over the coalesced plan -------------------------------------
  MultiRegionKeyFixture fx;
  for (double p : {0.05, 0.1, 0.3}) {
    char label[64];
    std::snprintf(label, sizeof label, "compute_key_planned_p%.2f", p);
    entries.push_back({label, key_ns(fx, p)});
  }

  // --- Reuse sanity: the scheduler change must not break memoization --------
  const auto app = apps::make_app("blackscholes", apps::Preset::Test);
  RunConfig cfg{.threads = hw, .sched = rt::SchedPolicy::Steal,
                .mode = AtmMode::Static};
  const RunResult run = app->run(cfg);
  entries.push_back(
      {"reuse_percent_blackscholes_static", 100.0 * run.reuse_fraction(), "percent"});

  const double storm_speedup = central_hw / steal_hw;

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "pr3_hotpath: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"pr\": 3,\n");
  std::fprintf(out, "  \"generated_by\": \"bench/pr3_hotpath\",\n");
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
               "    \"storm_steal_over_central_contended_t%u\": %.2f\n",
               storm_speedup, contended, central_c / steal_c);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr, "pr3_hotpath: storm steal/central = %.2fx, reuse = %.1f%%\n",
               storm_speedup, 100.0 * run.reuse_fraction());
  return 0;
}
