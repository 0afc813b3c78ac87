// Shared infrastructure for the table/figure harnesses: repeated runs with
// median timing (the evaluation container is noisy), oracle p-search, and
// uniform headers. Every bench binary runs argument-less; scale/threads/
// repetitions come from ATM_SCALE, ATM_THREADS and ATM_REPS.
#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"

namespace atm::bench {

using apps::App;
using apps::Preset;
using apps::RunConfig;
using apps::RunResult;

[[nodiscard]] inline unsigned default_threads() {
  return static_cast<unsigned>(env_long("ATM_THREADS", 2));
}

[[nodiscard]] inline int default_reps() {
  return static_cast<int>(env_long("ATM_REPS", 3));
}

/// Run `app` under `config` `reps` times; returns the run whose wall time is
/// the median (ATM state is rebuilt per run, so any repetition is a faithful
/// sample).
[[nodiscard]] inline RunResult run_median(const App& app, const RunConfig& config,
                                          int reps) {
  std::vector<RunResult> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) runs.push_back(app.run(config));
  std::sort(runs.begin(), runs.end(), [](const RunResult& a, const RunResult& b) {
    return a.wall_seconds < b.wall_seconds;
  });
  return std::move(runs[runs.size() / 2]);
}

/// Fine-grained (small-task) scheduler preset: `num_tasks` independent tiny
/// tasks per wave — each a ~64-FLOP kernel, far below the paper's task
/// sizes — across `waves` taskwait barriers. At this grain the per-task
/// runtime overhead IS the workload, so the returned tasks/second measures
/// the scheduler hot path (central RQ vs work stealing), not the kernels.
[[nodiscard]] inline double sched_storm_tasks_per_sec(const rt::RuntimeConfig& cfg,
                                                      std::size_t num_tasks,
                                                      int waves) {
  rt::Runtime runtime(cfg);
  const auto* type =
      runtime.register_type({.name = "fine", .memoizable = false, .atm = {}});
  std::vector<float> cells(num_tasks, 1.0f);
  Timer timer;
  for (int w = 0; w < waves; ++w) {
    for (std::size_t i = 0; i < num_tasks; ++i) {
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
  return static_cast<double>(num_tasks) * waves / secs;
}

[[nodiscard]] inline double sched_storm_tasks_per_sec(rt::SchedPolicy sched,
                                                      unsigned threads,
                                                      std::size_t num_tasks,
                                                      int waves) {
  return sched_storm_tasks_per_sec({.num_threads = threads, .sched = sched},
                                   num_tasks, waves);
}

/// Median tasks/second of `reps` storm runs under an arbitrary RuntimeConfig
/// (pr7 A/Bs the observability knobs: metrics off, task profiling, sampler).
[[nodiscard]] inline double sched_storm_median(const rt::RuntimeConfig& cfg,
                                               std::size_t num_tasks, int waves,
                                               int reps) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    rates.push_back(sched_storm_tasks_per_sec(cfg, num_tasks, waves));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// Interleaved storm A/B over N configurations: round-robin one run of each
/// config per round so slow machine drift hits every config equally instead
/// of landing in the ratios (the same protocol the cross-PR BENCH A/Bs use,
/// applied within one process). Returns the per-config medians.
[[nodiscard]] inline std::vector<double> sched_storm_medians_interleaved(
    const std::vector<rt::RuntimeConfig>& cfgs, std::size_t num_tasks,
    int waves, int reps) {
  std::vector<std::vector<double>> rates(cfgs.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
      rates[c].push_back(sched_storm_tasks_per_sec(cfgs[c], num_tasks, waves));
    }
  }
  std::vector<double> medians(cfgs.size());
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    std::sort(rates[c].begin(), rates[c].end());
    medians[c] = rates[c][rates[c].size() / 2];
  }
  return medians;
}

/// Median tasks/second of `reps` storm runs.
[[nodiscard]] inline double sched_storm_median(rt::SchedPolicy sched, unsigned threads,
                                               std::size_t num_tasks, int waves,
                                               int reps) {
  return sched_storm_median({.num_threads = threads, .sched = sched}, num_tasks,
                            waves, reps);
}

/// Six float input regions (the Blackscholes shape) for the planned
/// compute_key benches. Shared by micro_atm and pr3_hotpath so both
/// harnesses measure exactly the same workload and their numbers stay
/// comparable.
struct MultiRegionKeyFixture {
  static constexpr std::size_t kRegions = 6;
  static constexpr std::size_t kFloatsPerRegion = 4096;
  std::vector<std::vector<float>> regions{kRegions};
  rt::Task task;
  InputSampler sampler{true, 3};

  MultiRegionKeyFixture() {
    Rng rng(17);
    for (auto& r : regions) {
      r.resize(kFloatsPerRegion);
      for (auto& v : r) v = rng.next_float(0.0f, 4.0f);
      task.accesses.push_back(rt::in(r.data(), r.size()));
    }
  }
};

/// The 16 p configurations of Dynamic ATM: 2^-15 .. 2^0 (§III-D).
[[nodiscard]] inline std::vector<double> p_steps() {
  std::vector<double> steps;
  for (int e = 15; e >= 0; --e) steps.push_back(1.0 / static_cast<double>(1 << e));
  return steps;
}

/// One point of an oracle p-sweep.
struct SweepPoint {
  double p = 1.0;
  double correctness = 0.0;  ///< percent
  double wall_seconds = 0.0;
  double reuse = 0.0;        ///< fraction
};

/// Sweep FixedP over every p step, measuring correctness against the given
/// reference run (the paper's offline Oracle profiling).
[[nodiscard]] inline std::vector<SweepPoint> oracle_sweep(const App& app,
                                                          const RunResult& reference,
                                                          const RunConfig& base) {
  std::vector<SweepPoint> points;
  for (double p : p_steps()) {
    RunConfig config = base;
    config.mode = AtmMode::FixedP;
    config.fixed_p = p;
    const RunResult run = app.run(config);
    SweepPoint point;
    point.p = p;
    point.correctness = correctness_percent(app.program_error(reference, run));
    point.wall_seconds = run.wall_seconds;
    point.reuse = run.reuse_fraction();
    points.push_back(point);
  }
  return points;
}

/// The paper's Oracle(x%): the smallest p whose sweep correctness is at
/// least `min_correctness` percent; falls back to p = 1.
[[nodiscard]] inline double oracle_best_p(const std::vector<SweepPoint>& sweep,
                                          double min_correctness) {
  for (const SweepPoint& point : sweep) {
    if (point.correctness >= min_correctness) return point.p;
  }
  return 1.0;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << paper_ref << "\n"
            << "preset=" << (apps::preset_from_env() == Preset::Paper
                                 ? "paper"
                                 : (apps::preset_from_env() == Preset::Test ? "test"
                                                                            : "bench"))
            << " threads=" << default_threads() << " reps=" << default_reps()
            << "  (override via ATM_SCALE / ATM_THREADS / ATM_REPS)\n"
            << "================================================================\n";
}

/// Format p as the paper's axis labels (2^-k or %).
[[nodiscard]] inline std::string fmt_p(double p) {
  for (int e = 0; e <= 15; ++e) {
    if (p == 1.0 / static_cast<double>(1 << e)) {
      return e == 0 ? std::string("100%") : ("2^-" + std::to_string(e));
    }
  }
  return fmt_percent(p, 4);
}

}  // namespace atm::bench
