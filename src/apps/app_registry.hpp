// Uniform interface over the paper's six benchmark applications
// (Table I): construction by name, presets for workload scale, and a
// single run() entry point used by tests, examples and every bench binary.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "atm_lib.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace atm::apps {

/// Workload sizing. `Test` keeps unit tests fast; `Bench` is the default
/// container-friendly scale; `Paper` matches the paper's input sizes
/// (Table I) and is selected with ATM_SCALE=paper.
enum class Preset { Test, Bench, Paper };

/// Per-run configuration shared by every app.
struct RunConfig {
  unsigned threads = 2;
  /// Ready-task scheduler: work stealing by default; Central is the paper's
  /// single locked RQ, kept for A/B runs (`atm_run --sched central`).
  rt::SchedPolicy sched = rt::SchedPolicy::Steal;
  AtmMode mode = AtmMode::Off;
  double fixed_p = 1.0;           ///< FixedP (Oracle) runs
  bool use_ikt = true;
  bool type_aware = true;
  unsigned log2_buckets = 8;      ///< THT N (§IV-B)
  unsigned bucket_capacity = 128; ///< THT M (§IV-B)
  bool verify_full_inputs = false;///< §III-E rejected original approach
  EvictionPolicy eviction = EvictionPolicy::Fifo;
  bool tracing = false;
  std::uint64_t shuffle_seed = 0x5eedULL;
  /// Helping barrier (PR 5): the thread at a taskwait drains/steals tasks
  /// instead of parking. Off = the paper's parking barrier
  /// (`atm_run --taskwait=park`), kept for wave-boundary A/B runs.
  bool help_taskwait = true;

  // --- tolerance-quantized keys (src/atm/tolerance.hpp) ---
  /// Relative / absolute key-quantization epsilons (0 = exact keys) and the
  /// neighbor-probe count, forwarded to AtmConfig (`atm_run --tolerance`).
  double tolerance_rel = 0.0;
  double tolerance_abs = 0.0;
  unsigned tolerance_probes = 0;
  /// Per-iteration relative input jitter for the noisy-sensor demos
  /// (blackscholes and jacobi re-read their inputs each sweep with
  /// deterministic noise of this amplitude; other apps ignore it). Exact
  /// keys see ~0% reuse under any nonzero noise — the workload tolerance
  /// matching exists for.
  double input_noise = 0.0;

  // --- tiered memo store (src/store/) ---
  bool l2_enabled = false;        ///< byte-budgeted capacity tier behind the THT
  std::size_t l2_budget_bytes = std::size_t{64} << 20;
  bool l2_compress = false;       ///< RLE-compress demoted snapshots
  /// Warm-start: load this store snapshot before the run (empty = cold).
  std::string load_store_path{};
  /// Persist the trained store to this path after the run (empty = don't).
  std::string save_store_path{};

  // --- observability (src/obs/) ---
  /// Register the runtime/engine metric collectors on the unified registry.
  /// Off skips registration entirely (the A/B baseline for the overhead
  /// gate); the raw subsystem atomics still count either way.
  bool metrics = true;
  /// Background sampler period; 0 = no sampler thread. The sampled series
  /// lands in RunResult::metrics_series.
  std::uint64_t metrics_interval_ms = 0;
  /// Emit one stderr line per sampler tick (`atm_run --stats-interval`).
  bool metrics_live = false;
  /// Per-task-type execution-latency histograms (task.<name>.exec_ns).
  /// Opt-in: adds two clock reads around every task body.
  bool profile_tasks = false;
  /// Cap on the engine's per-hit reuse-creator log (AtmConfig::reuse_log_cap).
  std::size_t reuse_log_cap = std::size_t{1} << 20;
  /// Cap on distinct task-type ids that get per-type metric profiles
  /// (task.<name>.exec_ns / atm.type.<name>.*). Sets both
  /// rt::RuntimeConfig::profile_max_types and AtmConfig::profile_max_types
  /// (`atm_run --profile-types=N`); types with id >= the cap run unprofiled.
  std::size_t profile_max_types = 256;
};

/// Everything a run reports back to the harnesses.
struct RunResult {
  double wall_seconds = 0.0;
  /// Flattened program output (prices / stencil matrix / centers / LU),
  /// the object the paper measures correctness on (Table I last column).
  std::vector<double> output;
  /// Eq. 4-style self-contained error; < 0 when the app has none and the
  /// harness should compare outputs against a reference run via Eq. 3.
  double app_specific_error = -1.0;

  rt::RuntimeCounters counters;
  AtmStatsSnapshot atm;
  double final_p = 0.0;             ///< memoized type's p after the run
  TrainingPhase final_phase = TrainingPhase::Steady;
  std::vector<double> p_history;    ///< p steps visited during training
  std::size_t blacklist_size = 0;

  std::size_t app_memory_bytes = 0; ///< application footprint (Table III denominator)
  std::size_t atm_memory_bytes = 0; ///< ATM structures (Table III numerator)
  std::size_t task_input_bytes = 0; ///< memoized task's input size (Table I)

  /// Scheduler observability (depth, steal sweeps, inbox drains) read from
  /// the runtime before teardown.
  rt::SchedulerStats sched;

  /// Trace data (only when RunConfig::tracing): per-lane summaries etc. are
  /// read from the runtime before teardown and stored here.
  std::vector<rt::LaneSummary> lane_summaries;
  std::vector<rt::DepthSample> depth_samples;
  std::string ascii_timeline;
  /// Raw per-lane event timelines (only when RunConfig::tracing), copied
  /// out so the harness can export them (obs::chrome_trace_json) after the
  /// runtime is gone. trace_master_lane indexes the master thread's lane.
  std::vector<std::vector<rt::TraceEvent>> trace_lanes;
  std::size_t trace_master_lane = 0;

  /// Unified-registry snapshot taken at the end of the run (empty when
  /// RunConfig::metrics is off — nothing was registered).
  obs::RegistrySnapshot metrics;
  /// Background sampler series (empty unless RunConfig::metrics_interval_ms).
  obs::MetricsSampler::Series metrics_series;

  /// Reuse fraction: memoized tasks / total tasks of the memoized type
  /// (the paper's "Reuse" metric, §IV-C).
  [[nodiscard]] double reuse_fraction() const noexcept {
    const auto total = counters.executed + counters.memoized + counters.deferred;
    if (total == 0) return 0.0;
    return static_cast<double>(counters.memoized + counters.deferred) /
           static_cast<double>(total);
  }
};

/// Interface implemented by each benchmark.
class App {
 public:
  virtual ~App() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string domain() const = 0;
  /// Table I columns.
  [[nodiscard]] virtual std::string program_input_desc() const = 0;
  [[nodiscard]] virtual std::string task_input_types() const = 0;
  [[nodiscard]] virtual std::string memoized_task_type() const = 0;
  [[nodiscard]] virtual std::string correctness_target() const = 0;
  /// Table II parameters for the memoized type.
  [[nodiscard]] virtual rt::AtmParams atm_params() const = 0;

  /// Recommended relative key-quantization epsilon for this workload
  /// (`atm_run --tolerance` with no value). 0 = no preset: the app's
  /// outputs are too input-sensitive for tolerance matching to be safe.
  [[nodiscard]] virtual double tolerance_preset() const { return 0.0; }

  /// Output-error ceiling the tolerance preset is expected to hold
  /// (measured max relative output error vs an exact baseline under the
  /// noisy-input demos; asserted by the acceptance tests).
  [[nodiscard]] virtual double tolerance_error_bound() const { return 0.05; }

  /// Execute the full benchmark under `config` (fresh state every call).
  [[nodiscard]] virtual RunResult run(const RunConfig& config) const = 0;

  /// Whole-program Euclidean relative error (Eq. 3) between a reference
  /// (mode Off) output and this run's output. LU overrides this to use its
  /// app-specific residual (Eq. 4).
  [[nodiscard]] virtual double program_error(const RunResult& reference,
                                             const RunResult& result) const;
};

/// All six paper benchmarks at the given scale, Table I order.
[[nodiscard]] std::vector<std::unique_ptr<App>> make_all_apps(Preset preset);

/// One benchmark by name ("blackscholes", "gauss-seidel", "jacobi",
/// "kmeans", "lu", "swaptions"); nullptr if unknown.
[[nodiscard]] std::unique_ptr<App> make_app(const std::string& name, Preset preset);

/// Shared helper: build an engine for `config` (nullptr when mode == Off).
[[nodiscard]] std::unique_ptr<AtmEngine> make_engine(const RunConfig& config);

/// Shared helper: the RuntimeConfig every app runs under — one place to
/// plumb threads/sched/tracing plus the PR-4 submit-path tuning knobs.
[[nodiscard]] rt::RuntimeConfig runtime_config(const RunConfig& config);

/// Shared helper: fill the generic parts of a RunResult from a finished
/// runtime/engine pair (counters, ATM stats, memory, traces).
void finalize_result(RunResult& result, rt::Runtime& runtime, AtmEngine* engine,
                     const rt::TaskType* memoized_type, const RunConfig& config);

/// The preset selected by the ATM_SCALE / ATM_PRESET environment variables
/// (default Bench; "paper" => Paper, "test" => Test).
[[nodiscard]] Preset preset_from_env();

}  // namespace atm::apps
