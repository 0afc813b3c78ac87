// The runtime facade: task submission, dependence tracking, worker pool,
// taskwait, tracing, and the hook through which the ATM engine intercepts
// ready tasks (paper Figure 1: TDG -> RQ -> threads -> THT/IKT).
//
// PR 4 lifecycle: tasks live in a pooled TaskArena and are reference
// counted (see task.hpp / task_arena.hpp). Submission registers the task's
// footprint in a sharded dependence tracker (no global graph mutex), links
// it to unfinished predecessors through each predecessor's succ_lock, and
// publishes it with a pending-predecessor count whose final decrement owns
// the scheduler push. Completion seals the successor list, releases the
// newly-ready successors and drops the in-flight reference — the record is
// recycled as soon as its segment slots are overwritten or pruned, not at
// the next taskwait. Counters are plain atomics; the only mutex left on the
// submit/complete path is the (sharded, mostly uncontended) tracker lock.
//
// PR 5 submit->wave pipeline: the tracker is a two-level dependence index
// (exact-interval hash table over the interval tree, with barrier-retained
// geometry — see dependency_tracker.hpp), and taskwait() is a helping
// barrier: the waiting thread claims the scheduler's helper lane and
// drains/steals tasks instead of parking, sharing the workers' park/wake
// and shutdown protocol (see scheduler.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "runtime/dependency_tracker.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/task_arena.hpp"
#include "runtime/task_type.hpp"
#include "runtime/trace.hpp"

namespace atm::rt {

class Runtime;

/// Interception point for memoization. The ATM engine implements this; the
/// runtime consults it when an idle worker pulls a memoizable task from the
/// ready queue (paper §III-A).
class MemoizationHook {
 public:
  virtual ~MemoizationHook() = default;

  enum class Decision : std::uint8_t {
    Execute,   ///< no reuse found (or training requires execution): run fn
    Hit,       ///< outputs already provided from the THT: skip execution
    Deferred,  ///< IKT hit: an in-flight twin will copy outputs and complete
  };

  /// Called by a worker before executing `task`. May copy outputs (Hit),
  /// register a postponed copy (Deferred) or request execution.
  virtual Decision on_task_ready(Task& task, std::size_t lane) = 0;

  /// Called by the worker right after `task.fn()` ran (only when
  /// on_task_ready returned Execute). Updates THT/IKT and training state.
  virtual void on_task_executed(Task& task, std::size_t lane) = 0;

  /// Called once when the hook is attached to a runtime.
  virtual void on_attach(Runtime& runtime) { (void)runtime; }

  /// Called when `runtime` lets go of the hook: at runtime destruction or
  /// when attach_memoizer replaces it. Anything the hook registered against
  /// that runtime's state (metrics collectors, registry instruments) must
  /// be released here — the hook and the runtime may be destroyed in either
  /// order, and after this call that runtime's registry is off-limits. A
  /// hook since re-attached elsewhere should ignore the stale detach.
  virtual void on_detach(Runtime& runtime) { (void)runtime; }
};

/// Runtime construction parameters.
struct RuntimeConfig {
  /// Worker thread count (the paper's "number of cores"). 0 = hardware
  /// concurrency.
  unsigned num_threads = 0;
  /// Record per-thread state timelines and RQ depth samples (Figs. 7-8).
  bool enable_tracing = false;
  /// Ready-task scheduling policy. Steal (per-worker deques + work stealing)
  /// is the default; Central is the paper's single mutex+condvar RQ, kept
  /// for A/B comparison (`atm_run --sched central`).
  SchedPolicy sched = SchedPolicy::Steal;
  /// Helping barrier: the thread at a taskwait registers as a transient
  /// worker and drains/steals tasks instead of parking on a condvar —
  /// wave-boundary latency on few-core hosts is the payoff. Off = the
  /// paper's parking barrier, kept for A/B (`atm_run --taskwait=park`).
  bool help_taskwait = true;
  /// Export the runtime/scheduler/arena/dep-index counters through the
  /// metrics registry (collector registration at construction; the registry
  /// itself always exists — see Runtime::metrics()).
  bool metrics = true;
  /// >0 starts a background MetricsSampler snapshotting the registry at
  /// this interval into a bounded ring (`atm_run --metrics-json`).
  std::uint64_t metrics_interval_ms = 0;
  /// Echo a one-line gauge summary to stderr on every sampler tick
  /// (`atm_run --stats-interval=MS`).
  bool metrics_live = false;
  /// Record per-task-type execution-latency histograms
  /// (task.<type>.exec_ns). Opt-in: costs two clock reads per executed
  /// task, which is real money against ~250ns microtasks.
  bool profile_tasks = false;
  /// Per-type profile slots: dense type ids at or past this cap silently
  /// skip per-type instruments (both the runtime's exec histograms and an
  /// attached engine's hit/miss/latency profiles). One atomic pointer per
  /// slot, sized at construction (`atm_run --profile-types=N`).
  std::size_t profile_max_types = 256;
};

/// Monotonic counters; cheap enough to keep always-on.
struct RuntimeCounters {
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t memoized = 0;  ///< completed via THT hit (no execution)
  std::uint64_t deferred = 0;  ///< completed via IKT postponed copy
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register a task type (one per source-level annotation). The returned
  /// pointer stays valid for the lifetime of the runtime.
  const TaskType* register_type(TaskTypeDesc desc);

  /// Attach the memoization engine. Must happen before the first submit.
  void attach_memoizer(MemoizationHook* hook);

  /// Submit one task: `fn` must be a pure function of the declared input
  /// regions writing only the declared output regions (paper §III-E).
  /// `fn` is an InlineFunction: the closure is stored inline in the pooled
  /// task record (no per-submit allocation); closures larger than
  /// InlineFunction::kCapacity fail to compile. The span/initializer_list
  /// overloads copy the accesses into the pooled task's recycled vector —
  /// the no-allocation fast path a brace-enclosed access list takes
  /// automatically.
  void submit(const TaskType* type, InlineFunction fn,
              std::span<const DataAccess> accesses);
  void submit(const TaskType* type, InlineFunction fn,
              std::initializer_list<DataAccess> accesses) {
    submit(type, std::move(fn), std::span<const DataAccess>(accesses.begin(),
                                                            accesses.size()));
  }
  void submit(const TaskType* type, InlineFunction fn,
              const std::vector<DataAccess>& accesses) {
    submit(type, std::move(fn),
           std::span<const DataAccess>(accesses.data(), accesses.size()));
  }

  /// Block until every submitted task completed, then reset the dependence
  /// bookkeeping (the THT inside an attached engine persists; reuse across
  /// taskwait barriers is exactly what the paper's iterative apps need).
  /// With help_taskwait (default) the calling thread becomes a transient
  /// worker — draining and stealing ready tasks through the scheduler's
  /// helper lane — and only parks when nothing is acquirable; otherwise it
  /// parks on a condvar for the whole wait. The barrier reset keeps the
  /// dependence geometry (exact-interval index) while releasing every task
  /// reference, so the next wave's identical regions are O(1) hits.
  /// Must not race with submissions from other threads (same contract as
  /// OmpSs: the thread at the barrier owns the task region); a second
  /// concurrent caller falls back to the parking path.
  void taskwait();

  /// Used by the memoization hook: complete `task` whose outputs were
  /// provided without executing fn (THT hit or fulfilled postponed copy).
  void complete_without_execution(Task& task, bool via_ikt);

  [[nodiscard]] unsigned num_threads() const noexcept { return num_threads_; }
  [[nodiscard]] SchedPolicy sched_policy() const noexcept { return sched_policy_; }
  [[nodiscard]] TraceRecorder& tracer() noexcept { return *tracer_; }
  [[nodiscard]] const TraceRecorder& tracer() const noexcept { return *tracer_; }

  /// Lane id of the calling thread (worker id, or the master lane).
  [[nodiscard]] std::size_t current_lane() const noexcept;

  [[nodiscard]] RuntimeCounters counters() const;

  /// Number of distinct registered task types.
  [[nodiscard]] std::size_t type_count() const;

  /// Task-record pool occupancy (the streaming-regression memory guard).
  [[nodiscard]] TaskArenaStats arena_stats() const { return arena_.stats(); }

  /// Live dependence-tracker segments across all shards.
  [[nodiscard]] std::size_t tracker_segment_count() const {
    return tracker_.segment_count();
  }

  /// Two-level dependence-index counters (exact hits / tree fallbacks /
  /// prune scans) aggregated across shards.
  [[nodiscard]] DepIndexStats dep_index_stats() const { return tracker_.stats(); }

  /// Scheduler observability (depth, steal sweeps, inbox drains).
  [[nodiscard]] SchedulerStats sched_stats() const { return sched_->stats(); }

  [[nodiscard]] bool helping_taskwait() const noexcept { return help_taskwait_; }

  /// THE unified metrics registry: every telemetry surface in this process
  /// (runtime, scheduler, arena, dep index, an attached ATM engine)
  /// registers here; snapshot() is the one machine-readable export point.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Stop the background sampler (if configured) and return its series.
  /// Safe to call repeatedly; empty when metrics_interval_ms was 0.
  [[nodiscard]] obs::MetricsSampler::Series metrics_series();

 private:
  void worker_main(unsigned worker_id);
  void process_task(Task* task, std::size_t lane);
  void complete_task(Task& task);
  /// Serve as a transient worker until every pending task completed.
  void help_until_done();
  void register_collectors();

  unsigned num_threads_;
  SchedPolicy sched_policy_;
  bool help_taskwait_;
  bool profile_tasks_;
  /// Declared before every subsystem that registers on it, so it outlives
  /// them all during destruction.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<TraceRecorder> tracer_;
  std::unique_ptr<Scheduler> sched_;

  TaskArena arena_;
  ShardedDependencyTracker tracker_;
  // (both sized from RuntimeConfig in the constructor)
  std::atomic<std::uint64_t> pending_tasks_{0};
  Mutex wait_mutex_;
  CondVar all_done_cv_;
  /// counters_.submitted at the last barrier reset: a taskwait that saw no
  /// submissions since then skips the (idempotent) reset walk entirely
  /// (concurrent taskwait callers serialize on wait_mutex_).
  std::uint64_t last_reset_submitted_ ATM_GUARDED_BY(wait_mutex_) = 0;

  mutable Mutex types_mutex_;
  std::vector<std::unique_ptr<TaskType>> types_ ATM_GUARDED_BY(types_mutex_);

  struct alignas(64) AtomicCounters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> memoized{0};
    std::atomic<std::uint64_t> deferred{0};
  };
  AtomicCounters counters_;

  /// Per-type execution-latency histograms (profile_tasks only), indexed by
  /// the dense type id. Atomic pointers so process_task reads race-free
  /// against concurrent register_type calls; types past the array just skip
  /// profiling. Sized from RuntimeConfig::profile_max_types at construction.
  std::size_t profile_max_types_;
  std::unique_ptr<std::atomic<obs::LatencyHistogram*>[]> exec_hist_;

  /// Helping-barrier span counters (sched.help_sessions / sched.help_tasks).
  obs::Counter* help_sessions_ = nullptr;
  obs::Counter* help_tasks_ = nullptr;

  /// Background gauge sampler (metrics_interval_ms > 0); stopped before the
  /// worker pool and the registry go away.
  std::unique_ptr<obs::MetricsSampler> sampler_;

  MemoizationHook* hook_ = nullptr;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  /// The scheduler has exactly one helper slot: the first taskwait caller
  /// claims it; any concurrent caller parks on the condvar instead.
  std::atomic<bool> helper_active_{false};
};

}  // namespace atm::rt
