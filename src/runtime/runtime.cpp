#include "runtime/runtime.hpp"

#include <cassert>

#include "common/timing.hpp"

namespace atm::rt {

namespace {
/// Lane id of the calling thread: workers set this on startup; the master
/// sets it to the helper lane while it helps at a taskwait; any other
/// thread (the master outside taskwait, test threads) maps to the master
/// lane for tracing and to the external lane for scheduler pushes.
thread_local std::ptrdiff_t tls_lane = -1;

/// Scheduler push lane of the calling thread: a worker (or the helping
/// master) pushes into its own slot; everyone else submits externally.
[[nodiscard]] std::size_t tls_push_lane() noexcept {
  return tls_lane >= 0 ? static_cast<std::size_t>(tls_lane)
                       : ~std::size_t{0};
}
}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : num_threads_(config.num_threads != 0 ? config.num_threads
                                           : std::max(1u, std::thread::hardware_concurrency())),
      sched_policy_(config.sched),
      help_taskwait_(config.help_taskwait),
      profile_tasks_(config.profile_tasks),
      tracer_(std::make_unique<TraceRecorder>(num_threads_ + 1, config.enable_tracing)),
      sched_(Scheduler::make(config.sched, num_threads_, tracer_.get(), &metrics_)),
      profile_max_types_(config.profile_max_types),
      exec_hist_(std::make_unique<std::atomic<obs::LatencyHistogram*>[]>(
          config.profile_max_types)) {
  help_sessions_ = metrics_.counter("sched.help_sessions", "sessions", "runtime");
  help_tasks_ = metrics_.counter("sched.help_tasks", "tasks", "runtime");
  if (config.metrics) register_collectors();
  workers_.reserve(num_threads_);
  for (unsigned w = 0; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
  // mo: release publishes the fully-constructed runtime to late observers.
  started_.store(true, std::memory_order_release);
  if (config.metrics_interval_ms > 0) {
    obs::MetricsSampler::Options opts;
    opts.interval_ms = config.metrics_interval_ms;
    opts.live_stderr = config.metrics_live;
    sampler_ = std::make_unique<obs::MetricsSampler>(metrics_, opts);
  }
}

Runtime::~Runtime() {
  if (sampler_ != nullptr) sampler_->stop();
  taskwait();
  sched_->shutdown();
  for (auto& t : workers_) t.join();
  // Workers and sampler are gone: nothing can run the hook's collector
  // anymore, so let it drop its registry state before the registry dies.
  if (hook_ != nullptr) {
    hook_->on_detach(*this);
    hook_ = nullptr;
  }
}

void Runtime::register_collectors() {
  // One collector for everything the runtime already counts: the existing
  // snapshot structs (RuntimeCounters, TaskArenaStats, DepIndexStats,
  // SchedulerStats) stay the C++ views, this is the by-name export of the
  // same atomics — no new hot-path cost.
  metrics_.add_collector([this](obs::SampleSink& sink) {
    const RuntimeCounters c = counters();
    sink.counter("runtime.tasks_submitted", c.submitted, "tasks", "runtime");
    sink.counter("runtime.tasks_executed", c.executed, "tasks", "runtime");
    sink.counter("runtime.tasks_memoized", c.memoized, "tasks", "runtime");
    sink.counter("runtime.tasks_deferred", c.deferred, "tasks", "runtime");
    // mo: relaxed — racy monitoring gauge.
    sink.gauge("runtime.pending_tasks",
               static_cast<std::int64_t>(pending_tasks_.load(std::memory_order_relaxed)),
               "tasks", "runtime");

    const TaskArenaStats a = arena_stats();
    sink.gauge("arena.slots", static_cast<std::int64_t>(a.slots), "slots", "arena");
    sink.gauge("arena.free_slots", static_cast<std::int64_t>(a.free_slots),
               "slots", "arena");
    sink.gauge("arena.blocks", static_cast<std::int64_t>(a.blocks), "blocks",
               "arena");
    sink.gauge("arena.slab_bytes", static_cast<std::int64_t>(a.slab_bytes),
               "bytes", "arena");

    const DepIndexStats d = dep_index_stats();
    sink.counter("dep.exact_hits", d.exact_hits, "lookups", "dep_index");
    sink.counter("dep.tree_fallbacks", d.tree_fallbacks, "lookups", "dep_index");
    sink.counter("dep.prune_scans", d.prune_scans, "scans", "dep_index");
    sink.gauge("dep.segments", static_cast<std::int64_t>(tracker_segment_count()),
               "segments", "dep_index");

    const SchedulerStats s = sched_stats();
    sink.gauge("sched.depth", static_cast<std::int64_t>(s.depth), "tasks",
               "scheduler");
    sink.counter("sched.steal_attempts", s.steal_attempts, "sweeps", "scheduler");
    sink.counter("sched.steal_fails", s.steal_fails, "sweeps", "scheduler");
    sink.counter("sched.inbox_drains", s.inbox_drains, "drains", "scheduler");
    sink.counter("sched.inbox_drained_tasks", s.inbox_drained_tasks, "tasks",
                 "scheduler");
  });
}

obs::MetricsSampler::Series Runtime::metrics_series() {
  if (sampler_ == nullptr) return {};
  sampler_->stop();
  return sampler_->series();
}

const TaskType* Runtime::register_type(TaskTypeDesc desc) {
  MutexLock lock(types_mutex_);
  const auto id = static_cast<std::uint32_t>(types_.size());
  types_.push_back(std::make_unique<TaskType>(id, std::move(desc)));
  const TaskType* type = types_.back().get();
  if (profile_tasks_ && id < profile_max_types_) {
    // mo: release pairs with process_task's acquire load so a worker seeing
    // the pointer sees a fully-registered histogram.
    exec_hist_[id].store(
        metrics_.histogram("task." + std::string(type->name()) + ".exec_ns",
                           "ns", "profile"),
        std::memory_order_release);
  }
  return type;
}

std::size_t Runtime::type_count() const {
  MutexLock lock(types_mutex_);
  return types_.size();
}

void Runtime::attach_memoizer(MemoizationHook* hook) {
  if (hook_ != nullptr && hook_ != hook) hook_->on_detach(*this);
  hook_ = hook;
  if (hook != nullptr) hook->on_attach(*this);
}

std::size_t Runtime::current_lane() const noexcept {
  return tls_lane >= 0 ? static_cast<std::size_t>(tls_lane) : tracer_->master_lane();
}

void Runtime::submit(const TaskType* type, InlineFunction fn,
                     std::span<const DataAccess> accesses) {
  assert(type != nullptr);
  Task* task = arena_.acquire();
  task->type = type;
  task->fn = std::move(fn);
  task->accesses.assign(accesses.begin(), accesses.end());
  // The submitted counter doubles as the id allocator (ids are dense in
  // submission order, as before — one atomic instead of two).
  // mo: relaxed — only uniqueness matters for id allocation.
  task->id = counters_.submitted.fetch_add(1, std::memory_order_relaxed);

  // Count the task pending before it can possibly complete; the final
  // decrement in complete_task() is what wakes taskwait().
  // mo: relaxed — the increment precedes any completion of this task in
  // program order; the final acq_rel decrement carries the ordering.
  pending_tasks_.fetch_add(1, std::memory_order_relaxed);

  // Submission guard: holds the ready transition until every predecessor is
  // linked, so a predecessor finishing mid-registration cannot double-push.
  // The guard is set before the first link becomes visible; when no link was
  // made, no other thread can touch the count and the task pushes directly.
  // mo: relaxed — the task is not yet visible to any other thread.
  task->pending_preds.store(1, std::memory_order_relaxed);
  std::uint32_t links = 0;
  const std::size_t lane = current_lane();
  {
    TraceScope creation(tracer_.get(), lane, TraceState::Creation);
    tracker_.register_task(*task, [task, &links](Task* dep) {
      // The shard locks pin `dep` (its segment slots hold references); the
      // succ_lock arbitrates against its completion walk.
      dep->succ_lock.lock();
      if (!dep->succ_sealed) {
        dep->successors.push_back(task);
        // mo: relaxed — the submission guard (+1) is still held, so the
        // count cannot reach zero; succ_lock orders the link itself.
        task->pending_preds.fetch_add(1, std::memory_order_relaxed);
        ++links;
      }
      dep->succ_lock.unlock();
    });
  }
  if (links == 0) {
    // mo: relaxed — no predecessor ever saw this task; the scheduler push
    // publishes it.
    task->pending_preds.store(0, std::memory_order_relaxed);
    task->state = TaskState::Ready;
    sched_->push(task, tls_push_lane());
    // mo: acq_rel — dropping the submission guard: release orders the links
    // above, acquire (on the winning decrement) orders the predecessors'
    // completions before the push.
  } else if (task->pending_preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    task->state = TaskState::Ready;
    sched_->push(task, tls_push_lane());
  }
}

void Runtime::taskwait() {
  // mo: acquire pairs with complete_task's final acq_rel decrement.
  if (pending_tasks_.load(std::memory_order_acquire) != 0) {
    // Helping barrier: claim the scheduler's single helper slot and drain/
    // steal tasks instead of parking. A second concurrent caller (or a
    // runtime configured with --taskwait=park) falls back to the condvar.
    // mo: acq_rel — winning the exchange orders this claim against the
    // previous helper's release store below.
    if (help_taskwait_ && !helper_active_.exchange(true, std::memory_order_acq_rel)) {
      help_until_done();
      // mo: release hands the helper slot to the next acq_rel exchange.
      helper_active_.store(false, std::memory_order_release);
    } else {
      MutexLock lock(wait_mutex_);
      // mo: acquire pairs with complete_task's final acq_rel decrement so
      // the woken waiter observes every completed task's writes.
      while (pending_tasks_.load(std::memory_order_acquire) != 0) {
        all_done_cv_.wait(wait_mutex_);
      }
    }
  }
  // Barrier semantics: every submitted task finished; future tasks can only
  // depend on finished work, so every task reference the segment slots held
  // goes now — deterministically draining the arena. The segment geometry
  // itself (and the exact-interval index over it) is retained so the next
  // wave's identical regions are O(1) exact hits instead of fresh inserts;
  // ballooned shards clear outright (see reset_after_barrier). A barrier
  // with no submissions since the last one is a no-op: the previous reset
  // already released everything, so the walk is skipped (back-to-back
  // taskwaits and the destructor's implicit one stay O(1)). wait_mutex_
  // serializes the check-and-reset so a second concurrent caller both
  // avoids a data race on the watermark and returns only after a completed
  // reset (it observes the winner's watermark and skips).
  MutexLock lock(wait_mutex_);
  // mo: relaxed — every submission happened-before this barrier by the
  // taskwait contract; the counter read needs no extra ordering.
  const std::uint64_t submitted = counters_.submitted.load(std::memory_order_relaxed);
  if (submitted != last_reset_submitted_) {
    tracker_.reset_after_barrier();
    last_reset_submitted_ = submitted;
  }
}

void Runtime::help_until_done() {
  // Transient worker: successor pushes and nested submissions made while a
  // helped task runs land in the scheduler's helper slot (LIFO-local, and
  // stealable by the real workers), exactly as on a worker lane.
  const std::size_t lane = tracer_->master_lane();
  const std::ptrdiff_t prev_lane = tls_lane;
  tls_lane = static_cast<std::ptrdiff_t>(num_threads_);
  const auto quit = [this] {
    // mo: acquire pairs with complete_task's final acq_rel decrement.
    return pending_tasks_.load(std::memory_order_acquire) == 0;
  };
  help_sessions_->inc();
  for (;;) {
    Task* task = nullptr;
    {
      // Helping, not Idle: in the Figs. 7/8 timelines a master stuck at the
      // barrier executing other people's tasks is a distinct state ('H').
      TraceScope helping(tracer_.get(), lane, TraceState::Helping);
      task = sched_->helper_pop(quit);
    }
    // nullptr means the quit condition held: every pending task completed
    // (the final completion's notify_helpers() is what wakes a parked
    // helper — exactly-once, no timeout polling).
    if (task == nullptr) break;
    help_tasks_->inc();
    process_task(task, lane);
  }
  tls_lane = prev_lane;
}

void Runtime::worker_main(unsigned worker_id) {
  tls_lane = static_cast<std::ptrdiff_t>(worker_id);
  for (;;) {
    Task* task = nullptr;
    {
      TraceScope idle(tracer_.get(), worker_id, TraceState::Idle);
      task = sched_->pop_blocking(worker_id);
    }
    if (task == nullptr) return;
    process_task(task, worker_id);
  }
}

void Runtime::process_task(Task* task, std::size_t lane) {
  MemoizationHook::Decision decision = MemoizationHook::Decision::Execute;
  if (hook_ != nullptr && task->type->memoizable()) {
    decision = hook_->on_task_ready(*task, lane);
  }
  switch (decision) {
    case MemoizationHook::Decision::Hit: {
      task->atm_memoized = true;
      // mo: relaxed — monotonic statistics counter.
      counters_.memoized.fetch_add(1, std::memory_order_relaxed);
      complete_task(*task);
      return;
    }
    case MemoizationHook::Decision::Deferred: {
      // The in-flight twin fulfills the output copy and calls
      // complete_without_execution(); nothing more to do on this worker.
      return;
    }
    case MemoizationHook::Decision::Execute: {
      task->state = TaskState::Running;
      // Per-type latency profile: opt-in (two clock reads ≈ 40ns, real
      // money against microtasks); the histogram pointer is an acquire-load
      // against a concurrent register_type.
      obs::LatencyHistogram* hist = nullptr;
      if (profile_tasks_ && task->type->id() < profile_max_types_) {
        // mo: acquire pairs with register_type's release store.
        hist = exec_hist_[task->type->id()].load(std::memory_order_acquire);
      }
      const std::uint64_t exec_t0 = hist != nullptr ? now_ns() : 0;
      {
        TraceScope exec(tracer_.get(), lane, TraceState::TaskExec);
        task->fn();
      }
      if (hist != nullptr) hist->record(now_ns() - exec_t0);
      if (hook_ != nullptr && task->type->memoizable()) {
        hook_->on_task_executed(*task, lane);
      }
      // mo: relaxed — monotonic statistics counter.
      counters_.executed.fetch_add(1, std::memory_order_relaxed);
      complete_task(*task);
      return;
    }
  }
}

void Runtime::complete_without_execution(Task& task, bool via_ikt) {
  task.atm_memoized = true;
  // mo: relaxed — monotonic statistics counters.
  if (via_ikt) {
    counters_.deferred.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.memoized.fetch_add(1, std::memory_order_relaxed);
  }
  complete_task(task);
}

void Runtime::complete_task(Task& task) {
  // Seal first: once sealed, submitters treat this task as satisfied and no
  // successor can be appended, so the swapped-out list is complete. The
  // Finished store sits inside the same critical section (so succ_lock
  // holders observing Finished also observe the seal) and uses RELEASE:
  // the tracker's prune path drops segments of Finished tasks after only
  // an acquire-load of this state — without the release/acquire pair a
  // later task whose dependence edge was pruned away could run without a
  // happens-before on this task's body writes (real on ARM; invisible on
  // x86-TSO).
  thread_local std::vector<Task*> successors;
  successors.clear();
  task.succ_lock.lock();
  task.succ_sealed = true;
  // mo: release — see the block comment above (prune path acquire-loads it).
  task.state.store(TaskState::Finished, std::memory_order_release);
  successors.assign(task.successors.begin(), task.successors.end());
  task.successors.clear();
  task.succ_lock.unlock();

  // Eager closure release: captures (and whatever they own) go now, not when
  // the record is recycled.
  task.fn = nullptr;

  const std::size_t lane = tls_push_lane();
  for (Task* succ : successors) {
    // Successors still hold our +1 in pending_preds, so they are live; the
    // thread whose decrement reaches zero owns the push (exactly-once wakeup).
    // mo: acq_rel — release orders this predecessor's body writes before the
    // successor's release; acquire on the final decrement inherits every
    // other predecessor's writes before the push.
    if (succ->pending_preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      succ->state = TaskState::Ready;
      sched_->push(succ, lane);
    }
  }

  // Drop the in-flight reference before the task is counted done: `task`
  // must not be touched past this line (the record may be recycled by a
  // submitter immediately), and releasing first makes "taskwait returned"
  // imply "every in-flight reference is gone" — after the barrier's
  // tracker clear, the arena is deterministically drained.
  task_release(&task);

  // mo: acq_rel — release orders this task's completion before the barrier
  // opens; acquire on the final decrement hands taskwait every completion.
  if (pending_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      // The lock orders the notify against a waiter that passed its
      // predicate check but has not yet suspended.
      MutexLock lock(wait_mutex_);
      all_done_cv_.notify_all();
    }
    // A helping master parks inside the scheduler's lot, not on the condvar
    // above: flip its quit condition awake too.
    sched_->notify_helpers();
  }
}

RuntimeCounters Runtime::counters() const {
  RuntimeCounters c;
  // mo: relaxed — racy monitoring snapshot by contract.
  c.submitted = counters_.submitted.load(std::memory_order_relaxed);
  c.executed = counters_.executed.load(std::memory_order_relaxed);
  c.memoized = counters_.memoized.load(std::memory_order_relaxed);
  c.deferred = counters_.deferred.load(std::memory_order_relaxed);
  return c;
}

}  // namespace atm::rt
