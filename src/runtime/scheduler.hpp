// Ready-task scheduling policies behind one seam (the paper's RQ box in
// Figure 1). Two implementations:
//
//  * CentralScheduler — the paper's literal design: one mutex+condvar FIFO
//    (ReadyQueue). Every push and pop crosses the same lock; kept as the
//    A/B baseline (`--sched central`).
//  * StealScheduler — per-worker Chase-Lev deques (LIFO local push/pop,
//    single-task FIFO steals) + per-worker inboxes for external submissions
//    (the master round-robins across them), with one acquire path and a
//    spin-then-park idle protocol. This is the default: it removes the
//    central lock from the task hot path.
//
// The helper lane is a transient extra slot through which the master
// drains and steals tasks while it sits at a taskwait (helping barrier)
// instead of parking — see Runtime::taskwait. The helper shares
// the workers' parking lot, so push wakeups, shutdown, and the
// all-tasks-done notification use one protocol.
//
// Depth tracking and trace sampling work identically under both policies so
// Figures 7-8 reproduce regardless of `--sched`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "runtime/ready_queue.hpp"
#include "runtime/task.hpp"
#include "runtime/trace.hpp"
#include "runtime/work_steal_deque.hpp"

namespace atm::rt {

/// Which ready-task scheduler a runtime uses.
enum class SchedPolicy : std::uint8_t {
  Central,  ///< one shared FIFO behind a mutex (the paper's RQ)
  Steal,    ///< per-worker Chase-Lev deques with work stealing
};

[[nodiscard]] constexpr const char* sched_policy_name(SchedPolicy s) noexcept {
  switch (s) {
    case SchedPolicy::Central: return "central";
    case SchedPolicy::Steal: return "steal";
  }
  return "?";
}

/// Point-in-time scheduler observability (gauges + monotonic counters).
struct SchedulerStats {
  std::size_t depth = 0;                ///< tasks queued across all structures
  std::uint64_t steal_attempts = 0;     ///< full steal sweeps started (steal only)
  std::uint64_t steal_fails = 0;        ///< sweeps that returned empty-handed
  std::uint64_t inbox_drains = 0;       ///< wholesale inbox-chain drains
  std::uint64_t inbox_drained_tasks = 0;///< tasks moved by those drains
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Enqueue a ready task. `lane` is the calling thread's lane id: a worker
  /// lane (< worker count) pushes into its own local structure; the helper
  /// lane (== worker count, valid only while the master is helping at a
  /// taskwait) pushes into the helper's structure; any other lane (the
  /// master outside taskwait, test threads) submits externally.
  virtual void push(Task* task, std::size_t lane) = 0;

  /// Worker `worker` blocks until a task is available or shutdown() was
  /// called and no task could be acquired; nullptr means "exit".
  virtual Task* pop_blocking(unsigned worker) = 0;

  /// Non-blocking acquire for lane `worker` (a worker lane or the helper
  /// lane); nullptr when nothing was found (possibly transiently, under
  /// steal races).
  virtual Task* try_pop(unsigned worker) = 0;

  /// Helping-barrier acquire for the (single) helper lane: returns a task,
  /// or nullptr once `quit()` is true (or shutdown). Parks in the
  /// scheduler's lot between attempts; a caller whose quit condition
  /// changes asynchronously must arrange a notify_helpers() call.
  virtual Task* helper_pop(const std::function<bool()>& quit) = 0;

  /// Wake any helper parked inside helper_pop (the runtime calls this when
  /// the helper's quit condition — "all tasks done" — flips).
  virtual void notify_helpers() = 0;

  /// Release all blocked workers; subsequent pops drain remaining tasks and
  /// then return nullptr.
  virtual void shutdown() = 0;

  /// Re-arm after shutdown (used by tests that restart a pool).
  virtual void reset() = 0;

  /// Tasks currently queued across all structures (racy; monitoring only).
  [[nodiscard]] virtual std::size_t depth() const noexcept = 0;

  /// Observability snapshot (racy; monitoring only).
  [[nodiscard]] virtual SchedulerStats stats() const noexcept = 0;

  /// Factory for a policy. `workers` is the worker-thread count; `tracer`
  /// (nullable) receives ready-depth samples when tracing is enabled;
  /// `metrics` (nullable) receives the sched.steal_batch_size histogram.
  [[nodiscard]] static std::unique_ptr<Scheduler> make(
      SchedPolicy policy, unsigned workers, TraceRecorder* tracer,
      obs::MetricsRegistry* metrics = nullptr);
};

/// The paper's central RQ wrapped in the Scheduler seam.
class CentralScheduler final : public Scheduler {
 public:
  explicit CentralScheduler(TraceRecorder* tracer) : queue_(tracer) {}

  void push(Task* task, std::size_t lane) override {
    (void)lane;
    queue_.push(task);
  }
  Task* pop_blocking(unsigned worker) override {
    (void)worker;
    return queue_.pop_blocking();
  }
  Task* try_pop(unsigned worker) override {
    (void)worker;
    return queue_.try_pop();
  }
  Task* helper_pop(const std::function<bool()>& quit) override {
    return queue_.pop_for_helper(quit);
  }
  void notify_helpers() override { queue_.notify_all(); }
  void shutdown() override { queue_.shutdown(); }
  void reset() override { queue_.reset(); }
  [[nodiscard]] std::size_t depth() const noexcept override { return queue_.depth(); }
  [[nodiscard]] SchedulerStats stats() const noexcept override {
    SchedulerStats s;
    s.depth = queue_.depth();
    return s;
  }

 private:
  ReadyQueue queue_;
};

/// Work-stealing scheduler: per-worker Chase-Lev deque + external inbox.
///
/// The inbox is a lock-free intrusive MPSC stack (Treiber push through
/// Task::inbox_next, wholesale exchange-drain, reversed to submission
/// order): an external submission is one fetch_add + one CAS — no mutex
/// anywhere on the submit path.
///
/// Slot layout: `workers` worker slots plus one helper slot (index ==
/// workers) owned by the master while it helps at a taskwait. The helper
/// slot's deque is part of every worker's steal sweep, so work the helping
/// master spawns (successor pushes, nested submissions) never strands if
/// the master blocks inside a long task.
///
/// Acquire order for lane w (try_pop):
///   1. own private batch (two pointer moves, no deque fence),
///   2. own deque (LIFO — hottest task first),
///   3. own inbox, drained wholesale: the first kInboxBatch tasks become the
///      private batch, the rest spill to the deque where thieves see them,
///   4. sweep the other lanes starting at w+1: each victim's deque top (one
///      task), then its inbox chain — adopted like step 3, so a victim stuck
///      in a long task cannot strand external submissions.
///
/// Idle protocol (pop_blocking): spin a bounded number of acquire rounds
/// (yielding, so oversubscribed containers do not burn the core), then park
/// on the lot. Pushers bump the item count first and only take the lot lock
/// when a sleeper is registered; the seq_cst item/sleeper pair makes the
/// sleep/wake race lose-proof (one side always sees the other). The helper
/// parks on the same lot with an extra quit predicate.
class StealScheduler final : public Scheduler {
 public:
  StealScheduler(unsigned workers, TraceRecorder* tracer,
                 obs::MetricsRegistry* metrics = nullptr);
  ~StealScheduler() override = default;

  void push(Task* task, std::size_t lane) override;
  Task* pop_blocking(unsigned worker) override;
  Task* try_pop(unsigned worker) override;
  Task* helper_pop(const std::function<bool()>& quit) override;
  void notify_helpers() override;
  void shutdown() override;
  void reset() override;
  [[nodiscard]] std::size_t depth() const noexcept override {
    // mo: relaxed — racy monitoring gauge by contract.
    return items_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] SchedulerStats stats() const noexcept override;

  /// Private-batch size per inbox drain. Batched tasks cost no deque fence
  /// but are invisible to thieves until consumed; 64 keeps a drained burst
  /// cheap while the spill beyond it stays stealable.
  static constexpr std::uint32_t kInboxBatch = 64;

 private:
  struct alignas(64) WorkerSlot {
    WorkStealDeque deque;
    /// MPSC inbox head: producers CAS-push (LIFO); a drainer exchanges the
    /// whole chain out and reverses it back to submission order. Idle
    /// sweeps skip empty inboxes with one relaxed load of this pointer.
    std::atomic<Task*> inbox_head{nullptr};
    /// Owner-private FIFO of drained inbox tasks (chained via inbox_next):
    /// consuming one is two pointer moves — no deque fence. At most
    /// kInboxBatch per drain; the remainder spills to the deque so thieves
    /// still see a stuck owner's backlog.
    Task* batch_head = nullptr;
    /// Observability counters, written only by the lane that owns this slot
    /// (the thief/drainer writes its OWN slot, never the victim's), racily
    /// summed by stats(). Same cache line the owner already dirties.
    AtomicCell<std::uint64_t> steal_attempts{0};
    AtomicCell<std::uint64_t> steal_fails{0};
    AtomicCell<std::uint64_t> inbox_drains{0};
    AtomicCell<std::uint64_t> inbox_drained_tasks{0};
  };

  void note_push();
  Task* acquired(Task* task);
  /// Exchange `victim`'s inbox chain out and return it in submission order
  /// (count in *n). nullptr when empty (or a producer is mid-publish).
  static Task* take_inbox_chain(WorkerSlot& victim, std::size_t* n);
  /// Install a drained chain as `me`'s private batch (first kInboxBatch
  /// tasks) + deque spill, account it, and return the first task.
  Task* adopt_chain(WorkerSlot& me, Task* chain, std::size_t n);
  [[nodiscard]] Task* acquire_local(unsigned lane);
  [[nodiscard]] Task* acquire_steal(unsigned lane);

  [[nodiscard]] unsigned lane_count() const noexcept { return workers_ + 1; }

  const unsigned workers_;
  /// workers_ - 1 when workers_ is a power of two (mask the inbox pick
  /// instead of dividing), 0 otherwise.
  const std::size_t inbox_mask_;
  /// workers_ worker slots + the helper slot at index workers_.
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  /// Tasks across all deques + inboxes; also the Figure-8 depth signal.
  /// (Worker-private batches are excluded — they are committed to an owner.)
  std::atomic<std::size_t> items_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<int> sleepers_{0};
  /// Parking lot only — never on the task hot path: pushers touch it solely
  /// when a registered sleeper exists (see note_push).
  Mutex park_mutex_;
  CondVar park_cv_;

  TraceRecorder* tracer_;
  /// Tasks per successful steal: 1 per deque steal, the chain length per
  /// inbox adoption (nullable; owned by the registry). Recording is one
  /// relaxed increment on a thread-owned shard.
  obs::LatencyHistogram* steal_batch_hist_ = nullptr;
};

}  // namespace atm::rt
