#include "runtime/scheduler.hpp"

#include <thread>

#include "common/timing.hpp"

namespace atm::rt {

namespace {
/// Acquire rounds a worker attempts (yielding between rounds) before it
/// parks. Each round sweeps every victim, so even a short budget gives the
/// whole pool several chances to hand work over without a futex round trip;
/// keeping it small matters on oversubscribed machines where spinning steals
/// cycles from the thread that would produce the work.
constexpr int kSpinRounds = 64;
/// The helper (master at a taskwait) spins far less before parking: it is
/// an opportunistic extra lane, and on few-core hosts every cycle it burns
/// spinning is a cycle the workers — who own the backlog — do not get.
constexpr int kHelperSpinRounds = 8;
}  // namespace

std::unique_ptr<Scheduler> Scheduler::make(SchedPolicy policy, unsigned workers,
                                           TraceRecorder* tracer,
                                           obs::MetricsRegistry* metrics) {
  switch (policy) {
    case SchedPolicy::Central: return std::make_unique<CentralScheduler>(tracer);
    case SchedPolicy::Steal:
      return std::make_unique<StealScheduler>(workers, tracer, metrics);
  }
  return std::make_unique<CentralScheduler>(tracer);
}

StealScheduler::StealScheduler(unsigned workers, TraceRecorder* tracer,
                               obs::MetricsRegistry* metrics)
    : workers_(workers > 0 ? workers : 1),
      inbox_mask_((workers_ & (workers_ - 1)) == 0 ? workers_ - 1 : 0),
      tracer_(tracer) {
  slots_.reserve(lane_count());
  for (unsigned w = 0; w < lane_count(); ++w) slots_.push_back(std::make_unique<WorkerSlot>());
  if (metrics != nullptr) {
    steal_batch_hist_ = metrics->histogram("sched.steal_batch_size", "tasks", "sched");
  }
}

void StealScheduler::note_push() {
  if (tracer_ != nullptr && tracer_->enabled()) {
    // mo: relaxed — depth sample is monitoring only.
    tracer_->sample_depth(now_ns(), items_.load(std::memory_order_relaxed));
  }
  // seq_cst pairs with the sleeper registration in pop_blocking/helper_pop:
  // either this load sees the registered sleeper (and we wake it), or the
  // sleeper's predicate load sees the item increment made in push() (so it
  // never sleeps).
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // The lock orders the notify against a sleeper that passed its predicate
    // check but has not yet suspended.
    MutexLock lock(park_mutex_);
    park_cv_.notify_one();
  }
}

Task* StealScheduler::acquired(Task* task) {
  // mo: relaxed — items_ is a conservatively-ordered gauge; the push side
  // (seq_cst fetch_add before publish) provides the never-underflow bound.
  items_.fetch_sub(1, std::memory_order_relaxed);
  if (tracer_ != nullptr && tracer_->enabled()) {
    // mo: relaxed — depth sample is monitoring only.
    tracer_->sample_depth(now_ns(), items_.load(std::memory_order_relaxed));
  }
  return task;
}

void StealScheduler::push(Task* task, std::size_t lane) {
  // Count the task BEFORE publishing it: a thief can steal it (and run the
  // fetch_sub in acquired()) the instant it lands in a deque, and the
  // counter must never transiently underflow — it feeds depth() and the
  // Figure-8 ready-depth samples.
  items_.fetch_add(1, std::memory_order_seq_cst);
  if (lane < lane_count()) {
    // Owner push: the lane making a successor ready keeps it local (LIFO,
    // still warm in its cache); thieves pick it up from the top if not.
    // Lane workers_ is the helper — the master acting as a transient worker
    // during a taskwait; its deque is in every worker's steal sweep.
    slots_[lane]->deque.push(task);
  } else {
    // External submission (master outside taskwait or any non-worker
    // thread): spread across the worker inboxes by task id (dense in
    // submission order — round-robin without a shared cursor). Lock-free
    // MPSC push: one CAS, no mutex anywhere. The helper slot gets no inbox
    // traffic: it is not always manned. Power-of-two pools (the common
    // sizes) mask instead of dividing — the modulo sits on every external
    // submit.
    const std::size_t victim = inbox_mask_ != 0 ? (task->id & inbox_mask_)
                                                : (task->id % workers_);
    WorkerSlot& slot = *slots_[victim];
    // mo: relaxed — head is only a CAS expected value; the CAS re-validates.
    Task* head = slot.inbox_head.load(std::memory_order_relaxed);
    do {
      // mo: relaxed — the publishing CAS below releases the link write.
      task->inbox_next.store(head, std::memory_order_relaxed);
      // mo: release publishes task->inbox_next to the acquiring drainer;
      // relaxed on failure (retry rereads head).
    } while (!slot.inbox_head.compare_exchange_weak(
        head, task, std::memory_order_release, std::memory_order_relaxed));
  }
  note_push();
}

Task* StealScheduler::take_inbox_chain(WorkerSlot& victim, std::size_t* n) {
  *n = 0;
  // mo: relaxed peek — empty inboxes are skipped without a fence; the
  // exchange below is the synchronizing read.
  if (victim.inbox_head.load(std::memory_order_relaxed) == nullptr) return nullptr;
  // mo: acquire pairs with the producers' release CAS so every inbox_next
  // link in the chain is visible.
  Task* chain = victim.inbox_head.exchange(nullptr, std::memory_order_acquire);
  if (chain == nullptr) return nullptr;
  // Reverse the LIFO chain back to submission order.
  Task* ordered = nullptr;
  std::size_t count = 0;
  while (chain != nullptr) {
    // mo: relaxed — the chain is exclusively owned after the exchange.
    Task* next = chain->inbox_next.load(std::memory_order_relaxed);
    // mo: relaxed — exclusively-owned chain rewrite.
    chain->inbox_next.store(ordered, std::memory_order_relaxed);
    ordered = chain;
    chain = next;
    ++count;
  }
  *n = count;
  return ordered;
}

Task* StealScheduler::adopt_chain(WorkerSlot& me, Task* chain, std::size_t n) {
  // Install a drained inbox chain (submission order) as `me`'s private
  // batch: the first kInboxBatch tasks become two-pointer-move acquisitions,
  // the remainder spills to the deque where other thieves can reach it. The
  // batched tasks leave the globally-visible pool now: account them in one
  // bulk decrement instead of one per task. Returns the first task, consumed.
  me.batch_head = chain;
  Task* tail = chain;
  std::size_t kept = 1;
  for (; kept < kInboxBatch; ++kept) {
    // mo: relaxed — exclusively-owned chain walk (drained above).
    Task* next = tail->inbox_next.load(std::memory_order_relaxed);
    if (next == nullptr) break;
    tail = next;
  }
  // mo: relaxed — exclusively-owned chain split.
  Task* spill = tail->inbox_next.load(std::memory_order_relaxed);
  tail->inbox_next.store(nullptr, std::memory_order_relaxed);
  if (spill == nullptr) kept = n;  // whole chain fit in the batch
  // mo: relaxed — bulk gauge decrement; see acquired() for the bound.
  items_.fetch_sub(kept, std::memory_order_relaxed);
  while (spill != nullptr) {
    // mo: relaxed — exclusively-owned spill walk; deque.push publishes.
    Task* next = spill->inbox_next.load(std::memory_order_relaxed);
    spill->inbox_next.store(nullptr, std::memory_order_relaxed);
    me.deque.push(spill);
    spill = next;
  }
  Task* task = me.batch_head;
  // mo: relaxed — batch links are owner-private from here on.
  me.batch_head = task->inbox_next.load(std::memory_order_relaxed);
  task->inbox_next.store(nullptr, std::memory_order_relaxed);
  return task;
}

Task* StealScheduler::acquire_local(unsigned lane) {
  WorkerSlot& slot = *slots_[lane];
  if (slot.batch_head != nullptr) {
    // Private batch: two pointer moves, no deque fence, no items_ traffic
    // (the whole batch was accounted when it was carved off).
    Task* task = slot.batch_head;
    // mo: relaxed — batch links are owner-private.
    slot.batch_head = task->inbox_next.load(std::memory_order_relaxed);
    task->inbox_next.store(nullptr, std::memory_order_relaxed);
    if (tracer_ != nullptr && tracer_->enabled()) {
      // mo: relaxed — depth sample is monitoring only.
      tracer_->sample_depth(now_ns(), items_.load(std::memory_order_relaxed));
    }
    return task;
  }
  if (Task* task = slot.deque.pop()) return acquired(task);
  // Drain the inbox wholesale: a k-task submission burst costs one exchange
  // here, not k acquires.
  std::size_t n = 0;
  Task* chain = take_inbox_chain(slot, &n);
  if (chain == nullptr) return nullptr;
  slot.inbox_drains.store(slot.inbox_drains.load() + 1);
  slot.inbox_drained_tasks.store(slot.inbox_drained_tasks.load() + n);
  return adopt_chain(slot, chain, n);
}

Task* StealScheduler::acquire_steal(unsigned lane) {
  WorkerSlot& me = *slots_[lane];
  // One sweep over the other lanes (workers + the helper slot), starting at
  // lane + 1: the victim's deque top first, then its inbox so a
  // long-running victim cannot strand external submissions behind its back.
  me.steal_attempts.store(me.steal_attempts.load() + 1);
  const unsigned total = lane_count();
  for (unsigned i = 1; i < total; ++i) {
    const unsigned v = lane + i < total ? lane + i : lane + i - total;
    WorkerSlot& victim = *slots_[v];
    if (Task* task = victim.deque.steal()) {
      if (steal_batch_hist_ != nullptr) steal_batch_hist_->record(1);
      return acquired(task);
    }
    // Adopt the victim's stranded inbox as our own batch (+ deque spill):
    // redistributes a whole burst in one exchange — this is the helper's
    // main acquisition path during a wave drain.
    std::size_t n = 0;
    if (Task* chain = take_inbox_chain(victim, &n)) {
      if (steal_batch_hist_ != nullptr) steal_batch_hist_->record(n);
      me.inbox_drains.store(me.inbox_drains.load() + 1);
      me.inbox_drained_tasks.store(me.inbox_drained_tasks.load() + n);
      return adopt_chain(me, chain, n);
    }
  }
  me.steal_fails.store(me.steal_fails.load() + 1);
  return nullptr;
}

SchedulerStats StealScheduler::stats() const noexcept {
  SchedulerStats s;
  // mo: relaxed — racy monitoring snapshot by contract.
  s.depth = items_.load(std::memory_order_relaxed);
  for (const auto& slot : slots_) {
    s.steal_attempts += slot->steal_attempts.load();
    s.steal_fails += slot->steal_fails.load();
    s.inbox_drains += slot->inbox_drains.load();
    s.inbox_drained_tasks += slot->inbox_drained_tasks.load();
  }
  return s;
}

Task* StealScheduler::try_pop(unsigned lane) {
  if (Task* task = acquire_local(lane)) return task;
  return acquire_steal(lane);
}

Task* StealScheduler::pop_blocking(unsigned worker) {
  for (;;) {
    // Spin phase: bounded acquire rounds with yields between them.
    for (int round = 0; round < kSpinRounds; ++round) {
      if (Task* task = try_pop(worker)) return task;
      // mo: acquire pairs with shutdown()'s release store.
      if (shutdown_.load(std::memory_order_acquire)) {
        // Drain semantics: after shutdown keep acquiring until the system
        // is globally empty, then exit. taskwait() ran before shutdown in
        // the runtime, so this terminates immediately in practice.
        if (items_.load(std::memory_order_seq_cst) == 0) return nullptr;
      }
      std::this_thread::yield();
    }
    // mo: acquire pairs with shutdown()'s release store.
    if (shutdown_.load(std::memory_order_acquire)) continue;  // drain, never park

    // Park. Register as a sleeper first (seq_cst, pairing with note_push),
    // then re-check for work under the lock: a push that raced our
    // registration is seen either here or by its sleeper check.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexLock lock(park_mutex_);
      // mo: acquire on shutdown_ pairs with shutdown()'s release store;
      // items_ stays seq_cst to close the sleep/wake race with note_push.
      while (!shutdown_.load(std::memory_order_acquire) &&
             items_.load(std::memory_order_seq_cst) == 0) {
        park_cv_.wait(park_mutex_);
      }
    }
    // mo: relaxed — deregistering needs no ordering; a spurious notify to a
    // lane that just woke is harmless.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Task* StealScheduler::helper_pop(const std::function<bool()>& quit) {
  const unsigned lane = workers_;  // the helper slot
  for (;;) {
    // mo: acquire pairs with shutdown()'s release store.
    if (quit() || shutdown_.load(std::memory_order_acquire)) return nullptr;
    if (Task* task = try_pop(lane)) return task;
    // Short spin only: the helper is a bonus lane; on few-core hosts the
    // workers own the backlog and need the cycles more.
    for (int round = 0; round < kHelperSpinRounds; ++round) {
      // mo: acquire pairs with shutdown()'s release store.
      if (quit() || shutdown_.load(std::memory_order_acquire)) return nullptr;
      if (Task* task = try_pop(lane)) return task;
      std::this_thread::yield();
    }
    // Park on the shared lot. Same seq_cst sleeper/item pairing as the
    // workers, with the quit condition folded into the wait loop — the
    // runtime calls notify_helpers() when it flips, so the wakeup is
    // exactly the push/quit/shutdown union, never a timeout poll.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexLock lock(park_mutex_);
      // mo: acquire on shutdown_ pairs with shutdown()'s release store;
      // items_ stays seq_cst to close the sleep/wake race with note_push.
      while (!shutdown_.load(std::memory_order_acquire) &&
             items_.load(std::memory_order_seq_cst) == 0 && !quit()) {
        park_cv_.wait(park_mutex_);
      }
    }
    // mo: relaxed — deregistering needs no ordering.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void StealScheduler::notify_helpers() {
  // notify_all, not notify_one: the lot is shared with the workers and the
  // wakeup must reach the helper specifically.
  MutexLock lock(park_mutex_);
  park_cv_.notify_all();
}

void StealScheduler::shutdown() {
  // mo: release pairs with the acquire loads in the pop paths so a worker
  // that observes shutdown also observes everything queued before it.
  shutdown_.store(true, std::memory_order_release);
  MutexLock lock(park_mutex_);
  park_cv_.notify_all();
}

void StealScheduler::reset() {
  // mo: release mirrors shutdown(); pairs with the pop-side acquire loads.
  shutdown_.store(false, std::memory_order_release);
}

}  // namespace atm::rt
