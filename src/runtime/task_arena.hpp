// Pooled Task storage: block-allocated slots recycled through a free list.
//
// The runtime used to heap-allocate a fresh Task (plus access/successor
// vectors) per submission and keep every record alive until the next
// taskwait — so the malloc pair sat on the submit hot path and a barrier-free
// task stream grew memory without bound. The arena fixes both: acquire()
// pops a retired slot (its vectors keep their capacity, so steady-state
// submission performs no allocation at all) and release() returns a slot the
// moment its reference count drops to zero (see task.hpp for who holds
// references). Blocks are never freed before the arena itself dies, so raw
// Task* stay dereferenceable for the arena's lifetime; the reference count
// is what guarantees a slot is not *recycled* under a holder.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/spin_lock.hpp"
#include "common/thread_safety.hpp"
#include "runtime/task.hpp"

namespace atm::rt {

/// Point-in-time arena occupancy (tests, table3-style memory accounting,
/// the streaming-regression RSS guard).
struct TaskArenaStats {
  std::size_t slots = 0;        ///< total slots across all blocks
  std::size_t free_slots = 0;   ///< retired slots awaiting reuse
  std::size_t blocks = 0;
  std::size_t slab_bytes = 0;   ///< sizeof(Task) * slots (vector payloads excluded)

  [[nodiscard]] std::size_t live_slots() const noexcept { return slots - free_slots; }
};

class TaskArena {
 public:
  /// `tasks_per_block == 0` selects the default slab size (the zero-guard
  /// lives here only).
  explicit TaskArena(std::size_t tasks_per_block = 0)
      : tasks_per_block_(tasks_per_block != 0 ? tasks_per_block : 256) {}

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Pop a retired slot (or carve a new block) and reset it for a fresh
  /// submission: one in-flight reference, vectors cleared but with their
  /// previous capacity retained.
  [[nodiscard]] Task* acquire() {
    Task* task = nullptr;
    {
      SpinLockGuard lock(mutex_);
      if (free_head_ == nullptr) {
        // Refill from the release stack in one exchange: releasers never
        // touch the mutex, so completions on workers cannot bounce a lock
        // against the submitting thread.
        // mo: acquire pairs with release()'s releasing CAS so the drained
        // slots' free_next links are visible.
        free_head_ = recycled_.exchange(nullptr, std::memory_order_acquire);
        if (free_head_ == nullptr) grow_locked();
      }
      task = free_head_;
      free_head_ = task->free_next;
    }
    // mo: relaxed — occupancy gauge, monitoring only.
    free_count_.fetch_sub(1, std::memory_order_relaxed);
    task->id = 0;
    task->type = nullptr;
    task->fn = nullptr;
    task->accesses.clear();
    task->reset_dep_state_unshared();
    task->pending_preds.store(0);
    task->state = TaskState::Created;
    task->refs.store(1);
    task->free_next = nullptr;
    task->inbox_next.store(nullptr);
    task->atm_key = 0;
    task->atm_p = 0.0;
    task->atm_key_valid = false;
    task->atm_memoized = false;
    return task;
  }

  /// Return a slot whose reference count reached zero. Lock-free Treiber
  /// push (push-only, so no ABA); acquire() drains the stack wholesale. The
  /// slot's vectors keep their capacity; the closure was already dropped at
  /// completion.
  void release(Task* task) noexcept {
    // mo: relaxed — head is only a CAS expected value; the CAS re-validates.
    Task* head = recycled_.load(std::memory_order_relaxed);
    do {
      task->free_next = head;
      // mo: release publishes free_next (and the retired slot's state) to
      // acquire()'s draining exchange; relaxed on failure (retry rereads).
    } while (!recycled_.compare_exchange_weak(head, task, std::memory_order_release,
                                              std::memory_order_relaxed));
    // mo: relaxed — occupancy gauge, monitoring only.
    free_count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] TaskArenaStats stats() const {
    TaskArenaStats s;
    // mo: relaxed — racy monitoring snapshot by contract.
    s.slots = slot_count_.load(std::memory_order_relaxed);
    s.free_slots = free_count_.load(std::memory_order_relaxed);
    s.blocks = block_count_.load(std::memory_order_relaxed);
    s.slab_bytes = s.slots * sizeof(Task);
    return s;
  }

 private:
  void grow_locked() ATM_REQUIRES(mutex_) {
    auto block = std::make_unique<Task[]>(tasks_per_block_);
    for (std::size_t i = 0; i < tasks_per_block_; ++i) {
      block[i].pool = this;
      block[i].free_next = free_head_;
      free_head_ = &block[i];
    }
    blocks_.push_back(std::move(block));
    // mo: relaxed — occupancy gauges, monitoring only.
    slot_count_.fetch_add(tasks_per_block_, std::memory_order_relaxed);
    free_count_.fetch_add(tasks_per_block_, std::memory_order_relaxed);
    block_count_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::size_t tasks_per_block_;
  /// Release side: lock-free stack of retired slots.
  std::atomic<Task*> recycled_{nullptr};
  /// Acquire side: spinlock-protected stash (submitters only; the critical
  /// section is a pointer pop except when a new block is carved).
  TaskSpinLock mutex_;
  Task* free_head_ ATM_GUARDED_BY(mutex_) = nullptr;
  std::vector<std::unique_ptr<Task[]>> blocks_ ATM_GUARDED_BY(mutex_);
  std::atomic<std::size_t> slot_count_{0};
  std::atomic<std::size_t> free_count_{0};
  std::atomic<std::size_t> block_count_{0};
};

/// Add one lifetime reference to `task` (segment slots, etc.). Legal for
/// standalone tasks too: their count never reaches the release path.
inline void task_retain(Task* task) noexcept {
  // mo: relaxed — taking a reference publishes nothing; the holder already
  // reached the task through a synchronizing edge.
  task->refs.fetch_add(1, std::memory_order_relaxed);
}

/// Drop one lifetime reference; the holder must not touch `task` afterwards.
/// The thread that drops the last reference retires the slot to its arena
/// (standalone tasks — pool == nullptr — are simply left alone).
inline void task_release(Task* task) noexcept {
  // mo: acq_rel — release orders this holder's last use before the drop;
  // acquire on the final decrement orders every other holder's uses before
  // the slot is recycled.
  if (task->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (task->pool != nullptr) task->pool->release(task);
  }
}

}  // namespace atm::rt
