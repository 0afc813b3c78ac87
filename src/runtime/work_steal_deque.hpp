// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05) with the C11
// memory-order discipline of Lê et al., "Correct and Efficient Work-Stealing
// for Weak Memory Models" (PPoPP'13).
//
// One owner thread pushes and pops at the bottom (LIFO — the task it just
// made ready is the hottest in cache); any number of thief threads steal one
// task at a time from the top (FIFO — thieves take the oldest task, which
// tends to root the largest untouched subtree). All operations are lock-free.
// The owner takes the bottom slot without a CAS whenever more than one
// element remains; only the last element is contested, and that one is
// claimed with the same top CAS the thieves use.
//
// The circular buffer grows geometrically and never shrinks. Retired buffers
// are kept alive until the deque is destroyed: a thief may still be reading a
// stale buffer pointer, and parking the garbage is far cheaper than hazard
// pointers for the handful of growths a run performs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

// ThreadSanitizer does not model standalone atomic_thread_fence precisely,
// which makes the canonical fence-based Chase-Lev protocol report false
// races. Under TSan every operation is promoted to seq_cst (correct, merely
// slower) so the stress suite runs clean; production builds keep the precise
// weak orders.
#if defined(__SANITIZE_THREAD__)
#define ATM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATM_TSAN_BUILD 1
#endif
#endif

namespace atm::rt {

class Task;

namespace detail {
constexpr std::memory_order relax_unless_tsan(std::memory_order order) noexcept {
#ifdef ATM_TSAN_BUILD
  (void)order;
  return std::memory_order_seq_cst;
#else
  return order;
#endif
}

/// Standalone fences are both unsupported by TSan (GCC -Wtsan) and redundant
/// under the seq_cst promotion above, so they compile away in TSan builds.
inline void deque_fence(std::memory_order order) noexcept {
#ifdef ATM_TSAN_BUILD
  (void)order;
#else
  std::atomic_thread_fence(order);
#endif
}
}  // namespace detail

class WorkStealDeque {
 public:
  explicit WorkStealDeque(std::size_t initial_capacity = 256)
      : buffer_(new Buffer(round_up_pow2(initial_capacity))) {}

  ~WorkStealDeque() {
    // mo: relaxed — single-threaded teardown; no concurrent access remains.
    delete buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only: push one task at the bottom.
  void push(Task* task) {
    // mo: relaxed bottom/buffer — owner-private variables (only the owner
    // writes them); mo: acquire top — synchronizes with the thieves' CAS so
    // the owner's capacity check sees freed slots.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    const std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      buf = grow(buf, t, b);
    }
    // mo: relaxed slot store — the release fence below orders it before the
    // bottom store that publishes the slot to thieves (Lê et al. Fig. 1).
    buf->slot(b).store(task, detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: release fence — publish the slot before the new bottom becomes
    // visible to thieves; mo: relaxed bottom store — the fence carries the
    // ordering.
    detail::deque_fence(std::memory_order_release);
    bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
  }

  /// Owner only: pop the newest task (LIFO); nullptr when empty.
  Task* pop() {
    // mo: relaxed — bottom/buffer are owner-private; the seq_cst fence below
    // provides the only cross-thread ordering pop needs.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed)) - 1;
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    bottom_.store(b, detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: seq_cst fence — the bottom store must be ordered before the top
    // load (store-load), mirroring the fence in steal(): either the owner
    // sees a fresh-enough top, or the thief sees the reserved bottom and
    // backs off slot b. mo: relaxed top load — the fence carries the ordering.
    detail::deque_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (t > b) {
      // mo: relaxed — deque was empty; undo the owner-private reservation.
      bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
      return nullptr;
    }
    // mo: relaxed slot load — the owner published this slot itself.
    Task* task = buf->slot(b).load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (t == b) {
      // Last element: a thief may be claiming slot t == b right now, so take
      // it with the thieves' CAS. mo: seq_cst CAS — claims the element
      // against the thieves; relaxed on failure (a thief won it).
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        detail::relax_unless_tsan(std::memory_order_relaxed))) {
        task = nullptr;
      }
      // mo: relaxed — bottom is owner-private; the deque is empty either way.
      bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
    }
    return task;
  }

  /// Thieves: steal the oldest task; nullptr when empty or lost a race.
  Task* steal() {
    // mo: acquire top — pairs with the winning CAS of other thieves.
    std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    // mo: seq_cst fence — order the top load before the bottom load (the
    // load-load mirror of the fence in pop()).
    detail::deque_fence(std::memory_order_seq_cst);
    // mo: acquire bottom/buffer — pair with push()'s release so the slot
    // contents (and a grown buffer) are visible before we read the slot.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    // mo: relaxed slot load — ordered by the acquires above.
    Task* task = buf->slot(t).load(detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: seq_cst CAS — claims the element against the owner and other
    // thieves; relaxed on failure (the value is discarded).
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      detail::relax_unless_tsan(std::memory_order_relaxed))) {
      return nullptr;  // another thief or the owner won; caller retries
    }
    return task;
  }

  /// Racy size estimate (monitoring only, never for correctness).
  [[nodiscard]] std::size_t size_estimate() const noexcept {
    // mo: relaxed — racy estimate by contract.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    const std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    // mo: relaxed — monitoring read; capacity is immutable per buffer.
    return buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed))->capacity;
  }

  /// Resident bytes (buffer + retired garbage), for memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t n = capacity() * sizeof(std::atomic<Task*>);
    for (const auto& r : retired_) n += r->capacity * sizeof(std::atomic<Task*>);
    return n;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<Task*>[]>(cap)) {}
    [[nodiscard]] std::atomic<Task*>& slot(std::int64_t i) noexcept {
      return slots[static_cast<std::size_t>(i) & mask];
    }
    const std::size_t capacity;
    const std::size_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  /// Owner only (called from push): double the buffer, copy live slots.
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    // mo: relaxed copy — the old slots were published before this call and
    // the release store below republishes them through the new buffer.
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(detail::relax_unless_tsan(std::memory_order_relaxed)),
                            detail::relax_unless_tsan(std::memory_order_relaxed));
    }
    // mo: release — thieves acquiring buffer_ must see the copied slots.
    buffer_.store(bigger, detail::relax_unless_tsan(std::memory_order_release));
    retired_.emplace_back(old);  // thieves may still hold the old pointer
    return bigger;
  }

  // top_ and bottom_ on separate cache lines: thieves hammer top_, the owner
  // hammers bottom_.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> retired_;  // owner-only, freed with the deque
};

}  // namespace atm::rt
