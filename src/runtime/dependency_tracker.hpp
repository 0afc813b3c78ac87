// Builds the Task Dependence Graph (TDG) from declared data accesses.
//
// OmpSs/OpenMP-4.0 semantics over byte ranges:
//   * `in`  on [s,e)  -> depends on the last writer of every overlapping byte
//   * `out`/`inout`   -> additionally depends on every reader since that
//                        writer (WAR) and becomes the new last writer
//
// Ranges may partially overlap; the tracker keeps a set of disjoint segments
// keyed by start address and splits them on demand, so irregular accesses
// (not just the block-aligned ones of the paper's apps) are handled exactly.
//
// PR 5: the tracker is a two-level dependence index. Level 1 is an
// open-addressed hash table keyed by the exact (begin, length) of a segment;
// it services the dominant "same region re-submitted every iteration" case
// (stencil blocks, kmeans center reads, storm cells) in O(1) without walking
// the interval tree. Level 2 is the interval tree (plus the ascending append
// log), reached only when an access does not exactly match a live segment —
// partial overlaps, splits, and first-touch registrations. The index entries
// point at tree nodes (std::map nodes are address-stable), and every tree
// emplace/erase keeps the two levels coherent. Barrier resets keep the
// segment *geometry* (and the exact index) while releasing the task
// references, so iterative apps re-enter steady state at O(1) per access on
// the very first post-barrier wave.
//
// Lifetime: every segment slot naming a task (last writer or reader set)
// holds one reference on it (task_retain/task_release), so the pointers in
// the map stay dereferenceable even after the task finished and was
// otherwise retired. Slots referencing only Finished tasks carry no
// dependence information — prune_finished() drops them, which both bounds
// the map for streaming address patterns and releases the final references
// that let the arena recycle the task records.
//
// DependencyTracker is not thread-safe by itself; ShardedDependencyTracker
// (below) partitions the address space into granules, maps granules onto a
// small set of lock-protected shard trackers, and two-phase-locks a task's
// whole footprint so concurrent submitters register atomically — the
// de-serialized replacement for the runtime's old single graph mutex.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <vector>

#include "common/thread_safety.hpp"
#include "runtime/task.hpp"
#include "runtime/task_arena.hpp"

namespace atm::rt {

/// Observability counters for the two-level index (monotonic; aggregated
/// across shards by ShardedDependencyTracker::stats()). `exact_hits` vs
/// `tree_fallbacks` is the headline ratio: iterative apps should be
/// exact-dominated; `prune_scans` counts amortized prune sweeps so
/// prune-scan pathology is visible without a profiler.
struct DepIndexStats {
  std::uint64_t exact_hits = 0;      ///< accesses served by the (begin,len) table
  std::uint64_t tree_fallbacks = 0;  ///< accesses that walked the interval tree
  std::uint64_t prune_scans = 0;     ///< prune_finished() sweeps executed

  DepIndexStats& operator+=(const DepIndexStats& o) noexcept {
    exact_hits += o.exact_hits;
    tree_fallbacks += o.tree_fallbacks;
    prune_scans += o.prune_scans;
    return *this;
  }
};

class DependencyTracker {
 public:
  ~DependencyTracker() { clear(); }

  /// Register every access of `task` and append the distinct predecessor
  /// tasks it must wait for to `deps` (possibly including already-finished
  /// tasks; the caller filters via the succ_sealed protocol). Each appended
  /// dep carries one reference, which the caller owns (pooled-task callers
  /// must task_release() each entry after consuming the list; standalone
  /// test tasks are unaffected — their counts never reach the release path).
  void register_task(Task& task, std::vector<Task*>& deps);

  /// Register one access clipped to [begin, end) — the sharded wrapper's
  /// entry point (each shard sees only its own granules of an access).
  void register_range(Task& task, AccessMode mode, std::uintptr_t begin,
                      std::uintptr_t end, std::vector<Task*>& deps);

  /// Drop all segment bookkeeping, releasing the task references the slots
  /// held (legal only at a barrier, when no task is pending: every future
  /// dependence would be on a finished task anyway).
  void clear() noexcept;

  /// Barrier reset that keeps the geometry: release every task reference
  /// (all tasks are finished at a barrier) but retain the segments and the
  /// exact index, so the next wave's identical regions are O(1) exact hits
  /// instead of fresh inserts. Retained segments reference no tasks, which
  /// makes them ordinary prune fodder if the address pattern moves on.
  void reset_task_refs() noexcept;

  /// Drop segments whose writer and readers have all Finished: they can
  /// never contribute a dependence again. Returns the surviving count.
  std::size_t prune_finished() noexcept;

  /// Number of live segments, tree + staged log (tests, memory accounting).
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size() + log_.size();
  }

  [[nodiscard]] const DepIndexStats& stats() const noexcept { return stats_; }

 private:
  struct Segment {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    Task* writer = nullptr;       ///< last writer, may already be Finished
    std::vector<Task*> readers;   ///< readers since the last write
  };

  /// Map nodes come from a per-tracker pool: segments churn once per task
  /// in streaming workloads, and the pool recycles nodes without a
  /// malloc/free round trip (and with better locality than the heap).
  using SegMap = std::pmr::map<std::uintptr_t, Segment>;

  /// One slot of the exact-interval side table. `seg == nullptr` marks an
  /// empty slot; live slots point into `segments_` (node addresses are
  /// stable), keyed by the segment's exact (begin, length).
  struct ExactSlot {
    std::uintptr_t begin = 0;
    std::uintptr_t len = 0;
    Segment* seg = nullptr;
  };

  [[nodiscard]] static std::size_t exact_hash(std::uintptr_t begin,
                                              std::uintptr_t len) noexcept {
    // splitmix64-style avalanche over both key words; the table mask picks
    // the low bits, so the multiply must diffuse begin's high entropy down.
    std::uint64_t x = static_cast<std::uint64_t>(begin) ^
                      (static_cast<std::uint64_t>(len) * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }

  [[nodiscard]] Segment* exact_find(std::uintptr_t begin, std::uintptr_t len) noexcept;
  void exact_insert(Segment* seg);
  void exact_erase(const Segment& seg) noexcept;
  void exact_grow();
  void exact_reserve(std::size_t live);
  void exact_rehash(std::size_t cap);

  /// Emplace into the tree AND the exact index (every tree segment is
  /// indexed; log entries are not — they fold in via merge_log).
  SegMap::iterator tree_emplace(SegMap::iterator hint, std::uintptr_t begin,
                                Segment&& seg);

  /// Split the segment at `at` (strictly inside it); returns the iterator to
  /// the right half, which starts at `at`. Both halves keep referencing the
  /// same tasks, so the duplicated slots each retain their targets.
  SegMap::iterator split(SegMap::iterator it, std::uintptr_t at);

  /// Record deps of `task` accessing `seg` with `mode`, then update the
  /// segment's writer/readers (retaining/releasing as slots change hands).
  static void apply(Segment& seg, Task& task, AccessMode mode, std::vector<Task*>& deps);

  static void add_dep(std::vector<Task*>& deps, Task* dep, const Task& self);
  static void release_segment(Segment& seg) noexcept;

  /// Fold the append log into the tree (each entry is rightmost, so every
  /// insert is an O(1) end-hint append). Called before any tree walk.
  void merge_log();

  std::pmr::unsynchronized_pool_resource node_pool_;
  SegMap segments_{&node_pool_};
  /// Staging run for the fast path: strictly ascending, mutually disjoint
  /// segments that all lie at or beyond every tree segment. The dominant
  /// ascending/fresh-address submission patterns only ever push_back here
  /// (and a full clear drops a flat vector, not a tree); the log folds into
  /// the tree the first time an access actually needs an overlap query.
  std::vector<Segment> log_;
  /// Exact-interval side table: open-addressed, linear probing,
  /// backward-shift deletion (no tombstones). Capacity is a power of two;
  /// empty until the first tree emplace.
  std::vector<ExactSlot> exact_;
  std::size_t exact_live_ = 0;
  /// Upper bound on every segment's end address, tree and log (conservative:
  /// never shrinks outside clear()). An access starting at or past it cannot
  /// overlap anything — the O(1) append fast path.
  std::uintptr_t max_end_ = 0;
  DepIndexStats stats_;
};

/// Sharded front of the tracker: the submit-path lock is split by address
/// region so independent submissions proceed in parallel.
///
/// Mapping: the address space is cut into 2^kRegionShift-byte granules and
/// each granule hashes onto one of the 2^kLog2Shards shard trackers. A
/// task's accesses are clipped at granule boundaries and each piece is
/// registered in its granule's shard. Registration first collects the
/// shard set of the whole footprint and locks it in ascending index order —
/// classic two-phase locking, so two tasks overlapping in several shards
/// can never observe each other in opposite orders (no dependence cycles).
/// The common single-access single-granule task shape skips the footprint
/// machinery entirely and locks its one shard directly.
class ShardedDependencyTracker {
 public:
  /// Granule size exponent: 2 MiB granules keep typical app block accesses
  /// in one shard while spreading distinct buffers across the pool.
  static constexpr unsigned kRegionShift = 21;
  /// log2 of the shard count (16 shards), the submit-path lock granularity.
  /// At most 6: the footprint set is a 64-bit mask.
  static constexpr unsigned kLog2Shards = 4;
  static constexpr std::size_t kShardCount = std::size_t{1} << kLog2Shards;
  static_assert(kLog2Shards >= 1 && kLog2Shards <= 6);

  /// Register `task`, then call `visit(dep)` for every distinct predecessor
  /// while the footprint's shard locks are still held (the locks pin the
  /// segment references, so dep pointers are safe to link during the visit).
  /// Thread-safety analysis is off here: the slow path acquires a
  /// data-dependent set of shard locks through lock_mask(footprint), which
  /// the static analysis cannot name (the fast path's single lock/unlock
  /// pair is visible but shares the function). The protocol itself —
  /// ascending-index two-phase locking — is documented at lock_mask.
  template <typename DepVisitor>
  void register_task(Task& task, DepVisitor&& visit) ATM_NO_THREAD_SAFETY_ANALYSIS {
    thread_local std::vector<Task*> deps;
    deps.clear();
    // Fast path: one access inside one granule (the dominant task shape in
    // fine-grained storms) locks its single shard directly — no footprint
    // mask, no bit loops, no granule clipping.
    if (task.accesses.size() == 1) {
      const DataAccess& access = task.accesses.front();
      const std::uintptr_t s = access.begin();
      const std::uintptr_t e = access.end();
      if (s != e && ((s ^ (e - 1)) >> kRegionShift) == 0) {
        Shard& shard = shards_[shard_index(s)];
        shard.mutex.lock();
        shard.tracker.register_range(task, access.mode, s, e, deps);
        for (Task* dep : deps) visit(dep);
        maybe_prune_shard(shard);
        shard.mutex.unlock();
        for (Task* dep : deps) task_release(dep);
        return;
      }
    }
    const std::uint64_t footprint = footprint_mask(task);
    lock_mask(footprint);
    for (const DataAccess& access : task.accesses) {
      std::uintptr_t cursor = access.begin();
      const std::uintptr_t end = access.end();
      while (cursor < end) {
        const std::uintptr_t granule_end =
            ((cursor >> kRegionShift) + 1) << kRegionShift;
        const std::uintptr_t piece_end = granule_end < end ? granule_end : end;
        shards_[shard_index(cursor)].tracker.register_range(task, access.mode, cursor,
                                                            piece_end, deps);
        cursor = piece_end;
      }
    }
    for (Task* dep : deps) visit(dep);
    maybe_prune_locked(footprint);
    unlock_mask(footprint);
    // Drop the references add_dep() took on the deps list entries.
    for (Task* dep : deps) task_release(dep);
  }

  /// Barrier reset: every shard releases its task references but keeps its
  /// segment geometry + exact index (so post-barrier waves re-submitting
  /// the same regions hit the O(1) exact table). Shards whose maps grew
  /// past the retention cap are fully cleared instead — retention is a
  /// reuse accelerator, not a leak.
  void reset_after_barrier() noexcept;

  /// Full reset: clears every shard (releasing all segment references and
  /// dropping all geometry). Used by teardown and tests.
  void clear() noexcept;

  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] DepIndexStats stats() const;

 private:
  struct alignas(64) Shard {
    /// Spinlock, not a futex mutex: the critical section is a couple of map
    /// operations and submissions rarely collide on a shard; TaskSpinLock
    /// yields after a bounded burst, so oversubscribed hosts stay live.
    TaskSpinLock mutex;
    DependencyTracker tracker ATM_GUARDED_BY(mutex);
    /// Segment count after the last prune; the next prune triggers once the
    /// map doubles past it (amortized O(1) per registration).
    std::size_t prune_floor ATM_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] std::size_t shard_index(std::uintptr_t addr) const noexcept {
    const std::uint64_t granule = static_cast<std::uint64_t>(addr) >> kRegionShift;
    return static_cast<std::size_t>((granule * 0x9e3779b97f4a7c15ull) >>
                                    (64 - kLog2Shards));
  }

  [[nodiscard]] std::uint64_t footprint_mask(const Task& task) const noexcept;
  /// Dynamic lock set (one lock per set bit, ascending index): opted out of
  /// the static analysis, which cannot express mask-driven acquisition.
  void lock_mask(std::uint64_t mask) noexcept ATM_NO_THREAD_SAFETY_ANALYSIS;
  void unlock_mask(std::uint64_t mask) noexcept ATM_NO_THREAD_SAFETY_ANALYSIS;
  void maybe_prune_locked(std::uint64_t mask) noexcept ATM_NO_THREAD_SAFETY_ANALYSIS;
  static void maybe_prune_shard(Shard& shard) noexcept ATM_REQUIRES(shard.mutex);

  std::unique_ptr<Shard[]> shards_ = std::make_unique<Shard[]>(kShardCount);
};

}  // namespace atm::rt
