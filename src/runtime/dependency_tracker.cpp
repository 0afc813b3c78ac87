#include "runtime/dependency_tracker.hpp"

#include <algorithm>
#include <bit>

#include "common/spin_lock.hpp"
#include "runtime/task_arena.hpp"

namespace atm::rt {

void DependencyTracker::add_dep(std::vector<Task*>& deps, Task* dep, const Task& self) {
  if (dep == nullptr || dep == &self) return;
  if (std::find(deps.begin(), deps.end(), dep) == deps.end()) {
    // The deps list holds a reference per entry: registering a write access
    // may release the dep's (possibly last) segment slot in the very next
    // statement of apply(), and the caller still needs the pointer alive to
    // link the dependence. The caller releases after consuming the list.
    task_retain(dep);
    deps.push_back(dep);
  }
}

void DependencyTracker::apply(Segment& seg, Task& task, AccessMode mode,
                              std::vector<Task*>& deps) {
  const bool reads = mode != AccessMode::Out;
  const bool writes = mode != AccessMode::In;
  if (reads) {
    add_dep(deps, seg.writer, task);
  }
  if (writes) {
    add_dep(deps, seg.writer, task);
    for (Task* r : seg.readers) add_dep(deps, r, task);
    // Retain the new writer before releasing the old slot holders: when the
    // task already owns the slot (a second overlapping write access) the
    // count must never transiently reach zero.
    task_retain(&task);
    if (seg.writer != nullptr) task_release(seg.writer);
    seg.writer = &task;
    for (Task* r : seg.readers) task_release(r);
    seg.readers.clear();
  } else {
    if (std::find(seg.readers.begin(), seg.readers.end(), &task) == seg.readers.end()) {
      task_retain(&task);
      seg.readers.push_back(&task);
    }
  }
}

void DependencyTracker::release_segment(Segment& seg) noexcept {
  if (seg.writer != nullptr) task_release(seg.writer);
  for (Task* r : seg.readers) task_release(r);
  seg.writer = nullptr;
  seg.readers.clear();
}

// --- exact-interval side table ---------------------------------------------

DependencyTracker::Segment* DependencyTracker::exact_find(std::uintptr_t begin,
                                                          std::uintptr_t len) noexcept {
  if (exact_live_ == 0) return nullptr;
  const std::size_t mask = exact_.size() - 1;
  std::size_t i = exact_hash(begin, len) & mask;
  for (;;) {
    ExactSlot& slot = exact_[i];
    if (slot.seg == nullptr) return nullptr;
    if (slot.begin == begin && slot.len == len) return slot.seg;
    i = (i + 1) & mask;
  }
}

void DependencyTracker::exact_insert(Segment* seg) {
  if (exact_.empty() || (exact_live_ + 1) * 4 > exact_.size() * 3) exact_grow();
  const std::size_t mask = exact_.size() - 1;
  const std::uintptr_t len = seg->end - seg->begin;
  std::size_t i = exact_hash(seg->begin, len) & mask;
  while (exact_[i].seg != nullptr) {
    if (exact_[i].begin == seg->begin && exact_[i].len == len) {
      exact_[i].seg = seg;
      return;
    }
    i = (i + 1) & mask;
  }
  exact_[i] = ExactSlot{seg->begin, len, seg};
  ++exact_live_;
}

void DependencyTracker::exact_erase(const Segment& seg) noexcept {
  if (exact_live_ == 0) return;
  const std::size_t mask = exact_.size() - 1;
  const std::uintptr_t len = seg.end - seg.begin;
  std::size_t i = exact_hash(seg.begin, len) & mask;
  for (;;) {
    if (exact_[i].seg == nullptr) return;  // not indexed (never happens today)
    if (exact_[i].begin == seg.begin && exact_[i].len == len) break;
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: pull every later cluster member whose probe
  // path crossed the hole back over it, so lookups stay tombstone-free
  // (splits and prunes delete constantly; tombstones would decay the table).
  std::size_t hole = i;
  std::size_t j = (i + 1) & mask;
  while (exact_[j].seg != nullptr) {
    const std::size_t home = exact_hash(exact_[j].begin, exact_[j].len) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      exact_[hole] = exact_[j];
      hole = j;
    }
    j = (j + 1) & mask;
  }
  exact_[hole] = ExactSlot{};
  --exact_live_;
}

void DependencyTracker::exact_grow() { exact_rehash(exact_.empty() ? 64 : exact_.size() * 2); }

void DependencyTracker::exact_reserve(std::size_t live) {
  // Smallest power-of-two capacity keeping the load factor under 3/4.
  std::size_t cap = exact_.empty() ? 64 : exact_.size();
  while (live * 4 > cap * 3) cap *= 2;
  if (cap != exact_.size()) exact_rehash(cap);
}

void DependencyTracker::exact_rehash(std::size_t cap) {
  std::vector<ExactSlot> old = std::move(exact_);
  exact_.assign(cap, ExactSlot{});
  const std::size_t mask = cap - 1;
  for (const ExactSlot& slot : old) {
    if (slot.seg == nullptr) continue;
    std::size_t i = exact_hash(slot.begin, slot.len) & mask;
    while (exact_[i].seg != nullptr) i = (i + 1) & mask;
    exact_[i] = slot;
  }
}

DependencyTracker::SegMap::iterator DependencyTracker::tree_emplace(
    SegMap::iterator hint, std::uintptr_t begin, Segment&& seg) {
  auto it = segments_.emplace_hint(hint, begin, std::move(seg));
  // Map nodes are address-stable, so the index can point straight at the
  // mapped Segment for the node's whole lifetime.
  exact_insert(&it->second);
  return it;
}

DependencyTracker::SegMap::iterator DependencyTracker::split(SegMap::iterator it,
                                                             std::uintptr_t at) {
  exact_erase(it->second);
  Segment left = it->second;
  Segment right = it->second;
  left.end = at;
  right.begin = at;
  // The copy doubled every slot: retain once more per referenced task (the
  // original's references are inherited by one of the halves).
  if (right.writer != nullptr) task_retain(right.writer);
  for (Task* r : right.readers) task_retain(r);
  auto hint = segments_.erase(it);
  tree_emplace(hint, left.begin, std::move(left));
  return tree_emplace(hint, right.begin, std::move(right));
}

void DependencyTracker::register_range(Task& task, AccessMode mode, std::uintptr_t s,
                                       std::uintptr_t e, std::vector<Task*>& deps) {
  if (s == e) return;

  if (s >= max_end_) {
    // Fast path: [s, e) lies beyond every recorded segment, so it overlaps
    // nothing — stage a fresh segment in the flat log without touching the
    // tree. Streaming and array-order submissions (ascending addresses)
    // live here entirely. (The exact table cannot contain such a range:
    // every indexed segment ends at or below max_end_.)
    Segment fresh{s, e, nullptr, {}};
    apply(fresh, task, mode, deps);
    log_.push_back(std::move(fresh));
    max_end_ = e;
    return;
  }

  // Level 1: exact-interval probe. A segment keyed by exactly (s, e - s)
  // covers the whole access, and — segments being disjoint — nothing else
  // can overlap [s, e): apply in O(1) with no tree walk. This is the
  // "same region re-submitted every iteration" case (stencil blocks,
  // shared read regions, post-barrier re-waves over retained geometry).
  if (Segment* seg = exact_find(s, e - s)) {
    ++stats_.exact_hits;
    apply(*seg, task, mode, deps);
    return;
  }

  // Level 2: the interval tree (partial overlaps, splits, first touches).
  ++stats_.tree_fallbacks;
  if (!log_.empty()) merge_log();

  // Locate the first segment that may overlap [s, e).
  auto it = segments_.lower_bound(s);
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > s) it = prev;
  }

  std::uintptr_t cursor = s;
  while (cursor < e) {
    if (it == segments_.end() || it->second.begin >= e) {
      // Trailing gap [cursor, e): fresh segment, no dependences.
      Segment fresh{cursor, e, nullptr, {}};
      apply(fresh, task, mode, deps);
      tree_emplace(it, cursor, std::move(fresh));
      if (e > max_end_) max_end_ = e;
      cursor = e;
      break;
    }
    if (it->second.end <= cursor) {
      ++it;
      continue;
    }
    if (it->second.begin > cursor) {
      // Gap [cursor, it->begin): fresh segment.
      Segment fresh{cursor, it->second.begin, nullptr, {}};
      apply(fresh, task, mode, deps);
      tree_emplace(it, cursor, std::move(fresh));
      cursor = it->second.begin;
      continue;  // `it` stays valid across the insert
    }
    // Segment starts at or before the cursor and overlaps it.
    if (it->second.begin < cursor) it = split(it, cursor);
    if (it->second.end > e) split(it, e), it = segments_.find(cursor);
    apply(it->second, task, mode, deps);
    cursor = it->second.end;
    ++it;
  }
}

void DependencyTracker::register_task(Task& task, std::vector<Task*>& deps) {
  for (const DataAccess& access : task.accesses) {
    register_range(task, access.mode, access.begin(), access.end(), deps);
  }
}

void DependencyTracker::merge_log() {
  // Log entries are ascending and beyond every tree key: each insert lands
  // rightmost, so the end hint makes the fold O(1) per entry — and each
  // folded segment becomes exact-indexable from here on. Presize the index
  // for the whole fold: a 20k-segment first fold would otherwise rehash
  // ~2x the entries across ten growth steps.
  exact_reserve(exact_live_ + log_.size());
  for (Segment& seg : log_) {
    const std::uintptr_t begin = seg.begin;
    tree_emplace(segments_.end(), begin, std::move(seg));
  }
  log_.clear();
}

void DependencyTracker::clear() noexcept {
  for (auto& [begin, seg] : segments_) release_segment(seg);
  segments_.clear();
  for (Segment& seg : log_) release_segment(seg);
  log_.clear();
  exact_ = {};
  exact_live_ = 0;
  max_end_ = 0;
}

void DependencyTracker::reset_task_refs() noexcept {
  // Barrier reset: everything is finished, so the slots' references go, but
  // the geometry stays — fold the log first so every retained segment is
  // reachable through the exact index for the next wave's O(1) hits.
  if (!log_.empty()) merge_log();
  for (auto& [begin, seg] : segments_) release_segment(seg);
}

std::size_t DependencyTracker::prune_finished() noexcept {
  ++stats_.prune_scans;
  if (!log_.empty()) merge_log();
  // mo: acquire — pairs with the release Finished store in complete_task:
  // erasing a segment deletes the dependence edge a future task would have
  // taken, so the pruning thread must inherit the finished task's body
  // writes here — the succ_lock seal handshake that normally provides the
  // ordering is bypassed once the segment is gone.
  const auto finished = [](Task* t) {
    // mo: acquire — see above.
    return t->state.load(std::memory_order_acquire) == TaskState::Finished;
  };
  for (auto it = segments_.begin(); it != segments_.end();) {
    Segment& seg = it->second;
    const bool writer_done = seg.writer == nullptr || finished(seg.writer);
    bool readers_done = writer_done;
    if (readers_done) {
      for (Task* r : seg.readers) {
        if (!finished(r)) {
          readers_done = false;
          break;
        }
      }
    }
    if (readers_done) {
      exact_erase(seg);
      release_segment(seg);
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
  return segments_.size();
}

// --- ShardedDependencyTracker ----------------------------------------------

std::uint64_t ShardedDependencyTracker::footprint_mask(const Task& task) const noexcept {
  std::uint64_t mask = 0;
  for (const DataAccess& access : task.accesses) {
    const std::uintptr_t s = access.begin();
    const std::uintptr_t e = access.end();
    if (s == e) continue;
    for (std::uint64_t g = static_cast<std::uint64_t>(s) >> kRegionShift,
                       last = static_cast<std::uint64_t>(e - 1) >> kRegionShift;
         g <= last; ++g) {
      mask |= std::uint64_t{1} << shard_index(static_cast<std::uintptr_t>(
                  g << kRegionShift));
    }
  }
  return mask;
}

void ShardedDependencyTracker::lock_mask(std::uint64_t mask) noexcept {
  // Ascending-index acquisition (two-phase locking); iterate set bits only.
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    shards_[i].mutex.lock();
    mask &= mask - 1;
  }
}

void ShardedDependencyTracker::unlock_mask(std::uint64_t mask) noexcept {
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    shards_[i].mutex.unlock();
    mask &= mask - 1;
  }
}

void ShardedDependencyTracker::maybe_prune_shard(Shard& shard) noexcept {
  // Called with the shard locked. The doubling rule keeps the map within 2x
  // of its live segments, amortizing the prune scan to O(1) per
  // registration — this is what bounds the segment map for streaming
  // workloads that never revisit an address. The minimum matches the
  // barrier retention cap (kRetainMax): a wave that fits the retained-
  // geometry budget must never be prune-churned mid-wave — the prune would
  // erase segments the next iteration will exact-hit and force the tree to
  // rebuild them. Pruning is a streaming-only safety valve, sized at a few
  // MiB of segment nodes per shard before the first scan.
  constexpr std::size_t kPruneMinimum = std::size_t{1} << 15;
  const std::size_t count = shard.tracker.segment_count();
  if (count >= kPruneMinimum && count >= 2 * shard.prune_floor) {
    shard.prune_floor = shard.tracker.prune_finished();
  }
}

void ShardedDependencyTracker::maybe_prune_locked(std::uint64_t mask) noexcept {
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    mask &= mask - 1;
    maybe_prune_shard(shards_[i]);
  }
}

void ShardedDependencyTracker::reset_after_barrier() noexcept {
  // Retained geometry is a reuse accelerator, not a cache the runtime owes
  // anyone: a shard whose map ballooned past the cap (huge one-shot
  // footprint that will never be re-submitted) clears outright instead of
  // carrying dead segments forever. ~32k segments per shard is far beyond
  // any iterative app's steady footprint and far below streaming peaks.
  constexpr std::size_t kRetainMax = std::size_t{1} << 15;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    SpinLockGuard lock(shards_[i].mutex);
    if (shards_[i].tracker.segment_count() > kRetainMax) {
      shards_[i].tracker.clear();
      shards_[i].prune_floor = 0;
    } else {
      shards_[i].tracker.reset_task_refs();
      // The retained geometry is all-finished (writer-less) by definition —
      // to the prune sweep it looks like pure garbage. Raising the floor to
      // the retained size keeps the doubling rule measuring genuine
      // streaming growth on top of it; without this, the first post-barrier
      // prune would wipe the geometry the reset just preserved and the next
      // wave would pay tree fallbacks to rebuild it.
      shards_[i].prune_floor = shards_[i].tracker.segment_count();
    }
  }
}

void ShardedDependencyTracker::clear() noexcept {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    SpinLockGuard lock(shards_[i].mutex);
    shards_[i].tracker.clear();
    shards_[i].prune_floor = 0;
  }
}

std::size_t ShardedDependencyTracker::segment_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    SpinLockGuard lock(shards_[i].mutex);
    n += shards_[i].tracker.segment_count();
  }
  return n;
}

DepIndexStats ShardedDependencyTracker::stats() const {
  DepIndexStats total;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    SpinLockGuard lock(shards_[i].mutex);
    total += shards_[i].tracker.stats();
  }
  return total;
}

}  // namespace atm::rt
