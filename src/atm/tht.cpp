#include "atm/tht.hpp"

#include <cstring>

#include "common/timing.hpp"

namespace atm {

OutputSnapshot OutputSnapshot::capture(const rt::Task& task) {
  OutputSnapshot snap;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    Region r;
    r.elem = a.elem;
    // Range-construct: a single copy pass (resize would zero-fill first).
    const auto* p = static_cast<const std::uint8_t*>(a.ptr);
    r.data.assign(p, p + a.bytes);
    snap.regions.push_back(std::move(r));
  }
  return snap;
}

bool OutputSnapshot::matches_shape(const rt::Task& task) const noexcept {
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    if (i >= regions.size() || regions[i].data.size() != a.bytes) return false;
    ++i;
  }
  return i == regions.size();
}

void OutputSnapshot::copy_to(rt::Task& task) const noexcept {
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    std::memcpy(a.ptr, regions[i].data.data(), a.bytes);
    ++i;
  }
}

bool output_shapes_match(const rt::Task& a, const rt::Task& b) noexcept {
  std::size_t ia = 0, ib = 0;
  const auto next_out = [](const rt::Task& t, std::size_t& i) -> const rt::DataAccess* {
    while (i < t.accesses.size()) {
      const auto& acc = t.accesses[i++];
      if (acc.is_output()) return &acc;
    }
    return nullptr;
  };
  for (;;) {
    const auto* oa = next_out(a, ia);
    const auto* ob = next_out(b, ib);
    if (oa == nullptr || ob == nullptr) return oa == ob;
    if (oa->bytes != ob->bytes) return false;
  }
}

bool TaskHistoryTable::Entry::matches_shape(const rt::Task& task) const noexcept {
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    if (i >= outputs.size() || outputs[i].bytes != a.bytes) return false;
    ++i;
  }
  return i == outputs.size();
}

bool TaskHistoryTable::Entry::inputs_equal(const rt::Task& task) const noexcept {
  if (inputs.empty()) return true;  // nothing stored: verification disabled
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_input()) continue;
    if (i >= inputs.size() || inputs[i].bytes != a.bytes) return false;
    if (std::memcmp(inputs[i].data, a.ptr, a.bytes) != 0) return false;
    ++i;
  }
  return i == inputs.size();
}

TaskHistoryTable::TaskHistoryTable(unsigned log2_buckets, unsigned bucket_capacity,
                                   bool verify_full_inputs, EvictionPolicy eviction)
    : buckets_(std::size_t{1} << log2_buckets),
      mask_((HashKey{1} << log2_buckets) - 1),
      capacity_(bucket_capacity != 0 ? bucket_capacity : 1),
      verify_full_inputs_(verify_full_inputs),
      eviction_(eviction) {
  memory_.store(buckets_.size() * sizeof(Bucket));
}

std::size_t TaskHistoryTable::find_and_copy_locked(Bucket& b, std::uint32_t type_id,
                                                   HashKey key, double p,
                                                   rt::Task& consumer,
                                                   rt::TaskId* creator,
                                                   std::uint64_t* copy_t0,
                                                   std::uint64_t* copy_t1) {
  for (std::size_t idx = 0; idx < b.entries.size(); ++idx) {
    const Entry& e = b.entries[idx];
    if (!entry_matches(e, type_id, key, p)) continue;
    if (!e.matches_shape(consumer)) return kNoEntry;
    if (verify_full_inputs_ && !e.inputs_equal(consumer)) {
      // Hash false positive caught by the SIII-E full-input check.
      // mo: relaxed — standalone statistic; readers need no ordering.
      verification_rejects_.fetch_add(1, std::memory_order_relaxed);
      return kNoEntry;
    }
    const std::uint64_t t0 = now_ns();
    std::size_t i = 0;
    for (const auto& a : consumer.accesses) {
      if (!a.is_output()) continue;
      std::memcpy(a.ptr, e.outputs[i].data, a.bytes);
      ++i;
    }
    const std::uint64_t t1 = now_ns();
    if (creator != nullptr) *creator = e.creator;
    if (copy_t0 != nullptr) *copy_t0 = t0;
    if (copy_t1 != nullptr) *copy_t1 = t1;
    return idx;
  }
  return kNoEntry;
}

bool TaskHistoryTable::lookup_and_copy(std::uint32_t type_id, HashKey key, double p,
                                       rt::Task& consumer, rt::TaskId* creator,
                                       std::uint64_t* copy_t0, std::uint64_t* copy_t1) {
  Bucket& b = bucket_for(key);
  if (eviction_ == EvictionPolicy::Lru) {
    // LRU: the recency update mutates the bucket, forcing an exclusive lock
    // — one reason the paper's FIFO + parallel-read design is the right
    // default.
    SharedSpinWriteLock lock(b.mutex);
    const std::size_t idx =
        find_and_copy_locked(b, type_id, key, p, consumer, creator, copy_t0, copy_t1);
    if (idx == kNoEntry) return false;
    if (idx + 1 != b.entries.size()) {
      // Move-to-back: the eviction end (front) holds the least recent.
      Entry moved = std::move(b.entries[idx]);
      b.entries.erase(b.entries.begin() + static_cast<std::ptrdiff_t>(idx));
      b.entries.push_back(std::move(moved));
    }
    return true;
  }
  // FIFO (paper): shared lock, parallel reads.
  SharedSpinReadLock lock(b.mutex);
  return find_and_copy_locked(b, type_id, key, p, consumer, creator, copy_t0,
                              copy_t1) != kNoEntry;
}

bool TaskHistoryTable::lookup_multi_and_copy(std::uint32_t type_id, const HashKey* keys,
                                             std::size_t nkeys, double p,
                                             rt::Task& consumer, rt::TaskId* creator,
                                             std::uint64_t* copy_t0,
                                             std::uint64_t* copy_t1,
                                             std::size_t* which) {
  for (std::size_t i = 0; i < nkeys; ++i) {
    if (lookup_and_copy(type_id, keys[i], p, consumer, creator, copy_t0, copy_t1)) {
      if (which != nullptr) *which = i;
      return true;
    }
  }
  return false;
}

bool TaskHistoryTable::lookup_snapshot(std::uint32_t type_id, HashKey key, double p,
                                       OutputSnapshot* out, rt::TaskId* creator) const {
  const Bucket& b = bucket_for(key);
  SharedSpinReadLock lock(b.mutex);
  for (const Entry& e : b.entries) {
    if (!entry_matches(e, type_id, key, p)) continue;
    if (out != nullptr) {
      out->regions.clear();
      for (const auto& stored : e.outputs) {
        OutputSnapshot::Region r;
        r.elem = stored.elem;
        r.data.assign(stored.data, stored.data + stored.bytes);
        out->regions.push_back(std::move(r));
      }
    }
    if (creator != nullptr) *creator = e.creator;
    return true;
  }
  return false;
}

bool TaskHistoryTable::contains(std::uint32_t type_id, HashKey key, double p) const {
  const Bucket& b = bucket_for(key);
  SharedSpinReadLock lock(b.mutex);
  for (const Entry& e : b.entries) {
    if (entry_matches(e, type_id, key, p)) return true;
  }
  return false;
}

void TaskHistoryTable::release_entry(Entry& entry) {
  for (auto& r : entry.outputs) arena_.release(r.data, r.bytes);
  for (auto& r : entry.inputs) arena_.release(r.data, r.bytes);
  entry.outputs.clear();
  entry.inputs.clear();
}

void TaskHistoryTable::evict_front_locked(Bucket& b) {
  Entry& victim = b.entries.front();
  memory_.fetch_sub(victim.total_bytes() + sizeof(Entry));
  if (eviction_sink_) {
    // Demotion: hand the L2 tier an owned copy of the outputs before the
    // arena buffers are recycled. Stored inputs (§III-E ablation) are not
    // demoted — the capacity tier serves approximate steady-state traffic.
    EvictedEntry evicted;
    evicted.type_id = victim.type_id;
    evicted.key = victim.key;
    evicted.p = victim.p;
    evicted.creator = victim.creator;
    evicted.snapshot.regions.reserve(victim.outputs.size());
    for (const auto& r : victim.outputs) {
      OutputSnapshot::Region region;
      region.elem = r.elem;
      region.data.assign(r.data, r.data + r.bytes);
      evicted.snapshot.regions.push_back(std::move(region));
    }
    eviction_sink_(std::move(evicted));
  }
  release_entry(victim);
  b.entries.pop_front();
  // mo: relaxed — standalone statistic; readers need no ordering.
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void TaskHistoryTable::insert_entry(Bucket& b, Entry&& e, std::size_t snap_bytes) {
  {
    SharedSpinWriteLock lock(b.mutex);
    bool duplicate = false;
    for (const Entry& existing : b.entries) {
      if (entry_matches(existing, e.type_id, e.key, e.p)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      if (b.entries.size() >= capacity_) evict_front_locked(b);
      b.entries.push_back(std::move(e));
      memory_.fetch_add(snap_bytes + sizeof(Entry));
      return;
    }
  }
  release_entry(e);  // raced duplicate: recycle our buffers outside the lock
}

void TaskHistoryTable::insert(std::uint32_t type_id, HashKey key, double p,
                              const rt::Task& producer) {
  // Deterministic tasks with the same (key, p) produce the same outputs, so
  // a duplicate insert adds nothing: keep the oldest entry (paper FIFO) and
  // skip the snapshot copy. Cheap shared-lock probe first.
  if (contains(type_id, key, p)) return;

  // Snapshot into arena buffers outside the bucket lock: the copy is the
  // expensive part and must not block readers of the bucket.
  Entry e;
  e.key = key;
  e.p = p;
  e.type_id = type_id;
  e.creator = producer.id;
  std::size_t snap_bytes = 0;
  for (const auto& a : producer.accesses) {
    if (!a.is_output()) continue;
    StoredRegion r;
    r.bytes = a.bytes;
    r.elem = a.elem;
    r.data = arena_.acquire(a.bytes);
    std::memcpy(r.data, a.ptr, a.bytes);
    snap_bytes += a.bytes;
    e.outputs.push_back(r);
  }
  if (verify_full_inputs_ && p >= 1.0) {
    // Exact entries only: for sampled keys, differing inputs are the point.
    for (const auto& a : producer.accesses) {
      if (!a.is_input()) continue;
      StoredRegion r;
      r.bytes = a.bytes;
      r.elem = a.elem;
      r.data = arena_.acquire(a.bytes);
      std::memcpy(r.data, a.ptr, a.bytes);
      snap_bytes += a.bytes;
      e.inputs.push_back(r);
    }
  }

  insert_entry(bucket_for(key), std::move(e), snap_bytes);
}

void TaskHistoryTable::insert_snapshot(std::uint32_t type_id, HashKey key, double p,
                                       rt::TaskId creator,
                                       const OutputSnapshot& snapshot) {
  if (contains(type_id, key, p)) return;

  Entry e;
  e.key = key;
  e.p = p;
  e.type_id = type_id;
  e.creator = creator;
  std::size_t snap_bytes = 0;
  for (const auto& region : snapshot.regions) {
    StoredRegion r;
    r.bytes = region.data.size();
    r.elem = region.elem;
    r.data = arena_.acquire(r.bytes);
    std::memcpy(r.data, region.data.data(), r.bytes);
    snap_bytes += r.bytes;
    e.outputs.push_back(r);
  }
  insert_entry(bucket_for(key), std::move(e), snap_bytes);
}

void TaskHistoryTable::for_each_entry(
    const std::function<void(EvictedEntry&&)>& fn) const {
  for (const Bucket& b : buckets_) {
    SharedSpinReadLock lock(b.mutex);
    for (const Entry& e : b.entries) {
      EvictedEntry out;
      out.type_id = e.type_id;
      out.key = e.key;
      out.p = e.p;
      out.creator = e.creator;
      out.snapshot.regions.reserve(e.outputs.size());
      for (const auto& r : e.outputs) {
        OutputSnapshot::Region region;
        region.elem = r.elem;
        region.data.assign(r.data, r.data + r.bytes);
        out.snapshot.regions.push_back(std::move(region));
      }
      fn(std::move(out));
    }
  }
}

void TaskHistoryTable::clear() {
  for (Bucket& b : buckets_) {
    SharedSpinWriteLock lock(b.mutex);
    for (Entry& e : b.entries) release_entry(e);
    b.entries.clear();
  }
  memory_.store(buckets_.size() * sizeof(Bucket));
}

std::size_t TaskHistoryTable::entry_count() const {
  std::size_t n = 0;
  for (const Bucket& b : buckets_) {
    SharedSpinReadLock lock(b.mutex);
    n += b.entries.size();
  }
  return n;
}

std::size_t TaskHistoryTable::memory_bytes() const { return memory_.load(); }

}  // namespace atm
