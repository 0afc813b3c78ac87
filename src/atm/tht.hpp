// Task History Table (paper §III-A, Figure 1).
//
// 2^N buckets indexed by the low N bits of the hash key; each bucket holds
// up to M {key, p, outputs} entries with FIFO eviction. Each bucket carries
// its own 4-byte reader-writer spinlock (SharedSpinMutex) and is padded to
// its own cacheline, so parallel lookups on different buckets never touch a
// shared line and a lookup's lock traffic stays inside the bucket it reads
// — the sharded-locking fix for the "THT bucket locks are the remaining
// serialization point" item. Reads run in parallel under the shared mode
// (lookups copy outputs out); insert/evict take the exclusive mode. Entries
// record the p used to compute their key (§III-D: Dynamic ATM must not
// match keys across p values) and the creator task id (Figure 9's reuse
// attribution).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "atm/config.hpp"
#include "common/buffer_arena.hpp"
#include "common/hash.hpp"
#include "common/shared_spin_mutex.hpp"
#include "runtime/task.hpp"

namespace atm {

/// Deep copy of a task's output regions ("data outputs have to be fully
/// stored in the THT", §III-A).
struct OutputSnapshot {
  struct Region {
    std::vector<std::uint8_t> data;
    rt::ElemType elem = rt::ElemType::U8;
  };
  std::vector<Region> regions;

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.data.size();
    return n;
  }

  /// Capture the current contents of `task`'s output regions.
  [[nodiscard]] static OutputSnapshot capture(const rt::Task& task);

  /// True when this snapshot's region sizes line up with `task`'s outputs.
  [[nodiscard]] bool matches_shape(const rt::Task& task) const noexcept;

  /// Write the snapshot into `task`'s output regions (copyOuts()).
  void copy_to(rt::Task& task) const noexcept;
};

/// True when two tasks declare byte-identical output region shapes, so one
/// may provide the other's outputs.
[[nodiscard]] bool output_shapes_match(const rt::Task& a, const rt::Task& b) noexcept;

/// A THT entry leaving (or entering) the table through the tiering seam:
/// the full match tuple + attribution + an owned copy of the outputs.
/// Produced on capacity eviction (demotion to the L2 tier), consumed by
/// insert_snapshot() (promotion from L2 / snapshot load).
struct EvictedEntry {
  std::uint32_t type_id = 0;
  HashKey key = 0;
  double p = 1.0;
  rt::TaskId creator = 0;
  OutputSnapshot snapshot;
};

/// Demotion callback: receives every entry evicted to make room (not
/// entries dropped by clear(), which is a reset, not capacity pressure).
/// Called with the bucket lock held — the sink must not call back into the
/// table. Install before concurrent use; the engine wires this to the L2
/// capacity tier (src/store/).
using EvictionSink = std::function<void(EvictedEntry&&)>;

class TaskHistoryTable {
 public:
  /// `log2_buckets` is the paper's N (0 => a single bucket); `bucket_capacity`
  /// is the paper's M. Snapshot storage comes from a lazily grown arena
  /// whose pages fault in on first write; evicted buffers recycle.
  /// `verify_full_inputs` stores the complete inputs of exact (p = 100%)
  /// entries and byte-compares them on hit (the §III-E ablation);
  /// `eviction` selects FIFO (paper) or LRU replacement.
  TaskHistoryTable(unsigned log2_buckets, unsigned bucket_capacity,
                   bool verify_full_inputs = false,
                   EvictionPolicy eviction = EvictionPolicy::Fifo);

  /// Steady-state hit path: find (type, key, p) and copy the stored outputs
  /// straight into `consumer`'s output regions under the bucket's shared
  /// lock. On success fills `creator` and the copy interval [t0,t1] in ns.
  bool lookup_and_copy(std::uint32_t type_id, HashKey key, double p, rt::Task& consumer,
                       rt::TaskId* creator, std::uint64_t* copy_t0,
                       std::uint64_t* copy_t1);

  /// Multi-probe hit path (tolerance-quantized keys): try `keys[0..nkeys)`
  /// in order, copying outputs from the first match. Each probe is an
  /// independent lookup_and_copy — no cross-bucket lock is ever held, and
  /// the copy happens exactly once, under the matching bucket's shared
  /// lock. On success fills `*which` with the index of the matching key.
  bool lookup_multi_and_copy(std::uint32_t type_id, const HashKey* keys,
                             std::size_t nkeys, double p, rt::Task& consumer,
                             rt::TaskId* creator, std::uint64_t* copy_t0,
                             std::uint64_t* copy_t1, std::size_t* which);

  /// Training path: copy the stored snapshot out (the task will execute and
  /// the engine compares the two afterwards).
  bool lookup_snapshot(std::uint32_t type_id, HashKey key, double p, OutputSnapshot* out,
                       rt::TaskId* creator) const;

  /// Pure membership probe (tests, stats).
  [[nodiscard]] bool contains(std::uint32_t type_id, HashKey key, double p) const;

  /// Store `producer`'s outputs under (type, key, p); evicts per the
  /// configured policy when the bucket is full. Duplicate (type, key, p)
  /// inserts are skipped (the oldest entry wins, as with FIFO order).
  void insert(std::uint32_t type_id, HashKey key, double p, const rt::Task& producer);

  /// Store an already-captured snapshot under (type, key, p) — the
  /// promotion path from the L2 tier and the --load-store warm start.
  /// Same dedup/eviction semantics as insert(). Entries inserted this way
  /// carry no stored inputs, so the §III-E full-input check (when enabled)
  /// accepts them unverified.
  void insert_snapshot(std::uint32_t type_id, HashKey key, double p, rt::TaskId creator,
                       const OutputSnapshot& snapshot);

  /// Install (or clear, with nullptr) the demotion sink fed by capacity
  /// evictions. Not synchronized against in-flight inserts: install during
  /// setup, before the table sees concurrent traffic.
  void set_eviction_sink(EvictionSink sink) { eviction_sink_ = std::move(sink); }

  /// Visit an owned copy of every live entry (serialization /
  /// --save-store); the copy is handed over, so consumers keep it without
  /// another payload pass.
  void for_each_entry(const std::function<void(EvictedEntry&&)>& fn) const;

  /// Hits whose full-input verification failed (hash false positives
  /// caught by the §III-E check; paper §III-E observed none in practice).
  [[nodiscard]] std::uint64_t verification_rejects() const noexcept {
    return verification_rejects_.load();
  }

  void clear();

  [[nodiscard]] std::size_t entry_count() const;
  /// Bytes pinned by live entries: snapshots + entry/bucket overheads
  /// (Table III accounting; recyclable arena slack is excluded).
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_.load(); }
  [[nodiscard]] unsigned bucket_count() const noexcept {
    return static_cast<unsigned>(buckets_.size());
  }
  [[nodiscard]] unsigned bucket_capacity() const noexcept { return capacity_; }

 private:
  /// Arena-backed copy of a producer's output regions.
  struct StoredRegion {
    std::uint8_t* data = nullptr;
    std::size_t bytes = 0;
    rt::ElemType elem = rt::ElemType::U8;
  };
  struct Entry {
    HashKey key = 0;
    double p = 1.0;
    std::uint32_t type_id = 0;
    rt::TaskId creator = 0;
    std::vector<StoredRegion> outputs;
    std::vector<StoredRegion> inputs;  ///< only with verify_full_inputs

    [[nodiscard]] std::size_t total_bytes() const noexcept {
      std::size_t n = 0;
      for (const auto& r : outputs) n += r.bytes;
      for (const auto& r : inputs) n += r.bytes;
      return n;
    }
    [[nodiscard]] bool matches_shape(const rt::Task& task) const noexcept;
    [[nodiscard]] bool inputs_equal(const rt::Task& task) const noexcept;
  };
  /// Cacheline-isolated: the lock word and the entry deque of one bucket
  /// never share a line with a neighboring bucket, so reader traffic on hot
  /// buckets cannot false-share with inserts elsewhere.
  struct alignas(64) Bucket {
    mutable SharedSpinMutex mutex;
    std::deque<Entry> entries ATM_GUARDED_BY(mutex);
  };

  /// Sentinel returned by find_and_copy_locked() when no entry served the hit.
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  void release_entry(Entry& entry);
  /// Evict the replacement-policy victim of a full bucket (caller holds the
  /// bucket's exclusive lock), feeding the demotion sink when installed.
  void evict_front_locked(Bucket& bucket) ATM_REQUIRES(bucket.mutex);
  /// Shared tail of insert()/insert_snapshot(): dedup-check, evict, append.
  void insert_entry(Bucket& bucket, Entry&& entry, std::size_t snap_bytes);
  /// Scan `bucket` for (type, key, p); on a serving hit copy the stored
  /// outputs into `consumer` and return the entry index (kNoEntry
  /// otherwise). Read-only on the bucket — legal under the shared mode; the
  /// LRU caller holds the exclusive mode and reorders afterwards.
  std::size_t find_and_copy_locked(Bucket& bucket, std::uint32_t type_id, HashKey key,
                                   double p, rt::Task& consumer, rt::TaskId* creator,
                                   std::uint64_t* copy_t0, std::uint64_t* copy_t1)
      ATM_REQUIRES_SHARED(bucket.mutex);

  [[nodiscard]] Bucket& bucket_for(HashKey key) noexcept {
    return buckets_[key & mask_];
  }
  [[nodiscard]] const Bucket& bucket_for(HashKey key) const noexcept {
    return buckets_[key & mask_];
  }

  static bool entry_matches(const Entry& e, std::uint32_t type_id, HashKey key,
                            double p) noexcept {
    return e.key == key && e.type_id == type_id && e.p == p;
  }

  std::vector<Bucket> buckets_;
  HashKey mask_;
  unsigned capacity_;
  bool verify_full_inputs_;
  EvictionPolicy eviction_;
  BufferArena arena_;
  EvictionSink eviction_sink_;
  std::atomic<std::size_t> memory_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> verification_rejects_{0};
};

}  // namespace atm
