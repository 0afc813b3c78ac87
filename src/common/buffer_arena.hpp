// Recycling buffer arena for THT output snapshots.
//
// Why: storing a task's outputs in the THT needs a buffer that lives until
// eviction. The arena bump-allocates from slabs and keeps released buffers
// on exact-size freelists, so steady-state insert/evict churn reuses warm
// buffers instead of calling malloc. Slabs are allocated on demand and
// never pre-touched: the kernel faults in only the pages a snapshot copy
// writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"

namespace atm {

class BufferArena {
 public:
  /// Nothing is allocated until the first acquire(); slabs of `slab_bytes`
  /// (0 selects 4 MiB) are added on demand and left untouched.
  explicit BufferArena(std::size_t slab_bytes = std::size_t{4} << 20);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// A buffer of exactly `bytes` bytes (8-byte aligned). Contents are
  /// unspecified (recycled buffers keep old data). Never returns nullptr
  /// for bytes > 0; requests larger than the slab size get their own slab.
  [[nodiscard]] std::uint8_t* acquire(std::size_t bytes);

  /// Return a buffer previously acquired with the same size.
  void release(std::uint8_t* buffer, std::size_t bytes);

  /// Total bytes of slab address space allocated. Pages no snapshot has
  /// written are not resident, so this bounds the footprint from above.
  [[nodiscard]] std::size_t reserved_bytes() const;

  /// Bytes currently handed out to callers.
  [[nodiscard]] std::size_t outstanding_bytes() const;

 private:
  void add_slab(std::size_t bytes) ATM_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::size_t slab_bytes_;
  std::vector<std::unique_ptr<std::uint8_t[]>> slabs_ ATM_GUARDED_BY(mutex_);
  std::size_t slab_remaining_ ATM_GUARDED_BY(mutex_) = 0;
  std::uint8_t* slab_cursor_ ATM_GUARDED_BY(mutex_) = nullptr;
  std::unordered_map<std::size_t, std::vector<std::uint8_t*>> free_lists_
      ATM_GUARDED_BY(mutex_);
  std::size_t reserved_ ATM_GUARDED_BY(mutex_) = 0;
  std::size_t outstanding_ ATM_GUARDED_BY(mutex_) = 0;
};

}  // namespace atm
