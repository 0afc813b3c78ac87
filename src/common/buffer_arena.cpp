#include "common/buffer_arena.hpp"

namespace atm {

namespace {
constexpr std::size_t align8(std::size_t n) noexcept { return (n + 7) & ~std::size_t{7}; }
}  // namespace

BufferArena::BufferArena(std::size_t slab_bytes)
    : slab_bytes_(slab_bytes != 0 ? slab_bytes : std::size_t{4} << 20) {}

void BufferArena::add_slab(std::size_t bytes) {
  // Uninitialized: a page is faulted in when a snapshot first writes it.
  auto slab = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
  slab_cursor_ = slab.get();
  slab_remaining_ = bytes;
  reserved_ += bytes;
  slabs_.push_back(std::move(slab));
}

std::uint8_t* BufferArena::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t want = align8(bytes);
  MutexLock lock(mutex_);
  auto it = free_lists_.find(want);
  if (it != free_lists_.end() && !it->second.empty()) {
    std::uint8_t* buf = it->second.back();
    it->second.pop_back();
    outstanding_ += want;
    return buf;
  }
  if (slab_remaining_ < want) {
    add_slab(want > slab_bytes_ ? want : slab_bytes_);
  }
  std::uint8_t* buf = slab_cursor_;
  slab_cursor_ += want;
  slab_remaining_ -= want;
  outstanding_ += want;
  return buf;
}

void BufferArena::release(std::uint8_t* buffer, std::size_t bytes) {
  if (buffer == nullptr || bytes == 0) return;
  const std::size_t want = align8(bytes);
  MutexLock lock(mutex_);
  free_lists_[want].push_back(buffer);
  outstanding_ -= want;
}

std::size_t BufferArena::reserved_bytes() const {
  MutexLock lock(mutex_);
  return reserved_;
}

std::size_t BufferArena::outstanding_bytes() const {
  MutexLock lock(mutex_);
  return outstanding_;
}

}  // namespace atm
