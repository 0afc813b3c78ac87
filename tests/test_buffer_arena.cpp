// Tests for the lazily grown recycling buffer arena backing THT snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "common/buffer_arena.hpp"

namespace atm {
namespace {

TEST(BufferArena, AcquireNonNullAndAligned) {
  BufferArena arena(1 << 16);
  for (std::size_t n : {1u, 7u, 8u, 63u, 4096u}) {
    std::uint8_t* p = arena.acquire(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    p[0] = 1;         // writable
    p[n - 1] = 2;     // full extent writable
  }
}

TEST(BufferArena, ZeroBytesIsNull) {
  BufferArena arena;
  EXPECT_EQ(arena.acquire(0), nullptr);
}

TEST(BufferArena, ReleaseRecyclesSameSize) {
  BufferArena arena(1 << 16);
  std::uint8_t* a = arena.acquire(1024);
  arena.release(a, 1024);
  std::uint8_t* b = arena.acquire(1024);
  EXPECT_EQ(a, b);  // freelist hit
}

TEST(BufferArena, DifferentSizesDoNotAlias) {
  BufferArena arena(1 << 16);
  std::uint8_t* a = arena.acquire(100);
  std::uint8_t* b = arena.acquire(100);
  EXPECT_NE(a, b);
}

TEST(BufferArena, LargeRequestGetsOwnSlab) {
  BufferArena arena(1 << 12);  // 4 KiB slabs
  std::uint8_t* big = arena.acquire(1 << 16);
  ASSERT_NE(big, nullptr);
  big[(1 << 16) - 1] = 1;
  EXPECT_GE(arena.reserved_bytes(), std::size_t{1} << 16);
}

TEST(BufferArena, ReservesNothingUntilFirstAcquire) {
  BufferArena arena(1 << 16);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
  ASSERT_NE(arena.acquire(64), nullptr);
  EXPECT_GT(arena.reserved_bytes(), 0u);
}

TEST(BufferArena, FreshSlabBuffersAreWritableAndRecycle) {
  // Slab memory is handed out untouched: every buffer carved from one
  // fresh slab must hold its own first and last byte without overlap.
  constexpr std::size_t kSlab = 1 << 16;
  BufferArena arena(kSlab);
  const std::size_t sizes[] = {8, 13, 100, 1000, 4096};
  struct Carved {
    std::uint8_t* p;
    std::size_t n;
  };
  std::vector<Carved> carved;
  std::size_t used = 0;
  for (std::size_t i = 0;; ++i) {
    const std::size_t n = sizes[i % std::size(sizes)];
    const std::size_t aligned = (n + 7) & ~std::size_t{7};
    if (used + aligned > kSlab) break;
    used += aligned;
    std::uint8_t* p = arena.acquire(n);
    ASSERT_NE(p, nullptr);
    p[0] = static_cast<std::uint8_t>(i);
    p[n - 1] = static_cast<std::uint8_t>(~i);
    carved.push_back({p, n});
  }
  EXPECT_EQ(arena.reserved_bytes(), kSlab);  // all from the one slab
  for (std::size_t i = 0; i < carved.size(); ++i) {
    EXPECT_EQ(carved[i].p[0], static_cast<std::uint8_t>(i)) << "buffer " << i;
    EXPECT_EQ(carved[i].p[carved[i].n - 1], static_cast<std::uint8_t>(~i)) << "buffer " << i;
  }

  // A released buffer comes back only for a request of the same size.
  const Carved victim = carved[3];  // 1000 bytes
  arena.release(victim.p, victim.n);
  EXPECT_NE(arena.acquire(victim.n + 8), victim.p);
  EXPECT_EQ(arena.acquire(victim.n), victim.p);
}

TEST(BufferArena, OutstandingAccounting) {
  BufferArena arena(1 << 16);
  std::uint8_t* a = arena.acquire(100);
  EXPECT_EQ(arena.outstanding_bytes(), 104u);  // 8-byte aligned
  arena.release(a, 100);
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
}

TEST(BufferArena, SlabGrowth) {
  BufferArena arena(4096);
  std::vector<std::uint8_t*> ptrs;
  std::set<std::uint8_t*> unique;
  for (int i = 0; i < 100; ++i) {
    std::uint8_t* p = arena.acquire(1000);
    ptrs.push_back(p);
    unique.insert(p);
  }
  EXPECT_EQ(unique.size(), 100u);  // all distinct while outstanding
  EXPECT_GE(arena.reserved_bytes(), 100u * 1000u);
}

TEST(BufferArena, ConcurrentAcquireRelease) {
  BufferArena arena(1 << 20);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t n = 64 + 8 * ((t + i) % 16);
        std::uint8_t* p = arena.acquire(n);
        p[0] = static_cast<std::uint8_t>(t);
        p[n - 1] = static_cast<std::uint8_t>(i);
        arena.release(p, n);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.outstanding_bytes(), 0u);
}

}  // namespace
}  // namespace atm
