// Multithreaded THT stress: concurrent insert / lookup_and_copy / clear
// across buckets under TSan-friendly assertions. The per-bucket
// shared_mutex path (parallel reads, exclusive writes) had no dedicated
// concurrency test; this also hammers the eviction-sink seam, which runs
// under the bucket's exclusive lock and feeds the L2 tier in production.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "atm/tht.hpp"

namespace atm {
namespace {

rt::Task make_task(float* out, std::size_t n, rt::TaskId id) {
  rt::Task t;
  t.id = id;
  t.accesses.push_back(rt::out(out, n));
  return t;
}

/// Payload convention: every float of key k's output equals k, so a torn or
/// cross-entry read is detectable from any element.
constexpr int kKeys = 96;
constexpr std::size_t kPayloadFloats = 48;

TEST(ThtStress, ConcurrentInsertLookupClear) {
  TaskHistoryTable tht(3, 4);  // 8 buckets x 4 entries: constant eviction churn
  std::vector<std::vector<float>> payloads(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    payloads[k].assign(kPayloadFloats, static_cast<float>(k));
  }

  std::atomic<int> torn_reads{0};
  std::atomic<int> hits{0};
  constexpr int kThreads = 4, kIters = 800;

  // Every thread interleaves inserts and lookups over a shifted key walk;
  // lookups right after an insert hit unless a concurrent clear() or
  // eviction raced in — both are legal, so only data integrity is asserted
  // per hit, plus a global sanity check that the test saw real traffic.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> sink(kPayloadFloats);
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 13 + t * 29) % kKeys;
        // Mixed types and p values exercise the full match tuple.
        auto producer = make_task(payloads[k].data(), kPayloadFloats,
                                  static_cast<rt::TaskId>(k));
        tht.insert(static_cast<std::uint32_t>(k % 3), static_cast<HashKey>(k),
                   k % 2 == 0 ? 1.0 : 0.5, producer);
        auto consumer = make_task(sink.data(), kPayloadFloats, 9999);
        rt::TaskId creator = 0;
        if (tht.lookup_and_copy(static_cast<std::uint32_t>(k % 3),
                                static_cast<HashKey>(k), k % 2 == 0 ? 1.0 : 0.5,
                                consumer, &creator, nullptr, nullptr)) {
          hits.fetch_add(1);
          if (creator != static_cast<rt::TaskId>(k)) torn_reads.fetch_add(1);
          for (float f : sink) {
            if (f != static_cast<float>(k)) {
              torn_reads.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  // A clearer thread periodically wipes the table while traffic is live.
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      tht.clear();
      std::this_thread::yield();
    }
  });

  for (auto& th : threads) th.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(hits.load(), 0);

  // Post-churn invariants: capacity respected, accounting self-consistent.
  EXPECT_LE(tht.entry_count(), 8u * 4u);
  const std::size_t entries = tht.entry_count();
  tht.clear();
  EXPECT_EQ(tht.entry_count(), 0u);
  (void)entries;
}

TEST(ThtStress, ConcurrentChurnWithEvictionSink) {
  TaskHistoryTable tht(2, 2);  // 4 buckets x 2: almost every insert evicts
  std::mutex demoted_mutex;
  std::vector<EvictedEntry> demoted;
  std::atomic<std::uint64_t> demotions{0};
  tht.set_eviction_sink([&](EvictedEntry&& e) {
    demotions.fetch_add(1);
    // The sink runs under the bucket lock: keep it short, validate later.
    std::lock_guard<std::mutex> lock(demoted_mutex);
    if (demoted.size() < 64) demoted.push_back(std::move(e));
  });

  std::vector<std::vector<float>> payloads(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    payloads[k].assign(kPayloadFloats, static_cast<float>(k));
  }

  constexpr int kThreads = 4, kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> sink(kPayloadFloats);
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 11 + t * 17) % kKeys;
        auto producer = make_task(payloads[k].data(), kPayloadFloats,
                                  static_cast<rt::TaskId>(k));
        tht.insert(0, static_cast<HashKey>(k), 1.0, producer);
        auto consumer = make_task(sink.data(), kPayloadFloats, 8888);
        (void)tht.lookup_and_copy(0, static_cast<HashKey>(k), 1.0, consumer, nullptr,
                                  nullptr, nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(demotions.load(), 0u);
  EXPECT_EQ(demotions.load(), tht.evictions());
  // Demoted entries carry intact payloads (captured before arena recycling).
  std::lock_guard<std::mutex> lock(demoted_mutex);
  for (const EvictedEntry& e : demoted) {
    ASSERT_EQ(e.snapshot.regions.size(), 1u);
    ASSERT_EQ(e.snapshot.regions[0].data.size(), kPayloadFloats * sizeof(float));
    float f0 = 0;
    std::memcpy(&f0, e.snapshot.regions[0].data.data(), sizeof(f0));
    EXPECT_FLOAT_EQ(f0, static_cast<float>(e.key));
  }
}

TEST(ThtStress, MultiProbeConcurrentNeighborHits) {
  // Tolerance-mode lookups probe a primary key plus neighbor keys via
  // lookup_multi_and_copy. Under concurrent insert churn: a hit must report
  // which key matched, copy that entry's payload intact (no blend of two
  // probes' entries — the scan stops at the first hit), and a list whose
  // keys are all absent must miss.
  TaskHistoryTable tht(4, 4);  // 16 buckets x 4: room for most of the keys
  std::vector<std::vector<float>> payloads(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    payloads[k].assign(kPayloadFloats, static_cast<float>(k));
  }
  // Keys never handed to insert: probing them must never hit.
  const auto bogus = [](int k) {
    return static_cast<HashKey>(0xb0b0'0000'0000'0000ULL + static_cast<HashKey>(k));
  };

  std::atomic<int> torn_reads{0};
  std::atomic<int> probe_hits{0};
  std::atomic<int> bogus_hits{0};
  constexpr int kThreads = 4, kIters = 600;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> sink(kPayloadFloats);
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 7 + t * 31) % kKeys;
        auto producer = make_task(payloads[k].data(), kPayloadFloats,
                                  static_cast<rt::TaskId>(k));
        tht.insert(0, static_cast<HashKey>(k), 1.0, producer);

        // The "jittered twin" case: the primary key landed one cell over
        // (absent), the real entry is reachable only through probe 1.
        const HashKey probes[3] = {bogus(k), static_cast<HashKey>(k), bogus(k + 1)};
        auto consumer = make_task(sink.data(), kPayloadFloats, 9999);
        rt::TaskId creator = 0;
        std::size_t which = 99;
        if (tht.lookup_multi_and_copy(0, probes, 3, 1.0, consumer, &creator, nullptr,
                                      nullptr, &which)) {
          probe_hits.fetch_add(1);
          if (which != 1) torn_reads.fetch_add(1);
          if (creator != static_cast<rt::TaskId>(k)) torn_reads.fetch_add(1);
          for (float f : sink) {
            if (f != static_cast<float>(k)) {
              torn_reads.fetch_add(1);
              break;
            }
          }
        }

        // Two live keys in one list: the first match wins — the payload must
        // be k's, never the second key's (exactly one copy-out).
        const int k2 = (k + 1) % kKeys;
        auto producer2 = make_task(payloads[k2].data(), kPayloadFloats,
                                   static_cast<rt::TaskId>(k2));
        tht.insert(0, static_cast<HashKey>(k2), 1.0, producer2);
        const HashKey both[2] = {static_cast<HashKey>(k), static_cast<HashKey>(k2)};
        which = 99;
        if (tht.lookup_multi_and_copy(0, both, 2, 1.0, consumer, &creator, nullptr,
                                      nullptr, &which)) {
          if (which >= 2) {
            torn_reads.fetch_add(1);
            continue;
          }
          const int hit_k = which == 0 ? k : k2;
          if (creator != static_cast<rt::TaskId>(hit_k)) torn_reads.fetch_add(1);
          for (float f : sink) {
            if (f != static_cast<float>(hit_k)) {
              torn_reads.fetch_add(1);
              break;
            }
          }
        }

        // All-absent list: must miss even while inserts race.
        const HashKey absent[3] = {bogus(k), bogus(k + 1), bogus(k + 2)};
        if (tht.lookup_multi_and_copy(0, absent, 3, 1.0, consumer, nullptr, nullptr,
                                      nullptr, &which)) {
          bogus_hits.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(bogus_hits.load(), 0);
  EXPECT_GT(probe_hits.load(), 0);
}

TEST(ThtStress, LruModeConcurrentChurn) {
  // LRU takes the exclusive-lock path on every hit; make sure the
  // move-to-back dance survives concurrent readers and writers.
  TaskHistoryTable tht(2, 4, false, EvictionPolicy::Lru);
  std::vector<std::vector<float>> payloads(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    payloads[k].assign(kPayloadFloats, static_cast<float>(k));
  }
  std::atomic<int> torn_reads{0};
  constexpr int kThreads = 4, kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> sink(kPayloadFloats);
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 5 + t * 23) % kKeys;
        auto producer = make_task(payloads[k].data(), kPayloadFloats,
                                  static_cast<rt::TaskId>(k));
        tht.insert(0, static_cast<HashKey>(k), 1.0, producer);
        auto consumer = make_task(sink.data(), kPayloadFloats, 7777);
        if (tht.lookup_and_copy(0, static_cast<HashKey>(k), 1.0, consumer, nullptr,
                                nullptr, nullptr)) {
          for (float f : sink) {
            if (f != static_cast<float>(k)) {
              torn_reads.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn_reads.load(), 0);
}

}  // namespace
}  // namespace atm
