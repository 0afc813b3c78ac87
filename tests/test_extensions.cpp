// Tests for the optional engine features beyond the paper's final design:
// the §III-E "original approach" full-input verification (stored complete
// inputs byte-compared on hit) and the LRU eviction alternative to the
// paper's FIFO.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "apps/app_registry.hpp"
#include "atm_lib.hpp"

namespace atm {
namespace {

rt::Task make_producer(const float* in, std::size_t n, float* out, std::size_t m,
                       rt::TaskId id) {
  rt::Task t;
  t.id = id;
  t.accesses.push_back(rt::in(in, n));
  t.accesses.push_back(rt::out(out, m));
  return t;
}

TEST(Verification, AcceptsTrueTwin) {
  TaskHistoryTable tht(4, 8, /*verify_full_inputs=*/true);
  std::vector<float> in(64, 1.0f), out(8, 2.0f);
  auto producer = make_producer(in.data(), 64, out.data(), 8, 1);
  tht.insert(0, 0xAB, 1.0, producer);

  std::vector<float> in2 = in, sink(8);
  auto consumer = make_producer(in2.data(), 64, sink.data(), 8, 2);
  EXPECT_TRUE(tht.lookup_and_copy(0, 0xAB, 1.0, consumer, nullptr, nullptr, nullptr));
  EXPECT_EQ(sink, out);
  EXPECT_EQ(tht.verification_rejects(), 0u);
}

TEST(Verification, RejectsForgedKeyCollision) {
  // Same key, different input bytes: without verification this would be a
  // silent false positive; with it, the hit is rejected and counted.
  TaskHistoryTable tht(4, 8, /*verify_full_inputs=*/true);
  std::vector<float> in(64, 1.0f), out(8, 2.0f);
  auto producer = make_producer(in.data(), 64, out.data(), 8, 1);
  tht.insert(0, 0xAB, 1.0, producer);

  std::vector<float> forged(64, 9.0f), sink(8, -1.0f);
  auto consumer = make_producer(forged.data(), 64, sink.data(), 8, 2);
  EXPECT_FALSE(tht.lookup_and_copy(0, 0xAB, 1.0, consumer, nullptr, nullptr, nullptr));
  EXPECT_EQ(tht.verification_rejects(), 1u);
  EXPECT_EQ(sink[0], -1.0f);  // untouched
}

TEST(Verification, SampledEntriesSkipInputStorage) {
  // p < 1 entries must not store/compare inputs — approximation means the
  // inputs legitimately differ.
  TaskHistoryTable tht(4, 8, /*verify_full_inputs=*/true);
  std::vector<float> in(64, 1.0f), out(8, 2.0f);
  auto producer = make_producer(in.data(), 64, out.data(), 8, 1);
  tht.insert(0, 0xAB, 0.25, producer);

  std::vector<float> different(64, 5.0f), sink(8);
  auto consumer = make_producer(different.data(), 64, sink.data(), 8, 2);
  EXPECT_TRUE(tht.lookup_and_copy(0, 0xAB, 0.25, consumer, nullptr, nullptr, nullptr));
  EXPECT_EQ(tht.verification_rejects(), 0u);
}

TEST(Verification, MemoryIncludesStoredInputs) {
  std::vector<float> in(1024, 1.0f), out(8, 2.0f);
  auto producer = make_producer(in.data(), in.size(), out.data(), 8, 1);
  TaskHistoryTable plain(2, 8);
  TaskHistoryTable verifying(2, 8, true);
  plain.insert(0, 0x1, 1.0, producer);
  verifying.insert(0, 0x1, 1.0, producer);
  EXPECT_GE(verifying.memory_bytes(), plain.memory_bytes() + in.size() * sizeof(float));
}

TEST(Verification, EndToEndStaticStillExact) {
  AtmConfig config{.mode = AtmMode::Static};
  config.verify_full_inputs = true;
  AtmEngine engine(config);
  rt::Runtime runtime({.num_threads = 2});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  std::vector<double> in{1.0, 2.0};
  double out1 = 0, out2 = 0;
  std::atomic<int> executions{0};
  for (double* o : {&out1, &out2}) {
    runtime.submit(type,
                   [&, o] {
                     executions.fetch_add(1);
                     *o = in[0] + in[1];
                   },
                   {rt::in(in.data(), 2), rt::out(o, 1)});
    runtime.taskwait();
  }
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(out2, 3.0);
  EXPECT_EQ(engine.tht().verification_rejects(), 0u);  // "no false positives"
}

TEST(Lru, HitRefreshesRecency) {
  // Single bucket, M = 2: under LRU a hit on the oldest entry saves it from
  // the next eviction; under FIFO it would die.
  std::vector<float> v1{1.0f}, v2{2.0f}, v3{3.0f};
  rt::Task p1, p2, p3;
  p1.id = 1;
  p1.accesses.push_back(rt::out(v1.data(), 1));
  p2.id = 2;
  p2.accesses.push_back(rt::out(v2.data(), 1));
  p3.id = 3;
  p3.accesses.push_back(rt::out(v3.data(), 1));

  TaskHistoryTable lru(0, 2, false, EvictionPolicy::Lru);
  lru.insert(0, 0x1, 1.0, p1);
  lru.insert(0, 0x2, 1.0, p2);
  // Touch key 1: it becomes most recent.
  std::vector<float> sink(1);
  rt::Task consumer;
  consumer.accesses.push_back(rt::out(sink.data(), 1));
  ASSERT_TRUE(lru.lookup_and_copy(0, 0x1, 1.0, consumer, nullptr, nullptr, nullptr));
  // Inserting key 3 evicts key 2 (the least recently used), not key 1.
  lru.insert(0, 0x3, 1.0, p3);
  EXPECT_TRUE(lru.contains(0, 0x1, 1.0));
  EXPECT_FALSE(lru.contains(0, 0x2, 1.0));
  EXPECT_TRUE(lru.contains(0, 0x3, 1.0));
}

TEST(Lru, FifoEvictsOldestRegardlessOfHits) {
  std::vector<float> v1{1.0f}, v2{2.0f}, v3{3.0f};
  rt::Task p1, p2, p3;
  p1.id = 1;
  p1.accesses.push_back(rt::out(v1.data(), 1));
  p2.id = 2;
  p2.accesses.push_back(rt::out(v2.data(), 1));
  p3.id = 3;
  p3.accesses.push_back(rt::out(v3.data(), 1));

  TaskHistoryTable fifo(0, 2);  // default FIFO
  fifo.insert(0, 0x1, 1.0, p1);
  fifo.insert(0, 0x2, 1.0, p2);
  std::vector<float> sink(1);
  rt::Task consumer;
  consumer.accesses.push_back(rt::out(sink.data(), 1));
  ASSERT_TRUE(fifo.lookup_and_copy(0, 0x1, 1.0, consumer, nullptr, nullptr, nullptr));
  fifo.insert(0, 0x3, 1.0, p3);
  EXPECT_FALSE(fifo.contains(0, 0x1, 1.0));  // oldest dies, hit or not
  EXPECT_TRUE(fifo.contains(0, 0x2, 1.0));
}

TEST(Lru, EndToEndAppRunStaysExact) {
  const auto app = apps::make_app("blackscholes", apps::Preset::Test);
  apps::RunConfig base{.threads = 2, .mode = AtmMode::Off};
  const auto off = app->run(base);
  apps::RunConfig lru = base;
  lru.mode = AtmMode::Static;
  lru.eviction = EvictionPolicy::Lru;
  const auto run = app->run(lru);
  EXPECT_EQ(off.output, run.output);
  EXPECT_GT(run.atm.tht_hits, 0u);
}

TEST(Verification, EndToEndAppRunStaysExact) {
  const auto app = apps::make_app("blackscholes", apps::Preset::Test);
  apps::RunConfig base{.threads = 2, .mode = AtmMode::Off};
  const auto off = app->run(base);
  apps::RunConfig ver = base;
  ver.mode = AtmMode::Static;
  ver.verify_full_inputs = true;
  const auto run = app->run(ver);
  EXPECT_EQ(off.output, run.output);
  // The paper's observation: the check never fires on real workloads.
  EXPECT_GT(run.atm.tht_hits, 0u);
}

}  // namespace
}  // namespace atm
