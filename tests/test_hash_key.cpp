// Tests for hash-key computation over sampled task inputs (§III-B/C), on the
// engine's plan path: determinism, sensitivity at p=100%, insensitivity of
// type-aware sampled keys to low-order mantissa noise, sensitivity to MSB
// changes, and clamp-and-count of out-of-layout gathers.
#include <gtest/gtest.h>

#include <vector>

#include <cmath>

#include "atm/hash_key.hpp"
#include "atm/input_sampler.hpp"

namespace atm {
namespace {

rt::Task make_task(const double* data, std::size_t n, double* out, std::size_t m) {
  rt::Task t;
  t.accesses.push_back(rt::in(data, n));
  if (out != nullptr) t.accesses.push_back(rt::out(out, m));
  return t;
}

/// The engine's key path: the sampler's cached plan for (type 0, the task's
/// input layout, p), streamed by compute_key.
KeyResult key_at(InputSampler& sampler, const rt::Task& t, double p, std::uint64_t seed) {
  return compute_key(t, sampler.plan_for(0, InputLayout::from_task(t), p), seed);
}

TEST(HashKey, IdenticalInputsSameKey) {
  std::vector<double> a(64, 1.25), b(64, 1.25);
  double out = 0;
  const auto ta = make_task(a.data(), a.size(), &out, 1);
  const auto tb = make_task(b.data(), b.size(), &out, 1);
  InputSampler sampler(true, 1);
  for (double p : {1.0, 0.5, 0.25, 1.0 / 32768}) {
    EXPECT_EQ(key_at(sampler, ta, p, 9).key, key_at(sampler, tb, p, 9).key) << p;
  }
}

TEST(HashKey, FullPKeySensitiveToAnyByte) {
  std::vector<double> a(64, 1.25);
  auto b = a;
  b[63] = std::nextafter(b[63], 2.0);  // single-ulp flip
  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(b.data(), b.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  EXPECT_NE(key_at(sampler, ta, 1.0, 9).key, key_at(sampler, tb, 1.0, 9).key);
}

TEST(HashKey, TypeAwareSampledKeyIgnoresMantissaTail) {
  // Perturb values by ~1e-12 relative: only low-order mantissa bytes move.
  // A type-aware key at p = 25% (the two most significant bytes of each
  // double) must not see it — the §III-C property Swaptions relies on.
  std::vector<double> a(47);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.05 + 0.001 * static_cast<double>(i);
  auto b = a;
  for (auto& v : b) v *= 1.0 + 1e-12;
  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(b.data(), b.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  EXPECT_EQ(key_at(sampler, ta, 0.25, 9).key, key_at(sampler, tb, 0.25, 9).key);
  // At p = 100% the keys must differ.
  EXPECT_NE(key_at(sampler, ta, 1.0, 9).key, key_at(sampler, tb, 1.0, 9).key);
}

TEST(HashKey, SampledKeySeesMsbChange) {
  std::vector<double> a(64, 1.25);
  auto b = a;
  b[10] = -b[10];  // sign flip lives in the MSB
  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(b.data(), b.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  // p = 1/8 selects exactly the MSB of every double: the flip must show.
  EXPECT_NE(key_at(sampler, ta, 0.125, 9).key, key_at(sampler, tb, 0.125, 9).key);
}

TEST(HashKey, SeedSeparatesKeySpaces) {
  std::vector<double> a(32, 2.5);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  EXPECT_NE(key_at(sampler, t, 1.0, 1).key, key_at(sampler, t, 1.0, 2).key);
}

TEST(HashKey, BytesHashedMatchesSelection) {
  std::vector<double> a(64, 1.0);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(false, 1);
  EXPECT_EQ(key_at(sampler, t, 1.0, 9).bytes_hashed, 512u);
  EXPECT_EQ(key_at(sampler, t, 0.5, 9).bytes_hashed, 256u);
  EXPECT_EQ(key_at(sampler, t, 1.0 / 32768, 9).bytes_hashed, 1u);
}

TEST(HashKey, MultiRegionConcatenation) {
  // Two tasks with the same concatenated bytes split differently must get
  // different keys because the layout fingerprint seeds differ — the
  // engine feeds layout-bound seeds; here we emulate that.
  std::vector<float> x(16, 3.0f);
  rt::Task one;
  one.accesses.push_back(rt::in(x.data(), 16));
  rt::Task two;
  two.accesses.push_back(rt::in(x.data(), 8));
  two.accesses.push_back(rt::in(x.data() + 8, 8));

  InputSampler sampler(false, 1);
  const auto k1 = key_at(sampler, one, 1.0,
                         splitmix64(InputLayout::from_task(one).fingerprint()));
  const auto k2 = key_at(sampler, two, 1.0,
                         splitmix64(InputLayout::from_task(two).fingerprint()));
  EXPECT_NE(k1.key, k2.key);
}

TEST(HashKey, GatherPathDeterministic) {
  std::vector<double> a(128);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i) * 0.5;
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(true, 2);
  const auto k1 = key_at(sampler, t, 0.1, 3);
  const auto k2 = key_at(sampler, t, 0.1, 3);
  EXPECT_EQ(k1.key, k2.key);
  EXPECT_EQ(k1.bytes_hashed, k2.bytes_hashed);
}

// --- Planned gather (the engine hot path) -----------------------------------

TEST(HashKeyPlanned, MatchesFullStreamDigestAtP1) {
  // At p >= 1 the plan is one run per region in declaration order, so the
  // planned digest must equal the whole input regions streamed end to end.
  std::vector<float> x(64, 3.0f), y(32, -1.0f);
  float out = 0.0f;
  rt::Task t;
  t.accesses.push_back(rt::in(x.data(), x.size()));
  t.accesses.push_back(rt::out(&out, 1));
  t.accesses.push_back(rt::in(y.data(), y.size()));
  InputSampler sampler(true, 1);
  const auto via_plan = key_at(sampler, t, 1.0, 9);
  HashStream whole(9);
  whole.update(t.accesses[0].const_bytes());
  whole.update(t.accesses[2].const_bytes());
  EXPECT_EQ(via_plan.key, whole.finalize());
  EXPECT_EQ(via_plan.bytes_hashed, (x.size() + y.size()) * sizeof(float));
}

TEST(HashKeyPlanned, SameSelectionSemanticsAsGather) {
  // The planned key agrees/disagrees exactly where the selected byte set
  // says it should: identical inputs agree; mantissa-tail noise is
  // invisible at p = 25% type-aware; an MSB flip is visible at p = 1/8.
  std::vector<double> a(47);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.05 + 0.001 * static_cast<double>(i);
  auto tail = a;
  for (auto& v : tail) v *= 1.0 + 1e-12;
  auto msb = a;
  msb[11] = -msb[11];

  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(tail.data(), tail.size(), nullptr, 0);
  const auto tc = make_task(msb.data(), msb.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& quarter = sampler.plan_for(0, layout, 0.25);
  const GatherPlan& eighth = sampler.plan_for(0, layout, 0.125);

  EXPECT_EQ(compute_key(ta, quarter, 9).key, compute_key(ta, quarter, 9).key);
  EXPECT_EQ(compute_key(ta, quarter, 9).key, compute_key(tb, quarter, 9).key);
  EXPECT_NE(compute_key(ta, eighth, 9).key, compute_key(tc, eighth, 9).key);
}

TEST(HashKeyPlanned, BytesHashedMatchesPlan) {
  std::vector<double> a(64, 1.0);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(false, 1);
  const auto layout = InputLayout::from_task(t);
  EXPECT_EQ(compute_key(t, sampler.plan_for(0, layout, 0.5), 9).bytes_hashed, 256u);
  EXPECT_EQ(compute_key(t, sampler.plan_for(0, layout, 1.0 / 32768), 9).bytes_hashed,
            1u);
}

TEST(HashKeyPlanned, StagingBoundariesDoNotChangeDigest) {
  // > 4 KiB of selected stride bytes forces multiple staging flushes; the
  // digest must be chunking-invariant (HashStream property), so a big and
  // a small selection of the same first bytes relate consistently across
  // two identical tasks.
  std::vector<double> a(8192);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i) * 0.25;
  auto b = a;
  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(b.data(), b.size(), nullptr, 0);
  InputSampler sampler(true, 2);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 0.125);  // 8192 bytes
  EXPECT_GT(plan.bytes, 4096u);
  EXPECT_EQ(compute_key(ta, plan, 3).key, compute_key(tb, plan, 3).key);
}

// --- out-of-range gathers: clamp-and-count in every build type -------------
// An order or plan built for a different (larger) layout must never read
// out of bounds — not in Release either, where the old Debug-only assert
// was compiled away and the gather silently hashed whatever lay past the
// region. Every out-of-range position is counted in KeyResult::oob
// (surfaced by the engine as the key_gather_oob stat) and never hashed.

TEST(HashKeyOob, OutOfRangeOrderIndexesClampAndCount) {
  std::vector<double> a(4, 1.0);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  std::vector<std::uint32_t> bogus_order(64);
  for (std::size_t i = 0; i < bogus_order.size(); ++i) {
    bogus_order[i] = static_cast<std::uint32_t>(64 + i);  // all out of range
  }
  // p = 0.5 over 32 input bytes selects 16 indexes — all out of range here.
  const GatherPlan plan =
      build_gather_plan(InputLayout::from_task(t), bogus_order, 0.5);
  const KeyResult r = compute_key(t, plan, 9);
  EXPECT_EQ(r.oob, 16u);
  EXPECT_EQ(r.bytes_hashed, 0u);  // past the region: counted, never read
  EXPECT_EQ(r.key, compute_key(t, plan, 9).key);  // deterministic
}

TEST(HashKeyOob, InRangeOrderReportsZeroOob) {
  std::vector<double> a(64, 2.5);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  const InputLayout layout = InputLayout::from_task(t);
  const auto& order = sampler.order_for(0, layout);
  for (double p : {1.0, 0.5, 1.0 / 128}) {
    EXPECT_EQ(compute_key(t, build_gather_plan(layout, order, p), 9).oob, 0u) << p;
  }
}

TEST(HashKeyOob, UndersizedOrderVectorCountsMissingIndexes) {
  std::vector<double> a(64, 2.5);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  std::vector<std::uint32_t> short_order = {0, 1, 2, 3};  // selection needs 256
  const GatherPlan plan = build_gather_plan(InputLayout::from_task(t), short_order, 0.5);
  const KeyResult r = compute_key(t, plan, 9);
  EXPECT_EQ(r.oob, 256u - 4u);
  EXPECT_EQ(r.bytes_hashed, 4u);
}

TEST(HashKeyOob, PlanRunPastRegionTruncatesAndCounts) {
  std::vector<double> a(8, 1.0);  // one 64-byte region
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  GatherPlan plan;
  plan.runs.push_back({0, 32, 64});   // 32 bytes in range, 32 past the end
  plan.runs.push_back({0, 128, 16});  // entirely past the end
  plan.runs.push_back({3, 0, 8});     // region the task does not have
  plan.bytes = 64 + 16 + 8;
  const KeyResult r = compute_key(t, plan, 9);
  EXPECT_EQ(r.oob, 32u + 16u + 8u);
  EXPECT_EQ(r.bytes_hashed, 32u);
  EXPECT_EQ(r.key, compute_key(t, plan, 9).key);  // deterministic
}

TEST(HashKeyOob, WellFormedPlanReportsZeroOob) {
  std::vector<double> a(64, 2.5);
  const auto t = make_task(a.data(), a.size(), nullptr, 0);
  InputSampler sampler(true, 1);
  const InputLayout layout = InputLayout::from_task(t);
  for (double p : {1.0, 0.25, 1.0 / 128}) {
    const KeyResult r = compute_key(t, sampler.plan_for(0, layout, p), 9);
    EXPECT_EQ(r.oob, 0u) << p;
    EXPECT_GT(r.bytes_hashed, 0u) << p;
  }
}

class HashKeyPSweep : public ::testing::TestWithParam<int> {};

TEST_P(HashKeyPSweep, EveryPStepDistinguishesMsbNoise) {
  // For every dynamic-ATM p step, identical inputs agree and MSB-visible
  // changes disagree (collision would need a 64-bit hash coincidence).
  const double p = 1.0 / static_cast<double>(1 << GetParam());
  std::vector<double> a(512, 7.5);
  auto b = a;
  for (auto& v : b) v = -v;  // flip every sign: visible at any p
  const auto ta = make_task(a.data(), a.size(), nullptr, 0);
  const auto tb = make_task(b.data(), b.size(), nullptr, 0);
  InputSampler sampler(true, 4);
  EXPECT_EQ(key_at(sampler, ta, p, 1).key, key_at(sampler, ta, p, 1).key);
  EXPECT_NE(key_at(sampler, ta, p, 1).key, key_at(sampler, tb, p, 1).key);
}

INSTANTIATE_TEST_SUITE_P(AllPSteps, HashKeyPSweep, ::testing::Range(0, 16));

}  // namespace
}  // namespace atm
