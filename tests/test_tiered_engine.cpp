// Tests for the tiered memo store behind the engine: THT demotion/promotion
// through the eviction-sink seam, the L1 -> L2 fallthrough on steady-state
// lookups, and the --save-store/--load-store warm start — including the two
// acceptance demonstrations: (a) a warm-started gauss-seidel run reaches
// steady state from iteration 1 with zero training executions, and (b) the
// L2 tier lifts the hit rate over L1-only at equal L1 size.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "atm/engine.hpp"
#include "atm/tht.hpp"
#include "per_test_path.hpp"

namespace atm {
namespace {

using apps::Preset;
using apps::RunConfig;
using apps::RunResult;

rt::Task make_task(float* out, std::size_t n, rt::TaskId id) {
  rt::Task t;
  t.id = id;
  t.accesses.push_back(rt::out(out, n));
  return t;
}

// --- THT seam --------------------------------------------------------------

TEST(ThtSeam, EvictionSinkReceivesDemotedEntry) {
  TaskHistoryTable tht(0, 1);  // one bucket, one entry: every insert evicts
  std::vector<EvictedEntry> demoted;
  tht.set_eviction_sink([&demoted](EvictedEntry&& e) { demoted.push_back(std::move(e)); });

  std::vector<float> a{1.0f, 2.0f}, b{3.0f, 4.0f};
  auto first = make_task(a.data(), 2, 10);
  auto second = make_task(b.data(), 2, 20);
  tht.insert(5, 0x1, 0.5, first);
  tht.insert(5, 0x2, 0.5, second);

  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].type_id, 5u);
  EXPECT_EQ(demoted[0].key, 0x1u);
  EXPECT_DOUBLE_EQ(demoted[0].p, 0.5);
  EXPECT_EQ(demoted[0].creator, 10u);
  ASSERT_EQ(demoted[0].snapshot.regions.size(), 1u);
  const auto& bytes = demoted[0].snapshot.regions[0].data;
  ASSERT_EQ(bytes.size(), 2 * sizeof(float));
  float f0 = 0;
  std::memcpy(&f0, bytes.data(), sizeof(f0));
  EXPECT_FLOAT_EQ(f0, 1.0f);
}

TEST(ThtSeam, ClearDoesNotDemote) {
  TaskHistoryTable tht(0, 4);
  int demotions = 0;
  tht.set_eviction_sink([&demotions](EvictedEntry&&) { ++demotions; });
  std::vector<float> v{1.0f};
  auto task = make_task(v.data(), 1, 1);
  tht.insert(0, 0x1, 1.0, task);
  tht.clear();
  EXPECT_EQ(demotions, 0);
}

TEST(ThtSeam, InsertSnapshotRoundtripsThroughLookup) {
  TaskHistoryTable tht(2, 4);
  OutputSnapshot snap;
  OutputSnapshot::Region region;
  region.elem = rt::ElemType::F32;
  const std::vector<float> payload{7.0f, 8.0f, 9.0f};
  region.data.assign(reinterpret_cast<const std::uint8_t*>(payload.data()),
                     reinterpret_cast<const std::uint8_t*>(payload.data() + 3));
  snap.regions.push_back(std::move(region));
  tht.insert_snapshot(2, 0xF00, 0.25, 77, snap);

  std::vector<float> sink(3, 0.0f);
  auto consumer = make_task(sink.data(), 3, 999);
  rt::TaskId creator = 0;
  ASSERT_TRUE(tht.lookup_and_copy(2, 0xF00, 0.25, consumer, &creator, nullptr, nullptr));
  EXPECT_EQ(creator, 77u);
  EXPECT_EQ(sink, payload);
}

TEST(ThtSeam, ForEachEntryExportsLiveContents) {
  TaskHistoryTable tht(2, 4);
  std::vector<float> a{1.0f}, b{2.0f};
  auto t1 = make_task(a.data(), 1, 1);
  auto t2 = make_task(b.data(), 1, 2);
  tht.insert(0, 0x1, 1.0, t1);
  tht.insert(0, 0x2, 0.5, t2);
  std::size_t seen = 0;
  tht.for_each_entry([&seen](const EvictedEntry& e) {
    ++seen;
    EXPECT_EQ(e.snapshot.regions.size(), 1u);
    EXPECT_EQ(e.snapshot.regions[0].data.size(), sizeof(float));
  });
  EXPECT_EQ(seen, 2u);
}

// --- engine tiering --------------------------------------------------------

/// Deterministic scan workload: K distinct input patterns cycled for R
/// rounds, with K chosen above the L1 capacity. FIFO L1 alone thrashes (a
/// key is always evicted before its next use — the classic scan pattern);
/// the L2 tier catches the evictions and serves every revisit.
constexpr std::size_t kPatterns = 32;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kInputWords = 64;   // 512-byte inputs
constexpr std::size_t kOutputWords = 16;  // 128-byte outputs

struct SyntheticResult {
  AtmStatsSnapshot stats;
  std::vector<std::uint64_t> outputs;  // kRounds * kPatterns * kOutputWords
  bool outputs_correct = true;
};

SyntheticResult run_scan_workload(AtmEngine* engine, bool compressible = false) {
  rt::Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(engine);
  const auto* type = runtime.register_type({.name = "scan", .memoizable = true,
                                            .atm = {}});

  std::vector<std::vector<std::uint64_t>> patterns(kPatterns);
  for (std::size_t k = 0; k < kPatterns; ++k) {
    patterns[k].resize(kInputWords);
    for (std::size_t i = 0; i < kInputWords; ++i) {
      // Compressible payloads repeat one word per pattern; incompressible
      // ones mix the indices through splitmix64.
      patterns[k][i] = compressible ? k + 1 : splitmix64(k * 131 + i);
    }
  }

  SyntheticResult result;
  result.outputs.assign(kRounds * kPatterns * kOutputWords, 0);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t k = 0; k < kPatterns; ++k) {
      const std::uint64_t* in = patterns[k].data();
      std::uint64_t* out = result.outputs.data() + (r * kPatterns + k) * kOutputWords;
      runtime.submit(type,
                     [in, out] {
                       for (std::size_t i = 0; i < kOutputWords; ++i) {
                         out[i] = in[i] * 2 + 1;
                       }
                     },
                     {rt::in(in, kInputWords), rt::out(out, kOutputWords)});
      // One task at a time: lookups and inserts then happen in submission
      // order. With several tasks in flight, the worker and the helping
      // master run them in a timing-dependent order, and a reordered round
      // can revisit a key the FIFO L1 still holds.
      runtime.taskwait();
    }
  }

  for (std::size_t r = 0; r < kRounds && result.outputs_correct; ++r) {
    for (std::size_t k = 0; k < kPatterns; ++k) {
      const std::uint64_t* out = result.outputs.data() + (r * kPatterns + k) * kOutputWords;
      for (std::size_t i = 0; i < kOutputWords; ++i) {
        if (out[i] != patterns[k][i] * 2 + 1) {
          result.outputs_correct = false;
          break;
        }
      }
    }
  }
  result.stats = engine->stats();
  return result;
}

AtmConfig scan_config(bool l2, bool compress = false) {
  AtmConfig config;
  config.mode = AtmMode::Static;  // steady from task 1: pure tiering behavior
  config.log2_buckets = 0;        // one bucket...
  config.bucket_capacity = 8;     // ...of 8 entries against 32 live keys
  config.use_ikt = false;         // isolate the THT/L2 path
  config.l2_enabled = l2;
  config.l2_budget_bytes = std::size_t{4} << 20;
  config.l2_compress = compress;
  return config;
}

class TieredEngineTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs gtest cases as separate parallel
  // processes in the same directory, so a shared fixture path races.
  void SetUp() override { store_path_ = per_test_name("test_tiered_engine") + ".atmstore"; }
  void TearDown() override { std::remove(store_path_.c_str()); }
  std::string store_path_;
};

// Acceptance (b): with the L2 tier, the same tiny L1 yields a strictly
// higher hit rate — demoted entries come back as promotions, not misses.
TEST_F(TieredEngineTest, L2TierLiftsHitRateAtEqualL1Size) {
  AtmEngine l1_only(scan_config(false));
  const SyntheticResult base = run_scan_workload(&l1_only);
  AtmEngine tiered(scan_config(true));
  const SyntheticResult l2 = run_scan_workload(&tiered);

  // Identical lookup streams at equal L1 size...
  EXPECT_EQ(base.stats.keys_computed, l2.stats.keys_computed);
  // ...but the scan pattern starves the FIFO L1 completely...
  EXPECT_EQ(base.stats.tht_hits + base.stats.l2_hits, 0u);
  // ...while the L2 tier catches the demotions and serves every revisit:
  // (kRounds - 1) * kPatterns lookups come back as promotions.
  EXPECT_GT(l2.stats.l2_demotions, 0u);
  EXPECT_EQ(l2.stats.l2_hits, (kRounds - 1) * kPatterns);
  EXPECT_EQ(l2.stats.l2_hits, l2.stats.l2_promotions);
  EXPECT_GT(l2.stats.tht_hits + l2.stats.l2_hits,
            base.stats.tht_hits + base.stats.l2_hits);

  // Promoted outputs are byte-correct (Static mode: exact reuse only).
  EXPECT_TRUE(base.outputs_correct);
  EXPECT_TRUE(l2.outputs_correct);
}

TEST_F(TieredEngineTest, CompressedL2StillServesCorrectHits) {
  AtmEngine engine(scan_config(true, /*compress=*/true));
  const SyntheticResult run = run_scan_workload(&engine, /*compressible=*/true);
  EXPECT_EQ(run.stats.l2_hits, (kRounds - 1) * kPatterns);
  EXPECT_TRUE(run.outputs_correct);
  EXPECT_GT(engine.l2()->stats().compressed_regions, 0u);
  // Compressible payloads resident in L2 occupy less than their raw size.
  EXPECT_LT(engine.l2()->payload_bytes(),
            engine.l2()->entry_count() * kOutputWords * sizeof(std::uint64_t));
}

// Acceptance (a): save the trained store, reload it, and the warm run does
// zero training — steady state (and hits) from iteration 1. Bench preset:
// the Test stencil is too small to converge, so it has no reuse to warm.
TEST_F(TieredEngineTest, WarmStartSkipsTrainingEntirely) {
  const auto app = apps::make_app("gauss-seidel", Preset::Bench);
  ASSERT_NE(app, nullptr);

  RunConfig cold{.threads = 2, .mode = AtmMode::Dynamic};
  cold.l2_enabled = true;
  cold.save_store_path = store_path_;
  const RunResult cold_run = app->run(cold);
  ASSERT_EQ(cold_run.final_phase, TrainingPhase::Steady);
  EXPECT_GT(cold_run.atm.training_hits, 0u);  // the cold run did train
  EXPECT_GT(cold_run.p_history.size(), 0u);

  RunConfig warm = cold;
  warm.save_store_path.clear();
  warm.load_store_path = store_path_;
  const RunResult warm_run = app->run(warm);

  // Zero training executions: the controller starts steady at the trained
  // p, so no training checks run and p never moves.
  EXPECT_EQ(warm_run.final_phase, TrainingPhase::Steady);
  EXPECT_EQ(warm_run.atm.training_hits, 0u);
  EXPECT_EQ(warm_run.atm.training_failures, 0u);
  EXPECT_LE(warm_run.p_history.size(), 1u);
  EXPECT_DOUBLE_EQ(warm_run.final_p, cold_run.final_p);

  // Steady-state hits from iteration 1: the warm run serves the trained
  // table immediately, so its reuse strictly improves on the cold run
  // (which executed every task of the training prefix).
  EXPECT_GT(warm_run.atm.tht_hits, 0u);
  EXPECT_GT(warm_run.reuse_fraction(), cold_run.reuse_fraction());
}

TEST_F(TieredEngineTest, SaveStoreImageContainsBothTiers) {
  AtmEngine engine(scan_config(true));
  (void)run_scan_workload(&engine);
  ASSERT_TRUE(engine.save_store(store_path_));

  std::string error;
  const auto image = store::load(store_path_, &error);
  ASSERT_TRUE(image.has_value()) << error;
  EXPECT_EQ(image->l1.size(), 8u);  // the L1 capacity
  EXPECT_EQ(image->l1.size() + image->l2.size(), kPatterns);  // nothing lost
}

TEST_F(TieredEngineTest, LoadStoreOverflowDemotesIntoL2) {
  // Save from a roomy L1, load into a tiny L1 + L2: the image's hot tier
  // cannot fit, and the loader must demote the overflow instead of losing it.
  {
    AtmConfig roomy;
    roomy.mode = AtmMode::Static;
    roomy.use_ikt = false;
    AtmEngine engine(roomy);
    (void)run_scan_workload(&engine);
    ASSERT_EQ(engine.tht().entry_count(), kPatterns);
    ASSERT_TRUE(engine.save_store(store_path_));
  }

  AtmEngine tiny(scan_config(true));
  std::string error;
  ASSERT_TRUE(tiny.load_store(store_path_, &error)) << error;
  EXPECT_EQ(tiny.tht().entry_count(), 8u);
  EXPECT_EQ(tiny.l2()->entry_count(), kPatterns - 8u);
}

TEST_F(TieredEngineTest, LoadMissingStoreFailsGracefully) {
  AtmConfig config;
  config.mode = AtmMode::Static;
  AtmEngine engine(config);
  std::string error;
  EXPECT_FALSE(engine.load_store("does_not_exist.atmstore", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(engine.tht().entry_count(), 0u);
}

}  // namespace
}  // namespace atm
