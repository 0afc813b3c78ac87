// Tests for the engine's per-type key plans and per-type slots:
//
//  * pinned keys — exact and tolerance keys of a fixed six-region F32 task
//    at p = 1 and p = 1/128, as the engine computes them; a change to the
//    sampler, the plan builder, the key seed or the digest shows here
//    before it silently orphans a saved THT image;
//  * the closed-form full-input plan equals the plan cut from the shuffled
//    order at p = 1, over random layouts with zero-byte regions and partial
//    trailing elements, and never builds an order;
//  * type ids past profile_max_types (including a cap of 0) and ids far
//    apart in the slot table each get their own controller and memoize;
//  * threads making first use of a type, layout and p < 1 at once agree
//    with a single-threaded engine on every key (run under TSan/ASan via
//    the sanitize label).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atm_lib.hpp"
#include "common/rng.hpp"

namespace atm {
namespace {

// --- pinned keys ---------------------------------------------------------------

/// Six 2000-byte F32 input regions (the bs-reuse layout) and one output.
struct SixRegionTask {
  std::vector<std::vector<float>> in;
  std::vector<float> out;
  rt::Task task;

  explicit SixRegionTask(const rt::TaskType* type, std::size_t salt = 0)
      : in(6, std::vector<float>(500)), out(500, 0.0f) {
    for (std::size_t r = 0; r < in.size(); ++r) {
      for (std::size_t i = 0; i < in[r].size(); ++i) {
        in[r][i] = 1.0f + 0.001f * static_cast<float>((r * 500 + i + salt) % 997);
      }
    }
    task.type = type;
    for (auto& region : in) task.accesses.push_back(rt::in(region.data(), region.size()));
    task.accesses.push_back(rt::out(out.data(), out.size()));
  }
};

HashKey engine_key(const AtmConfig& config, const rt::TaskType& type, std::size_t salt = 0) {
  AtmEngine engine(config);
  SixRegionTask t(&type, salt);
  (void)engine.on_task_ready(t.task, 0);
  EXPECT_TRUE(t.task.atm_key_valid);
  return t.task.atm_key;
}

TEST(KeyPlanGolden, EngineKeysMatchPinnedValues) {
  const rt::TaskType type(0, {.name = "golden", .memoizable = true, .atm = {}});
  const AtmConfig exact{.mode = AtmMode::FixedP};
  const AtmConfig tolerant{.mode = AtmMode::FixedP, .tolerance_rel = 1e-3,
                           .tolerance_probes = 2};
  auto at = [](AtmConfig c, double p) {
    c.fixed_p = p;
    return c;
  };
  EXPECT_EQ(engine_key(at(exact, 1.0), type), 0x066d6e7ee6191a2aULL);
  EXPECT_EQ(engine_key(at(exact, 1.0 / 128), type), 0xaac45f9811d0bed7ULL);
  EXPECT_EQ(engine_key(at(tolerant, 1.0), type), 0x47dbc6d19ceb4fc9ULL);
  EXPECT_EQ(engine_key(at(tolerant, 1.0 / 128), type), 0x03fdcb8f9fcdec9dULL);
  // Static ATM is FixedP at p = 1.
  EXPECT_EQ(engine_key({.mode = AtmMode::Static}, type), 0x066d6e7ee6191a2aULL);
  EXPECT_EQ(store::kFormatVersion, 4u);
}

// --- closed-form full-input plan -------------------------------------------

void expect_same_plan(const GatherPlan& a, const GatherPlan& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].region, b.runs[i].region) << i;
    EXPECT_EQ(a.runs[i].offset, b.runs[i].offset) << i;
    EXPECT_EQ(a.runs[i].length, b.runs[i].length) << i;
  }
}

TEST(KeyPlanFullInput, ClosedFormEqualsPlanCutFromOrder) {
  constexpr rt::ElemType kElems[] = {rt::ElemType::U8, rt::ElemType::I32,
                                     rt::ElemType::F32, rt::ElemType::F64};
  Rng rng(0x9a11);
  for (int round = 0; round < 64; ++round) {
    InputLayout layout;
    const std::size_t regions = 1 + rng.next_below(7);
    for (std::size_t r = 0; r < regions; ++r) {
      // One region in four is empty; the rest are not always whole elements.
      const std::size_t bytes = rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(300);
      layout.regions.push_back({bytes, kElems[rng.next_below(4)]});
    }
    const bool type_aware = round % 2 == 0;
    const auto type_id = static_cast<std::uint32_t>(round);
    InputSampler closed(type_aware, 5);
    InputSampler cut(type_aware, 5);
    const GatherPlan expected =
        build_gather_plan(layout, cut.order_for(type_id, layout), 1.0);
    expect_same_plan(closed.plan_for(type_id, layout, 1.0), expected);
    expect_same_plan(closed.plan_for(type_id, layout, 4.0), expected);
    EXPECT_EQ(closed.cache_entries(), 0u) << "a p >= 1 plan built a shuffled order";
  }
}

TEST(KeyPlanFullInput, StaticEngineBuildsNoOrder) {
  const rt::TaskType type(0, {.name = "t", .memoizable = true, .atm = {}});
  AtmEngine engine({.mode = AtmMode::Static});
  SixRegionTask t(&type);
  (void)engine.on_task_ready(t.task, 0);
  EXPECT_EQ(engine.sampler().cache_entries(), 0u);
  EXPECT_EQ(engine.sampler().plan_entries(), 1u);
}

// --- per-type slots ----------------------------------------------------------

struct DynamicRun {
  TrainingPhase phase = TrainingPhase::Training;
  double p = 0.0;
  std::vector<double> p_history;
  std::size_t blacklist = 0;
  int executions = 0;
  std::uint64_t tht_hits = 0;
  bool profiled = false;
};

/// One Dynamic-ATM training story on a type registered after `filler`
/// other types: a colliding pair fails verification (p doubles, the output
/// is blacklisted), a twin then trains successfully at the new p, and the
/// next twin is memoized in steady state.
DynamicRun run_dynamic_story(std::size_t profile_max_types, std::size_t filler) {
  AtmEngine engine({.mode = AtmMode::Dynamic, .profile_max_types = profile_max_types});
  rt::Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  for (std::size_t i = 0; i < filler; ++i) {
    runtime.register_type(
        {.name = "filler" + std::to_string(i), .memoizable = false, .atm = {}});
  }
  const auto* type = runtime.register_type(
      {.name = "story", .memoizable = true, .atm = {.l_training = 1, .tau_max = 0.01}});
  EXPECT_EQ(type->id(), filler);

  // in_b differs from in_a only in a low mantissa byte: the one byte sampled
  // at p = 2^-15 or 2^-14 is an MSB, so their keys collide.
  std::vector<double> in_a(8, 1.0);
  std::vector<double> in_b(8, 1.0);
  in_b[7] = 1.0 + 1e-13;
  std::vector<double> outs(5, -1.0);
  std::atomic<int> executions{0};
  auto submit = [&](const std::vector<double>& in, double* out) {
    runtime.submit(type,
                   [&in, out, &executions] {
                     executions.fetch_add(1);
                     *out = (in[7] - 1.0) * 1e15;
                   },
                   {rt::in(in.data(), in.size()), rt::out(out, 1)});
    runtime.taskwait();
  };
  submit(in_a, &outs[0]);  // miss: executes, inserts at 2^-15
  submit(in_b, &outs[1]);  // training hit, tau >> tau_max: p -> 2^-14
  submit(in_a, &outs[2]);  // miss at the new p: executes, inserts
  submit(in_a, &outs[3]);  // training hit, tau = 0: steady
  submit(in_a, &outs[4]);  // steady hit: memoized

  DynamicRun run;
  run.phase = engine.phase(*type);
  run.p = engine.current_p(*type);
  run.p_history = engine.p_history(*type);
  run.blacklist = engine.blacklist_size(*type);
  run.executions = executions.load();
  run.tht_hits = engine.stats().tht_hits;
  run.profiled = runtime.metrics().snapshot().find("atm.type.story.hits") != nullptr;
  EXPECT_EQ(outs[4], 0.0);
  return run;
}

TEST(TypeSlot, TypeIdsPastProfileCapTrainAndMemoize) {
  struct Case {
    std::size_t cap;
    std::size_t filler;
    bool profiled;
  };
  // Filler counts put the type in the first slot segment (id 0), at a
  // segment boundary (id 16) and deep in a later one (id 40).
  for (const Case c : {Case{256, 0, true}, Case{0, 0, false}, Case{0, 16, false},
                       Case{1, 40, false}, Case{256, 40, true}}) {
    SCOPED_TRACE("cap=" + std::to_string(c.cap) + " filler=" + std::to_string(c.filler));
    const DynamicRun run = run_dynamic_story(c.cap, c.filler);
    EXPECT_EQ(run.phase, TrainingPhase::Steady);
    EXPECT_DOUBLE_EQ(run.p, 2 * kMinP);
    EXPECT_EQ(run.p_history, (std::vector<double>{kMinP, 2 * kMinP}));
    EXPECT_EQ(run.blacklist, 1u);
    EXPECT_EQ(run.executions, 4);
    EXPECT_EQ(run.tht_hits, 1u);
    EXPECT_EQ(run.profiled, c.profiled);
  }
}

TEST(TypeSlot, FarApartTypeIdsKeepSeparateState) {
  // Hooks driven directly (no runtime): ids on both sides of slot segment
  // boundaries and deep into a later segment each memoize only their own
  // tasks.
  AtmEngine engine({.mode = AtmMode::Static, .use_ikt = false, .profile_max_types = 0});
  const std::vector<std::uint32_t> ids = {0, 15, 16, 47, 48, 1000};
  std::vector<std::unique_ptr<rt::TaskType>> types;
  for (const std::uint32_t id : ids) {
    types.push_back(std::make_unique<rt::TaskType>(
        id, rt::TaskTypeDesc{.name = "t", .memoizable = true, .atm = {}}));
  }
  for (const auto& type : types) {
    SixRegionTask producer(type.get());
    ASSERT_EQ(engine.on_task_ready(producer.task, 0),
              rt::MemoizationHook::Decision::Execute);
    engine.on_task_executed(producer.task, 0);
  }
  for (const auto& type : types) {
    SixRegionTask twin(type.get());
    EXPECT_EQ(engine.on_task_ready(twin.task, 0), rt::MemoizationHook::Decision::Hit)
        << type->id();
    EXPECT_DOUBLE_EQ(engine.current_p(*type), 1.0);
    EXPECT_EQ(engine.phase(*type), TrainingPhase::Steady);
  }
  EXPECT_EQ(engine.stats().tht_hits, ids.size());
}

TEST(TypeSlot, ConcurrentFirstUseAgreesWithSingleThreadedKeys) {
  // Four threads hit a fresh engine with a new type at once, at p = 1/128
  // (so the first plan needs a shuffled order), alternating between two
  // layouts so the per-type plan cache also flips under contention.
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 8;
  const rt::TaskType type(3, {.name = "t", .memoizable = true, .atm = {}});
  const AtmConfig config{.mode = AtmMode::FixedP, .use_ikt = false, .fixed_p = 1.0 / 128};

  struct Work {
    SixRegionTask six;
    std::vector<float> wide;
    rt::Task wide_task;
    explicit Work(const rt::TaskType* type, std::size_t salt)
        : six(type, salt), wide(3000, 0.5f + static_cast<float>(salt)) {
      wide_task.type = type;
      wide_task.accesses.push_back(rt::in(wide.data(), wide.size()));
    }
  };
  auto task_of = [](Work& w, int i) -> rt::Task& {
    return i % 2 == 0 ? w.six.task : w.wide_task;
  };

  for (int round = 0; round < 8; ++round) {
    std::vector<std::unique_ptr<Work>> work;
    for (int i = 0; i < kThreads * kTasksPerThread; ++i) {
      work.push_back(std::make_unique<Work>(&type, static_cast<std::size_t>(i)));
    }
    std::vector<HashKey> expected;
    {
      AtmEngine reference(config);
      for (int i = 0; i < kThreads * kTasksPerThread; ++i) {
        rt::Task& t = task_of(*work[i], i);
        (void)reference.on_task_ready(t, 0);
        expected.push_back(t.atm_key);
        t.atm_key = 0;
        t.atm_key_valid = false;
      }
    }

    AtmEngine engine(config);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int k = 0; k < kTasksPerThread; ++k) {
          const int i = k * kThreads + th;
          (void)engine.on_task_ready(task_of(*work[i], i), static_cast<std::size_t>(th));
        }
      });
    }
    for (auto& t : threads) t.join();

    for (int i = 0; i < kThreads * kTasksPerThread; ++i) {
      const rt::Task& t = task_of(*work[i], i);
      EXPECT_TRUE(t.atm_key_valid) << i;
      EXPECT_EQ(t.atm_key, expected[i]) << "round " << round << " task " << i;
    }
    EXPECT_EQ(engine.sampler().cache_entries(), 2u);  // one order per layout
    EXPECT_EQ(engine.sampler().plan_entries(), 2u);
    EXPECT_EQ(engine.stats().keys_computed,
              static_cast<std::uint64_t>(kThreads * kTasksPerThread));
  }
}

}  // namespace
}  // namespace atm
