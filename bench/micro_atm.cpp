// google-benchmark microbenchmarks for ATM's moving parts, including the
// paper's §III-A claim that THT output copies are ~10x faster than
// executing the task they bypass (copies are straight-line SIMD-friendly
// memcpy; the stencil body is not).
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/stencil_common.hpp"
#include "atm_lib.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace atm;

constexpr std::size_t kBlockDim = 96;
constexpr std::size_t kBlockBytes = kBlockDim * kBlockDim * sizeof(float);

std::vector<float> random_block(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> block(kBlockDim * kBlockDim);
  for (auto& v : block) v = rng.next_float(0.0f, 4.0f);
  return block;
}

void BM_HashStream_Bulk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n);
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_bytes(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 12000 B is the full-input key of a bs-reuse task (perfbench/).
BENCHMARK(BM_HashStream_Bulk)->Arg(1 << 10)->Arg(12000)->Arg(1 << 16)->Arg(1 << 22);

void BM_ComputeKey_FullP(benchmark::State& state) {
  auto block = random_block(2);
  rt::Task task;
  task.accesses.push_back(rt::in(block.data(), block.size()));
  InputSampler sampler(true, 3);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(task), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_key(task, plan, 4).key);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}
BENCHMARK(BM_ComputeKey_FullP);

void BM_ComputeKey_SampledGather(benchmark::State& state) {
  // p = 1% -> scattered gather of ~369 bytes of a 36 KiB block.
  auto block = random_block(2);
  rt::Task task;
  task.accesses.push_back(rt::in(block.data(), block.size()));
  InputSampler sampler(true, 3);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(task), 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_key(task, plan, 4).key);
  }
}
BENCHMARK(BM_ComputeKey_SampledGather);

// --- Ready-queue push/pop under contention: central vs steal ---------------
// Each benchmark thread plays worker t: push one task (worker-local lane for
// the steal scheduler), pop one back. Central funnels every op through the
// one mutex+condvar; steal keeps the pair on the thread's own deque.

std::unique_ptr<rt::Scheduler> g_sched;  // set by thread 0; read after the
                                         // state-loop entry barrier only
// Fixed-size and never resized: threads index it before the start barrier,
// so any reallocation here would race thread 0's setup.
std::array<rt::Task, 8> g_sched_tasks;

template <rt::SchedPolicy kPolicy>
void BM_Sched_PushPop(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_sched = rt::Scheduler::make(kPolicy, static_cast<unsigned>(state.threads()),
                                  nullptr);
  }
  const auto me = static_cast<unsigned>(state.thread_index());
  rt::Task* mine = &g_sched_tasks[me];
  for (auto _ : state) {
    g_sched->push(mine, me);
    benchmark::DoNotOptimize(g_sched->try_pop(me));
  }
  if (state.thread_index() == 0) {
    g_sched->shutdown();
    g_sched.reset();
  }
}
BENCHMARK_TEMPLATE(BM_Sched_PushPop, rt::SchedPolicy::Central)
    ->Name("BM_Sched_PushPop_Central")->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_Sched_PushPop, rt::SchedPolicy::Steal)
    ->Name("BM_Sched_PushPop_Steal")->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

// External-submission flavor: every push arrives from a non-worker lane (the
// master's path): round-robin inboxes for steal, the same global lock for
// central.
template <rt::SchedPolicy kPolicy>
void BM_Sched_ExternalPushPop(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_sched = rt::Scheduler::make(kPolicy, static_cast<unsigned>(state.threads()),
                                  nullptr);
  }
  const auto me = static_cast<unsigned>(state.thread_index());
  const auto external_lane = static_cast<std::size_t>(state.threads());
  rt::Task* mine = &g_sched_tasks[me];
  for (auto _ : state) {
    g_sched->push(mine, external_lane);
    benchmark::DoNotOptimize(g_sched->try_pop(me));
  }
  if (state.thread_index() == 0) {
    g_sched->shutdown();
    g_sched.reset();
  }
}
BENCHMARK_TEMPLATE(BM_Sched_ExternalPushPop, rt::SchedPolicy::Central)
    ->Name("BM_Sched_ExternalPushPop_Central")->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_Sched_ExternalPushPop, rt::SchedPolicy::Steal)
    ->Name("BM_Sched_ExternalPushPop_Steal")->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

// --- compute_key over a precomputed plan -----------------------------------
// Multi-region task (six float regions, the Blackscholes shape). range(0) is
// p in permille.

void BM_ComputeKey_Planned(benchmark::State& state) {
  bench::MultiRegionKeyFixture bench;
  const double p = static_cast<double>(state.range(0)) / 1000.0;
  const auto layout = InputLayout::from_task(bench.task);
  const GatherPlan& plan = bench.sampler.plan_for(0, layout, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_key(bench.task, plan, 4).key);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.bytes));
}
BENCHMARK(BM_ComputeKey_Planned)->Arg(50)->Arg(100)->Arg(300);

void BM_Tht_InsertEvictCycle(benchmark::State& state) {
  // Small M so eviction continuously recycles arena buffers (steady state).
  TaskHistoryTable tht(4, 4);
  auto block = random_block(5);
  rt::Task producer;
  producer.id = 1;
  producer.accesses.push_back(rt::out(block.data(), block.size()));
  HashKey key = 0;
  for (auto _ : state) {
    tht.insert(0, key++, 1.0, producer);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}
BENCHMARK(BM_Tht_InsertEvictCycle);

void BM_Tht_LookupHitCopy(benchmark::State& state) {
  TaskHistoryTable tht(4, 8);
  auto block = random_block(6);
  rt::Task producer;
  producer.id = 1;
  producer.accesses.push_back(rt::out(block.data(), block.size()));
  tht.insert(0, 0xFEED, 1.0, producer);
  std::vector<float> sink(block.size());
  rt::Task consumer;
  consumer.accesses.push_back(rt::out(sink.data(), sink.size()));
  for (auto _ : state) {
    bool hit = tht.lookup_and_copy(0, 0xFEED, 1.0, consumer, nullptr, nullptr, nullptr);
    benchmark::DoNotOptimize(hit);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}
BENCHMARK(BM_Tht_LookupHitCopy);

// --- The §III-A copy-vs-execute claim -------------------------------------
// Paper: copies from/to the THT are 10.75x / 10.31x faster than executing
// the task. Compare one stencil task body against a THT hit copy of the
// same block.

void BM_CopyVsExec_StencilTask(benchmark::State& state) {
  auto block = random_block(7);
  std::vector<float> halo(kBlockDim, 1.0f);
  for (auto _ : state) {
    apps::stencil_sweep_inplace(block.data(), halo.data(), halo.data(), halo.data(),
                                halo.data(), kBlockDim, 4);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}
BENCHMARK(BM_CopyVsExec_StencilTask);

void BM_CopyVsExec_ThtCopy(benchmark::State& state) {
  auto src = random_block(8);
  std::vector<float> dst(src.size());
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), kBlockBytes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockBytes));
}
BENCHMARK(BM_CopyVsExec_ThtCopy);

void BM_Sampler_BuildOrder(benchmark::State& state) {
  // Cold-build of the shuffled index vector for a block layout. Production
  // caches it in the engine's sampler, so the cost is paid once per (type,
  // layout) per engine — once per App::run, inside its timed region.
  const auto bytes = static_cast<std::size_t>(state.range(0));
  InputLayout layout;
  layout.regions.push_back({bytes, rt::ElemType::F32});
  std::uint32_t type_id = 0;
  for (auto _ : state) {
    InputSampler sampler(true, 11);
    benchmark::DoNotOptimize(sampler.order_for(type_id++, layout).data());
  }
}
BENCHMARK(BM_Sampler_BuildOrder)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Sampler_PlanForCold(benchmark::State& state) {
  // First plan_for of a fresh engine's sampler over the bs-reuse layout
  // (six 2000-byte F32 regions) at p = 1/range(0): p = 1 is built in closed
  // form; p = 1/128 pays the shuffled order and the sort of its prefix.
  InputLayout layout;
  for (int r = 0; r < 6; ++r) layout.regions.push_back({2000, rt::ElemType::F32});
  const double p = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    InputSampler sampler(true, 11);
    benchmark::DoNotOptimize(sampler.plan_for(0, layout, p).runs.data());
  }
}
BENCHMARK(BM_Sampler_PlanForCold)->Arg(1)->Arg(128);

void BM_Ikt_RegisterRetire(benchmark::State& state) {
  InFlightKeyTable ikt;
  float out[4];
  rt::Task task;
  task.id = 1;
  task.accesses.push_back(rt::out(out, 4));
  HashKey key = 0;
  for (auto _ : state) {
    ikt.register_or_attach(0, key++, 1.0, &task, true);
    benchmark::DoNotOptimize(ikt.retire(&task));
  }
}
BENCHMARK(BM_Ikt_RegisterRetire);

void BM_Chebyshev_Tau(benchmark::State& state) {
  auto a = random_block(9);
  auto b = a;
  b[100] += 0.01f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chebyshev_relative_error<float>(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kBlockBytes));
}
BENCHMARK(BM_Chebyshev_Tau);

}  // namespace

BENCHMARK_MAIN();
