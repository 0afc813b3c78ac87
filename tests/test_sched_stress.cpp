// Scheduler-semantics stress suite (and the TSan target for the CI thread-
// sanitizer job): Chase-Lev deque races, work-stealing spawn storms, steal
// sweeps, shutdown while thieves are active, trace-lane integrity under
// stealing, and A/B determinism between `--sched central` and
// `--sched steal`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/work_steal_deque.hpp"

namespace atm::rt {
namespace {

// --- WorkStealDeque ---------------------------------------------------------

// Owner pushes/pops while thieves hammer steal(): every task is taken exactly
// once, none invented, none lost. Task identity is tracked by pointer.
TEST(WorkStealDeque, OwnerVsThievesExactlyOnce) {
  constexpr int kThieves = 4;
  constexpr int kTasks = 20'000;
  WorkStealDeque deque;
  std::vector<Task> tasks(kTasks);

  std::vector<std::uint8_t> taken(kTasks);  // slot per task; no two writers
  std::atomic<int> taken_count{0};
  std::atomic<bool> done{false};

  auto take = [&](Task* t) {
    const auto idx = static_cast<std::size_t>(t - tasks.data());
    ASSERT_LT(idx, tasks.size());
    // A double-take would race on the slot (TSan) and trip the exchange.
    ASSERT_EQ(taken[idx], 0) << "task stolen/popped twice";
    taken[idx] = 1;
    taken_count.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  std::mutex take_mutex;  // serializes the ASSERT bookkeeping, not the deque
  for (int th = 0; th < kThieves; ++th) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (Task* t = deque.steal()) {
          std::lock_guard<std::mutex> lock(take_mutex);
          take(t);
        }
      }
      // Final drain so nothing is stranded between done and the last steal.
      while (Task* t = deque.steal()) {
        std::lock_guard<std::mutex> lock(take_mutex);
        take(t);
      }
    });
  }

  std::mt19937 rng(7);
  int pushed = 0;
  while (pushed < kTasks) {
    // Push a random burst, then pop some back (LIFO) like a real worker.
    const int burst = 1 + static_cast<int>(rng() % 64);
    for (int i = 0; i < burst && pushed < kTasks; ++i) deque.push(&tasks[pushed++]);
    const int pops = static_cast<int>(rng() % 8);
    for (int i = 0; i < pops; ++i) {
      if (Task* t = deque.pop()) {
        std::lock_guard<std::mutex> lock(take_mutex);
        take(t);
      }
    }
  }
  while (Task* t = deque.pop()) {
    std::lock_guard<std::mutex> lock(take_mutex);
    take(t);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(taken_count.load(), kTasks);
  EXPECT_EQ(deque.steal(), nullptr);
  EXPECT_EQ(deque.pop(), nullptr);
}

// Growth under load: push far beyond the initial capacity while thieves
// drain, exercising grow() with concurrent readers of the old buffer.
TEST(WorkStealDeque, GrowsUnderConcurrentSteals) {
  WorkStealDeque deque(8);
  constexpr int kTasks = 50'000;
  std::vector<Task> tasks(kTasks);
  std::atomic<int> stolen{0};
  std::atomic<bool> done{false};

  std::thread thief([&] {
    while (!done.load(std::memory_order_acquire) || deque.size_estimate() != 0) {
      if (deque.steal() != nullptr) stolen.fetch_add(1, std::memory_order_relaxed);
    }
  });
  int popped = 0;
  for (int i = 0; i < kTasks; ++i) deque.push(&tasks[i]);
  while (deque.pop() != nullptr) ++popped;
  done.store(true, std::memory_order_release);
  thief.join();
  while (deque.steal() != nullptr) stolen.fetch_add(1, std::memory_order_relaxed);

  EXPECT_EQ(stolen.load() + popped, kTasks);
  EXPECT_GE(deque.capacity(), 8u);
}

// --- StealScheduler (scheduler-level, no runtime) ---------------------------

// External pushes land round-robin and every worker can acquire every task
// (own inbox, own deque, or steals); shutdown mid-steal drains exactly.
TEST(StealScheduler, ShutdownDuringStealsDrainsExactlyOnce) {
  constexpr unsigned kWorkers = 4;
  constexpr int kTasks = 10'000;
  auto sched = Scheduler::make(SchedPolicy::Steal, kWorkers, nullptr);
  std::vector<Task> tasks(kTasks);
  std::atomic<int> consumed{0};

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (sched->pop_blocking(w) != nullptr) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Master pushes from a non-worker lane while workers already run, then
  // shuts down while steals are in flight.
  for (int i = 0; i < kTasks; ++i) sched->push(&tasks[i], /*lane=*/kWorkers);
  sched->shutdown();
  for (auto& t : workers) t.join();

  EXPECT_EQ(consumed.load(), kTasks);
  EXPECT_EQ(sched->depth(), 0u);
}

// Workers pushing locally (successor-style) while others only steal: the
// LIFO/FIFO split must not lose tasks.
TEST(StealScheduler, LocalPushesAreStealable) {
  constexpr unsigned kWorkers = 3;
  auto sched = Scheduler::make(SchedPolicy::Steal, kWorkers, nullptr);
  std::vector<Task> tasks(6'000);
  std::atomic<int> consumed{0};

  // Worker 0 produces everything as "local" pushes; workers 1..2 only steal.
  std::thread producer([&] {
    for (auto& t : tasks) sched->push(&t, /*lane=*/0);
    while (sched->pop_blocking(0) != nullptr) {
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> thieves;
  for (unsigned w = 1; w < kWorkers; ++w) {
    thieves.emplace_back([&, w] {
      while (sched->pop_blocking(w) != nullptr) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (consumed.load(std::memory_order_relaxed) <
         static_cast<int>(tasks.size())) {
    std::this_thread::yield();
  }
  sched->shutdown();
  producer.join();
  for (auto& t : thieves) t.join();
  EXPECT_EQ(consumed.load(), static_cast<int>(tasks.size()));
}

// --- Idle lanes and the fixed inbox batch ----------------------------------

// Local work is never skipped: a lane whose steal sweeps all missed must
// still serve its own pushes on the very next try_pop.
TEST(StealScheduler, IdleLaneNeverSkipsLocalWork) {
  auto sched = Scheduler::make(SchedPolicy::Steal, 2, nullptr);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(sched->try_pop(0), nullptr);
  Task local;
  sched->push(&local, /*lane=*/0);
  EXPECT_EQ(sched->try_pop(0), &local);
  sched->shutdown();
}

// A thief whose sweeps all missed steals remote work on every later try_pop:
// no sweep is ever sat out, so kTasks calls acquire kTasks tasks.
TEST(StealScheduler, IdleThiefStillStealsWithinBudget) {
  constexpr int kTasks = 64;
  auto sched = Scheduler::make(SchedPolicy::Steal, 2, nullptr);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(sched->try_pop(1), nullptr);
  std::vector<Task> tasks(kTasks);
  for (auto& t : tasks) sched->push(&t, /*lane=*/0);  // all work on lane 0
  int got = 0;
  for (int i = 0; i < kTasks; ++i) {
    if (sched->try_pop(1) != nullptr) ++got;
  }
  EXPECT_EQ(got, kTasks);
  sched->shutdown();
}

// One inbox drain keeps exactly kInboxBatch tasks private (the first is
// returned at once) and spills the rest to the deque, where the helper lane
// steals them one at a time; the private remainder stays with lane 0.
TEST(StealScheduler, InboxDrainKeepsFixedBatch) {
  constexpr int kTasks = 1000;
  constexpr int kBatch = static_cast<int>(StealScheduler::kInboxBatch);
  auto sched = Scheduler::make(SchedPolicy::Steal, 1, nullptr);
  std::vector<Task> tasks(kTasks);
  for (auto& t : tasks) sched->push(&t, /*lane=*/2);  // external: lane 0's inbox
  ASSERT_NE(sched->try_pop(0), nullptr);
  int helper = 0;
  while (sched->try_pop(/*helper lane=*/1) != nullptr) ++helper;
  int owner = 0;
  while (sched->try_pop(0) != nullptr) ++owner;
  EXPECT_EQ(helper, kTasks - kBatch);
  EXPECT_EQ(owner, kBatch - 1);
  EXPECT_EQ(sched->depth(), 0u);
  sched->shutdown();
}

// Parked lanes must be woken by late pushes after long idle spells (the
// sleeper protocol owns parking liveness).
TEST(StealScheduler, LateWorkWakesParkedWorkers) {
  constexpr unsigned kWorkers = 4;
  constexpr int kTasks = 10'000;
  auto sched = Scheduler::make(SchedPolicy::Steal, kWorkers, nullptr);
  std::vector<Task> tasks(kTasks);
  std::atomic<int> consumed{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (sched->pop_blocking(w) != nullptr) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the workers run dry (spin through their acquire rounds and park).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < kTasks; ++i) sched->push(&tasks[i], /*lane=*/kWorkers);
  while (consumed.load(std::memory_order_relaxed) < kTasks) {
    std::this_thread::yield();
  }
  sched->shutdown();
  for (auto& t : workers) t.join();
  EXPECT_EQ(consumed.load(), kTasks);
  EXPECT_EQ(sched->depth(), 0u);
}

// --- Runtime-level storms ----------------------------------------------------

RuntimeConfig steal_config(unsigned threads, bool tracing = false) {
  return {.num_threads = threads, .enable_tracing = tracing,
          .sched = SchedPolicy::Steal};
}

// Spawn storm: many independent trivial tasks through the full runtime with
// oversubscribed workers; all must execute exactly once.
TEST(SchedStress, SpawnStormAllTasksExecuteOnce) {
  Runtime rt(steal_config(8));
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  constexpr int kTasks = 5'000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<int> cells(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    rt.submit(type, [&, i] { hits[i].fetch_add(1, std::memory_order_relaxed); },
              {out(&cells[i], 1)});
  }
  rt.taskwait();
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(rt.counters().executed, static_cast<std::uint64_t>(kTasks));
}

// Random DAG under stealing: writers to the same buffer must still be
// serialized in submission order (dependences dominate the scheduler).
class StealDagStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StealDagStress, ConflictingWritersSerializedUnderStealing) {
  std::mt19937_64 rng(GetParam());
  constexpr int kBuffers = 8;
  constexpr int kTasks = 400;

  Runtime rt(steal_config(4));
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});

  int buffers[kBuffers] = {};
  std::vector<std::vector<int>> logs(kBuffers);
  std::mutex log_mutex[kBuffers];
  std::vector<int> expected[kBuffers];

  for (int i = 0; i < kTasks; ++i) {
    const int b = static_cast<int>(rng() % kBuffers);
    expected[b].push_back(i);
    rt.submit(type,
              [&, i, b] {
                std::lock_guard<std::mutex> lock(log_mutex[b]);
                logs[b].push_back(i);
              },
              {inout(&buffers[b], 1)});
  }
  rt.taskwait();
  for (int b = 0; b < kBuffers; ++b) EXPECT_EQ(logs[b], expected[b]) << "buffer " << b;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StealDagStress, ::testing::Range<std::uint64_t>(0, 6));

// Workers submitting successors from inside tasks (local pushes) mixed with
// master submissions; repeated across taskwait barriers.
TEST(SchedStress, NestedSubmissionAcrossBarriers) {
  Runtime rt(steal_config(4));
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::atomic<int> total{0};
  int cells[64] = {};
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 32; ++i) {
      rt.submit(type,
                [&, i] {
                  total.fetch_add(1, std::memory_order_relaxed);
                  // Child task submitted from a worker thread: exercises the
                  // worker-local push path of the scheduler.
                  rt.submit(type, [&] { total.fetch_add(1, std::memory_order_relaxed); },
                            {out(&cells[32 + i], 1)});
                },
                {out(&cells[i], 1)});
    }
    rt.taskwait();
  }
  EXPECT_EQ(total.load(), 20 * 64);
}

// Trace-lane integrity under stealing: every lane's events are well-formed
// (t0 <= t1) and non-overlapping in record order, regardless of which worker
// stole which task; depth samples exist and their timestamps ascend.
TEST(SchedStress, TraceLanesStayConsistentUnderStealing) {
  Runtime rt(steal_config(4, /*tracing=*/true));
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::vector<int> cells(512);
  for (int wave = 0; wave < 4; ++wave) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      rt.submit(type, [&, i] { cells[i] += 1; }, {inout(&cells[i], 1)});
    }
    rt.taskwait();
  }
  const TraceRecorder& tracer = rt.tracer();
  ASSERT_EQ(tracer.lane_count(), 5u);  // 4 workers + master
  std::uint64_t exec_events = 0;
  for (std::size_t lane = 0; lane < tracer.lane_count(); ++lane) {
    const auto& events = tracer.lane(lane);
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_LE(events[i].t0, events[i].t1) << "lane " << lane << " event " << i;
      if (i > 0) {
        ASSERT_LE(events[i - 1].t1, events[i].t0)
            << "lane " << lane << ": overlapping events " << i - 1 << "," << i;
      }
      if (events[i].state == TraceState::TaskExec) ++exec_events;
    }
  }
  EXPECT_EQ(exec_events, 4u * 512u);  // every task traced exactly once
  const auto depth = tracer.depth_samples();
  ASSERT_FALSE(depth.empty());
  for (std::size_t i = 1; i < depth.size(); ++i) {
    ASSERT_LE(depth[i - 1].t, depth[i].t);
  }
}

// --- MPSC inboxes (lock-free external submission path) ----------------------

// Many producer threads hammer the lock-free inboxes while workers drain
// them (private batch + deque spill + steals): every task is consumed
// exactly once, none lost, none duplicated.
TEST(StealScheduler, MpscInboxManyProducersExactlyOnce) {
  constexpr unsigned kWorkers = 3;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  constexpr int kTasks = kProducers * kPerProducer;
  auto sched = Scheduler::make(SchedPolicy::Steal, kWorkers, nullptr);
  std::vector<Task> tasks(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks[i].id = static_cast<TaskId>(i);  // spreads across inboxes
  }
  std::vector<std::atomic<std::uint8_t>> taken(kTasks);
  std::atomic<int> consumed{0};

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (Task* t = sched->pop_blocking(w)) {
        const auto idx = static_cast<std::size_t>(t - tasks.data());
        ASSERT_LT(idx, tasks.size());
        ASSERT_EQ(taken[idx].exchange(1, std::memory_order_relaxed), 0)
            << "task consumed twice";
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // All producers push from non-worker lanes (external submissions).
        sched->push(&tasks[p * kPerProducer + i], /*lane=*/kWorkers + p);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (consumed.load(std::memory_order_relaxed) < kTasks) {
    std::this_thread::yield();
  }
  sched->shutdown();
  for (auto& t : workers) t.join();
  EXPECT_EQ(consumed.load(), kTasks);
  EXPECT_EQ(sched->depth(), 0u);
}

// --- Eager retirement under stealing -----------------------------------------

// Randomized streamed DAG with NO intermediate taskwait: records retire and
// recycle while thieves, the sharded tracker and submitters race. Per-buffer
// logs must equal submission order, every task runs exactly once, and the
// arena must end fully drained. (This is the suite's TSan money shot: a
// use-after-retire is a data race on a recycled record.)
class RetireUnderStealing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetireUnderStealing, StreamedDagExactlyOnceNoUseAfterRetire) {
  std::mt19937_64 rng(GetParam());
  constexpr int kBuffers = 16;
  constexpr int kTasks = 8'000;

  Runtime rt(steal_config(8));  // oversubscribed: steals + park/wake churn
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});

  int buffers[kBuffers] = {};
  std::vector<std::vector<int>> logs(kBuffers);
  std::mutex log_mutex[kBuffers];
  std::vector<int> expected[kBuffers];
  std::vector<std::atomic<std::uint8_t>> hits(kTasks);

  for (int i = 0; i < kTasks; ++i) {
    // Mix single-buffer writers with occasional two-buffer tasks so
    // successor lists and multi-segment footprints both churn.
    const int b0 = static_cast<int>(rng() % kBuffers);
    const bool dual = (rng() % 4) == 0;
    const int b1 = dual ? static_cast<int>(rng() % kBuffers) : b0;
    expected[b0].push_back(i);
    if (b1 != b0) expected[b1].push_back(i);
    std::vector<DataAccess> acc{inout(&buffers[b0], 1)};
    if (b1 != b0) acc.push_back(inout(&buffers[b1], 1));
    rt.submit(type,
              [&, i, b0, b1] {
                ASSERT_EQ(hits[i].exchange(1, std::memory_order_relaxed), 0)
                    << "task " << i << " ran twice";
                {
                  std::lock_guard<std::mutex> lock(log_mutex[b0]);
                  logs[b0].push_back(i);
                }
                if (b1 != b0) {
                  std::lock_guard<std::mutex> lock(log_mutex[b1]);
                  logs[b1].push_back(i);
                }
              },
              std::move(acc));
  }
  rt.taskwait();

  for (int b = 0; b < kBuffers; ++b) {
    EXPECT_EQ(logs[b], expected[b]) << "buffer " << b;
  }
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(rt.counters().executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rt.arena_stats().live_slots(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetireUnderStealing,
                         ::testing::Range<std::uint64_t>(0, 6));

// Nested submissions from workers while records recycle: children submitted
// from inside tasks use worker-lane pushes and allocate from the same arena
// the parents are being retired into.
TEST(SchedStress, NestedSubmissionWithEagerRetirement) {
  Runtime rt(steal_config(4));
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::atomic<int> total{0};
  int cells[256] = {};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 64; ++i) {
      rt.submit(type,
                [&, i] {
                  total.fetch_add(1, std::memory_order_relaxed);
                  for (int c = 0; c < 3; ++c) {
                    rt.submit(type,
                              [&] { total.fetch_add(1, std::memory_order_relaxed); },
                              {inout(&cells[64 + (i * 3 + c) % 192], 1)});
                  }
                },
                {inout(&cells[i], 1)});
    }
    rt.taskwait();
    EXPECT_EQ(rt.arena_stats().live_slots(), 0u) << "wave " << wave;
  }
  EXPECT_EQ(total.load(), 10 * 64 * 4);
}

// --- Central/steal A/B determinism ------------------------------------------

// Same app, same seed: the two schedulers must produce bit-identical program
// outputs with ATM off (pure dependence-ordered execution) and with Static
// ATM (exact memoization: hits copy byte-identical outputs, so the schedule
// cannot leak into the results).
class SchedDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedDeterminism, CentralAndStealProduceIdenticalOutputs) {
  const auto app = apps::make_app(GetParam(), apps::Preset::Test);
  ASSERT_NE(app, nullptr);
  for (AtmMode mode : {AtmMode::Off, AtmMode::Static}) {
    apps::RunConfig central{.threads = 4, .sched = SchedPolicy::Central, .mode = mode};
    apps::RunConfig steal{.threads = 4, .sched = SchedPolicy::Steal, .mode = mode};
    const auto a = app->run(central);
    const auto b = app->run(steal);
    ASSERT_EQ(a.output.size(), b.output.size());
    for (std::size_t i = 0; i < a.output.size(); ++i) {
      ASSERT_EQ(a.output[i], b.output[i])
          << app->name() << " mode=" << atm_mode_name(mode) << " index " << i;
    }
    EXPECT_EQ(a.counters.submitted, b.counters.submitted);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, SchedDeterminism,
                         ::testing::Values("blackscholes", "gauss-seidel", "kmeans"));

}  // namespace
}  // namespace atm::rt
