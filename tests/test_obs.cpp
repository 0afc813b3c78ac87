// Tests for the unified observability subsystem (src/obs/): the typed
// MetricsRegistry (counters/gauges/histograms, sharded hot paths, collector
// callbacks), the log2 LatencyHistogram quantile estimation, the background
// MetricsSampler, and the runtime/engine integration — every documented
// metric family must actually appear on the registry after a run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "atm_lib.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace atm::obs {
namespace {

TEST(Counter, IncrementsAndSums) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ShardedIncrementsFromManyThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(LatencyHistogram, CountSumMaxMean) {
  LatencyHistogram h;
  for (std::uint64_t x : {1ull, 2ull, 3ull, 100ull}) h.record(x);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 106.0 / 4.0);
}

TEST(LatencyHistogram, BucketOfIsLog2) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~0ull), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_lo(4), 8u);
}

TEST(LatencyHistogram, QuantilesOrderedAndBounded) {
  LatencyHistogram h;
  // Heavy mass at ~16ns, a tail at ~1000ns.
  for (int i = 0; i < 900; ++i) h.record(16);
  for (int i = 0; i < 100; ++i) h.record(1000);
  const auto s = h.snapshot();
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  // p50 must sit in the bucket holding 16 ([16, 32)).
  EXPECT_GE(s.p50, 16.0);
  EXPECT_LT(s.p50, 32.0);
  // The top quantiles land in the tail bucket, capped at the observed max.
  EXPECT_LE(s.p99, static_cast<double>(s.max));
  EXPECT_GE(s.p99, 512.0);
}

TEST(LatencyHistogram, EmptySnapshotIsZero) {
  const auto s = LatencyHistogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(Registry, GetOrCreateIsPointerStable) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x.count");
  Counter* b = reg.counter("x.count");
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(Registry, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.counter("m"), nullptr);
  EXPECT_EQ(reg.gauge("m"), nullptr);
  EXPECT_EQ(reg.histogram("m"), nullptr);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(Registry, SnapshotCarriesValuesAndMetadata) {
  MetricsRegistry reg;
  reg.counter("a.count", "events", "test")->inc(5);
  reg.gauge("b.level", "bytes", "test")->set(-7);
  reg.histogram("c.lat")->record(100);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  const MetricSample* a = snap.find("a.count");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, MetricKind::Counter);
  EXPECT_EQ(a->unit, "events");
  EXPECT_EQ(a->owner, "test");
  EXPECT_DOUBLE_EQ(a->value, 5.0);
  const MetricSample* b = snap.find("b.level");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->value, -7.0);
  const MetricSample* c = snap.find("c.lat");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->hist.count, 1u);
  EXPECT_EQ(snap.find("nope"), nullptr);
  // Sorted by name for deterministic dumps.
  EXPECT_EQ(snap.metrics[0].name, "a.count");
  EXPECT_EQ(snap.metrics[2].name, "c.lat");
}

TEST(Registry, CollectorsRunAtSnapshotAndAreRemovable) {
  MetricsRegistry reg;
  std::atomic<int> calls{0};
  const std::size_t id = reg.add_collector([&calls](SampleSink& sink) {
    calls.fetch_add(1);
    sink.counter("ext.hits", 9);
    sink.gauge("ext.depth", 3);
  });
  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(calls.load(), 1);
  ASSERT_NE(snap.find("ext.hits"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("ext.hits")->value, 9.0);
  ASSERT_NE(snap.find("ext.depth"), nullptr);
  EXPECT_EQ(snap.find("ext.depth")->kind, MetricKind::Gauge);

  reg.remove_collector(id);
  const RegistrySnapshot snap2 = reg.snapshot();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(snap2.find("ext.hits"), nullptr);
}

TEST(Registry, CollectorMayTouchRegistryDuringSnapshot) {
  // Regression: snapshot() used to hold the registry mutex while invoking
  // collectors, so a collector that created or bumped an instrument on the
  // same registry (the natural way to export a derived metric) deadlocked
  // against its own snapshot. Collectors now run after the registry copy,
  // outside the mutex.
  MetricsRegistry reg;
  reg.counter("pre.existing")->inc();
  reg.add_collector([&reg](SampleSink& sink) {
    reg.counter("made.in.collector")->inc();  // deadlocked before the fix
    sink.counter("collector.sample", 7);
  });
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("collector.sample"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("collector.sample")->value, 7.0);
  ASSERT_NE(snap.find("pre.existing"), nullptr);
  // The instrument registered mid-snapshot lands on the registry and shows
  // up from the next snapshot on. Each snapshot copies entries BEFORE its
  // collector pass runs, so snap2 sees the value as of snapshot 1's inc.
  const RegistrySnapshot snap2 = reg.snapshot();
  ASSERT_NE(snap2.find("made.in.collector"), nullptr);
  EXPECT_DOUBLE_EQ(snap2.find("made.in.collector")->value, 1.0);
}

TEST(Registry, RemoveCollectorDrainsInFlightSnapshots) {
  // remove_collector must not return while a concurrent snapshot may still
  // be running the collector (the caller destroys captured state right
  // after). Hammer snapshots from one thread while removing from another;
  // the collector flips `alive` off before its captures die.
  MetricsRegistry reg;
  reg.counter("c")->inc();
  std::atomic<bool> alive{true};
  std::atomic<bool> stop{false};
  auto captured = std::make_shared<int>(42);
  const std::size_t id = reg.add_collector(
      [&alive, captured](SampleSink& sink) {
        ASSERT_TRUE(alive.load()) << "collector ran after remove_collector";
        sink.counter("ext.c", static_cast<std::uint64_t>(*captured));
      });
  std::thread snapshotter([&] {
    while (!stop.load()) (void)reg.snapshot();
  });
  for (int i = 0; i < 100; ++i) (void)reg.snapshot();
  reg.remove_collector(id);
  alive.store(false);
  captured.reset();
  for (int i = 0; i < 100; ++i) (void)reg.snapshot();
  stop.store(true);
  snapshotter.join();
}

TEST(Registry, SnapshotToJsonParsesStructurally) {
  MetricsRegistry reg;
  reg.counter("a\"quoted\"")->inc();
  reg.histogram("h")->record(7);
  const std::string json = reg.snapshot().to_json();
  // Escaped quotes and the histogram payload keys must appear.
  EXPECT_NE(json.find("\"a\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"t_ns\""), std::string::npos);
}

TEST(Sampler, CollectsSeriesAndStops) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("live.value");
  g->set(1);
  MetricsSampler sampler(reg, {.interval_ms = 1, .ring_capacity = 64});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  g->set(2);
  sampler.stop();
  const auto series = sampler.series();
  EXPECT_EQ(series.interval_ms, 1u);
  ASSERT_GE(series.samples.size(), 1u);
  // stop() takes a final snapshot: the last sample sees the final value.
  const MetricSample* last = series.samples.back().find("live.value");
  ASSERT_NE(last, nullptr);
  EXPECT_DOUBLE_EQ(last->value, 2.0);
  // Timestamps are monotonic.
  for (std::size_t i = 1; i < series.samples.size(); ++i) {
    EXPECT_GE(series.samples[i].t_ns, series.samples[i - 1].t_ns);
  }
  const std::string json = series.to_json();
  EXPECT_NE(json.find("\"interval_ms\":1"), std::string::npos);
  EXPECT_NE(json.find("live.value"), std::string::npos);
  const std::string csv = series.to_csv();
  EXPECT_NE(csv.find("live.value"), std::string::npos);
}

TEST(Sampler, ConcurrentStopIsSafe) {
  // Regression: two threads calling stop() concurrently could both pass
  // the `if (stopped_) return` gate and race thread_.join() — joining one
  // std::thread from two threads is undefined behavior. The first caller
  // now claims the join; the rest block until it completes. Every caller
  // must return with the sampler fully stopped and the final sample taken.
  for (int round = 0; round < 20; ++round) {
    MetricsRegistry reg;
    reg.counter("c")->inc();
    MetricsSampler sampler(reg, {.interval_ms = 1, .ring_capacity = 16});
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&sampler] { sampler.stop(); });
    }
    for (auto& t : stoppers) t.join();
    EXPECT_GE(sampler.series().samples.size(), 1u);
    sampler.stop();  // idempotent after the fact
  }
}

TEST(Sampler, RingBoundsMemoryAndCountsDrops) {
  MetricsRegistry reg;
  reg.gauge("g")->set(1);
  MetricsSampler sampler(reg, {.interval_ms = 0, .ring_capacity = 4});
  // interval 0 clamps to the minimum period; give it time to wrap the ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sampler.stop();
  const auto series = sampler.series();
  EXPECT_LE(series.samples.size(), 4u);
  if (series.samples.size() == 4u) {
    EXPECT_GT(series.dropped, 0u);
  }
}

// --- runtime integration ----------------------------------------------------

TEST(RuntimeMetrics, RegistryExportsAllFamiliesAfterRun) {
  rt::Runtime runtime({.num_threads = 2});
  const auto* type =
      runtime.register_type({.name = "t", .memoizable = false, .atm = {}});
  int cell = 0;
  for (int i = 0; i < 64; ++i) {
    runtime.submit(type, [] {}, {rt::inout(&cell, 1)});
  }
  runtime.taskwait();

  const RegistrySnapshot snap = runtime.metrics().snapshot();
  for (const char* name :
       {"runtime.tasks_submitted", "runtime.tasks_executed",
        "runtime.pending_tasks", "arena.slots", "arena.free_slots",
        "dep.exact_hits", "dep.tree_fallbacks", "dep.prune_scans",
        "sched.depth", "sched.steal_attempts",
        "sched.steal_fails", "sched.inbox_drains", "sched.inbox_drained_tasks",
        "sched.help_sessions", "sched.help_tasks"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  ASSERT_NE(snap.find("runtime.tasks_submitted"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("runtime.tasks_submitted")->value, 64.0);
  EXPECT_DOUBLE_EQ(snap.find("runtime.tasks_executed")->value, 64.0);
}

TEST(RuntimeMetrics, MetricsOffSkipsCollectors) {
  rt::Runtime runtime({.num_threads = 1, .metrics = false});
  const auto* type =
      runtime.register_type({.name = "t", .memoizable = false, .atm = {}});
  int cell = 0;
  runtime.submit(type, [] {}, {rt::inout(&cell, 1)});
  runtime.taskwait();
  const RegistrySnapshot snap = runtime.metrics().snapshot();
  EXPECT_EQ(snap.find("runtime.tasks_submitted"), nullptr);
}

TEST(RuntimeMetrics, HelpingBarrierCountsSessions) {
  rt::Runtime runtime({.num_threads = 2, .help_taskwait = true});
  const auto* type =
      runtime.register_type({.name = "t", .memoizable = false, .atm = {}});
  // A fast worker could drain a whole wave before taskwait() runs, and then
  // no help session would happen. So each wave's first task holds until the
  // master has entered that wave's help session. The counter increments
  // before the helper pops anything, so the master picking this task itself
  // cannot deadlock.
  const Counter* sessions = runtime.metrics().counter("sched.help_sessions");
  ASSERT_NE(sessions, nullptr);
  std::vector<int> cells(128, 0);
  for (std::uint64_t w = 0; w < 4; ++w) {
    runtime.submit(
        type,
        [sessions, w] {
          while (sessions->value() <= w) std::this_thread::yield();
        },
        {rt::inout(&cells[0], 1)});
    for (std::size_t i = 1; i < cells.size(); ++i) {
      runtime.submit(type, [] {}, {rt::inout(&cells[i], 1)});
    }
    runtime.taskwait();
  }
  const RegistrySnapshot snap = runtime.metrics().snapshot();
  ASSERT_NE(snap.find("sched.help_sessions"), nullptr);
  EXPECT_GE(snap.find("sched.help_sessions")->value, 4.0);
}

TEST(RuntimeMetrics, ProfileTasksRecordsPerTypeHistogram) {
  rt::Runtime runtime({.num_threads = 1, .profile_tasks = true});
  const auto* type =
      runtime.register_type({.name = "kernel", .memoizable = false, .atm = {}});
  int cell = 0;
  for (int i = 0; i < 16; ++i) {
    runtime.submit(type, [] {}, {rt::inout(&cell, 1)});
  }
  runtime.taskwait();
  const RegistrySnapshot snap = runtime.metrics().snapshot();
  const MetricSample* hist = snap.find("task.kernel.exec_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::Histogram);
  EXPECT_EQ(hist->hist.count, 16u);
}

TEST(RuntimeMetrics, ProfileTypeCapSkipsHighTypeIds) {
  // profile_max_types sizes the per-type histogram slot array: the first
  // registered type (id 0) profiles, the second (id 1 >= cap) runs
  // unprofiled but otherwise executes normally.
  rt::Runtime runtime(
      {.num_threads = 1, .profile_tasks = true, .profile_max_types = 1});
  const auto* a =
      runtime.register_type({.name = "a", .memoizable = false, .atm = {}});
  const auto* b =
      runtime.register_type({.name = "b", .memoizable = false, .atm = {}});
  int cell = 0;
  for (int i = 0; i < 4; ++i) {
    runtime.submit(a, [] {}, {rt::inout(&cell, 1)});
    runtime.submit(b, [] {}, {rt::inout(&cell, 1)});
  }
  runtime.taskwait();
  const RegistrySnapshot snap = runtime.metrics().snapshot();
  const MetricSample* hist_a = snap.find("task.a.exec_ns");
  ASSERT_NE(hist_a, nullptr);
  EXPECT_EQ(hist_a->hist.count, 4u);
  EXPECT_EQ(snap.find("task.b.exec_ns"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("runtime.tasks_executed")->value, 8.0);
}

TEST(RuntimeMetrics, SamplerSeriesHarvestable) {
  rt::Runtime runtime({.num_threads = 1, .metrics_interval_ms = 1});
  const auto* type =
      runtime.register_type({.name = "t", .memoizable = false, .atm = {}});
  int cell = 0;
  for (int i = 0; i < 32; ++i) {
    runtime.submit(type, [] {}, {rt::inout(&cell, 1)});
  }
  runtime.taskwait();
  const auto series = runtime.metrics_series();
  ASSERT_GE(series.samples.size(), 1u);
  EXPECT_NE(series.samples.back().find("runtime.tasks_executed"), nullptr);
}

// --- engine integration -----------------------------------------------------

TEST(EngineMetrics, ExportsAtmCountersAndTypeProfiles) {
  AtmEngine engine({.mode = AtmMode::Static});
  rt::Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type =
      runtime.register_type({.name = "square", .memoizable = true, .atm = {}});

  std::vector<double> input{1.0, 2.0, 3.0};
  std::vector<double> out1(3), out2(3);
  auto body = [&](std::vector<double>& out) {
    return [&input, &out] {
      for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i] * input[i];
    };
  };
  runtime.submit(type, body(out1),
                 {rt::in(input.data(), 3), rt::out(out1.data(), 3)});
  runtime.taskwait();
  runtime.submit(type, body(out2),
                 {rt::in(input.data(), 3), rt::out(out2.data(), 3)});
  runtime.taskwait();

  const RegistrySnapshot snap = runtime.metrics().snapshot();
  ASSERT_NE(snap.find("atm.tht_hits"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("atm.tht_hits")->value, 1.0);
  ASSERT_NE(snap.find("atm.keys_computed"), nullptr);
  EXPECT_GE(snap.find("atm.keys_computed")->value, 2.0);

  // Per-type profile: one hit, one miss, bytes saved = 3 doubles.
  ASSERT_NE(snap.find("atm.type.square.hits"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("atm.type.square.hits")->value, 1.0);
  ASSERT_NE(snap.find("atm.type.square.misses"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("atm.type.square.misses")->value, 1.0);
  ASSERT_NE(snap.find("atm.type.square.bytes_saved"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("atm.type.square.bytes_saved")->value, 24.0);
  const MetricSample* hash = snap.find("atm.type.square.hash_ns");
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->kind, MetricKind::Histogram);
  EXPECT_GE(hash->hist.count, 2u);
  const MetricSample* copy = snap.find("atm.type.square.copy_ns");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->hist.count, 1u);
}

TEST(EngineMetrics, ProfileTypeCapSkipsEngineProfiles) {
  // AtmConfig::profile_max_types = 0: no per-type profile slots exist, so
  // atm.type.* instruments never register — memoization itself still works.
  AtmEngine engine({.mode = AtmMode::Static, .profile_max_types = 0});
  rt::Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type =
      runtime.register_type({.name = "square", .memoizable = true, .atm = {}});
  std::vector<double> input{1.0, 2.0, 3.0};
  std::vector<double> out1(3), out2(3);
  auto body = [&](std::vector<double>& out) {
    return [&input, &out] {
      for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i] * input[i];
    };
  };
  runtime.submit(type, body(out1),
                 {rt::in(input.data(), 3), rt::out(out1.data(), 3)});
  runtime.taskwait();
  runtime.submit(type, body(out2),
                 {rt::in(input.data(), 3), rt::out(out2.data(), 3)});
  runtime.taskwait();

  const RegistrySnapshot snap = runtime.metrics().snapshot();
  ASSERT_NE(snap.find("atm.tht_hits"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("atm.tht_hits")->value, 1.0);
  EXPECT_EQ(snap.find("atm.type.square.hits"), nullptr);
  EXPECT_EQ(snap.find("atm.type.square.hash_ns"), nullptr);
  EXPECT_DOUBLE_EQ(out2[1], 4.0);
}

TEST(EngineMetrics, EngineOutlivedByRuntimeIsSafe) {
  // The engine detaches itself in its destructor (no manual
  // attach_memoizer(nullptr) needed): snapshotting the runtime's registry
  // after the engine died must not touch freed state.
  rt::Runtime runtime({.num_threads = 1});
  {
    AtmEngine engine({.mode = AtmMode::Static});
    runtime.attach_memoizer(&engine);
    const auto* type =
        runtime.register_type({.name = "t", .memoizable = true, .atm = {}});
    double in = 1.0, out = 0.0;
    runtime.submit(type, [&] { out = in; }, {rt::in(&in, 1), rt::out(&out, 1)});
    runtime.taskwait();
  }
  const RegistrySnapshot snap = runtime.metrics().snapshot();
  EXPECT_EQ(snap.find("atm.tht_hits"), nullptr);
  EXPECT_NE(snap.find("runtime.tasks_executed"), nullptr);
}

TEST(EngineMetrics, RuntimeDiesBeforeEngineIsSafe) {
  // The reverse order — a long-lived engine fed by scoped runtimes (the
  // warm-start pattern: run, save_store, run again) — is just as routine.
  // The runtime must detach the engine in its destructor so the engine
  // never touches the dead registry, and a later re-attach must rebuild
  // the collector and per-type profiles on the new runtime's registry.
  AtmEngine engine({.mode = AtmMode::Static});
  auto run_wave = [&engine] {
    rt::Runtime runtime({.num_threads = 1});
    runtime.attach_memoizer(&engine);
    const auto* type = runtime.register_type(
        {.name = "wave", .memoizable = true, .atm = {}});
    double in = 1.0, out = 0.0;
    for (int i = 0; i < 2; ++i) {
      runtime.submit(type, [&] { out = in * 2; },
                     {rt::in(&in, 1), rt::out(&out, 1)});
      runtime.taskwait();
    }
    return runtime.metrics().snapshot();
  };

  const RegistrySnapshot first = run_wave();   // runtime destroyed inside
  const RegistrySnapshot second = run_wave();  // re-attach to a fresh one
  ASSERT_NE(first.find("atm.tht_hits"), nullptr);
  EXPECT_DOUBLE_EQ(first.find("atm.tht_hits")->value, 1.0);
  ASSERT_NE(first.find("atm.type.wave.misses"), nullptr);
  // The engine's THT survived the first runtime, so every wave-2 submit
  // hits; the re-registered collector exports the cumulative view and the
  // per-type profile was rebuilt on the new registry.
  ASSERT_NE(second.find("atm.tht_hits"), nullptr);
  EXPECT_DOUBLE_EQ(second.find("atm.tht_hits")->value, 3.0);
  ASSERT_NE(second.find("atm.type.wave.hits"), nullptr);
  EXPECT_EQ(engine.stats().tht_hits, 3u);
}

// --- reuse-log cap (AtmStats satellite) -------------------------------------

TEST(AtmStatsReuseLog, CapBoundsGrowthAndCountsDrops) {
  AtmStats stats;
  stats.set_reuse_log_cap(4);
  for (rt::TaskId id = 0; id < 10; ++id) stats.log_reuse(id);
  const AtmStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.reuse_creators.size(), 4u);
  EXPECT_EQ(snap.reuse_log_dropped, 6u);
  // The head of the stream is what survives (Figure 9 reads the curve head).
  EXPECT_EQ(snap.reuse_creators[0], 0u);
  EXPECT_EQ(snap.reuse_creators[3], 3u);
}

TEST(AtmStatsReuseLog, ResetClearsCapState) {
  AtmStats stats;
  stats.set_reuse_log_cap(2);
  for (rt::TaskId id = 0; id < 5; ++id) stats.log_reuse(id);
  stats.reset();
  EXPECT_EQ(stats.snapshot().reuse_log_dropped, 0u);
  EXPECT_TRUE(stats.snapshot().reuse_creators.empty());
  stats.log_reuse(7);
  EXPECT_EQ(stats.snapshot().reuse_creators.size(), 1u);
}

TEST(AtmStatsReuseLog, EngineConfigPlumbsCap) {
  AtmEngine engine({.mode = AtmMode::Static, .reuse_log_cap = 1});
  rt::Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type =
      runtime.register_type({.name = "t", .memoizable = true, .atm = {}});
  double in = 1.0;
  std::vector<double> outs(4, 0.0);
  for (auto& o : outs) {
    runtime.submit(type, [&in, &o] { o = in; }, {rt::in(&in, 1), rt::out(&o, 1)});
    runtime.taskwait();
  }
  const AtmStatsSnapshot snap = engine.stats();
  EXPECT_EQ(snap.tht_hits, 3u);
  EXPECT_EQ(snap.reuse_creators.size(), 1u);
  EXPECT_EQ(snap.reuse_log_dropped, 2u);
}

}  // namespace
}  // namespace atm::obs
