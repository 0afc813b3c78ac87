// End-to-end tests of the ATM engine attached to the runtime: exact
// memoization (Static), in-flight deferral (IKT), the Dynamic training
// phase with tau-gated p doubling and output blacklisting, FixedP oracle
// behaviour, and statistics/memory accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "atm_lib.hpp"

namespace atm {
namespace {

using rt::Runtime;
using rt::RuntimeConfig;
using rt::TaskTypeDesc;

TEST(Engine, StaticMemoizesExactTwin) {
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "square", .memoizable = true, .atm = {}});

  std::vector<double> input{1.0, 2.0, 3.0};
  std::vector<double> out1(3), out2(3);
  std::atomic<int> executions{0};

  auto body = [&](std::vector<double>& out) {
    return [&input, &out, &executions] {
      executions.fetch_add(1);
      for (std::size_t i = 0; i < input.size(); ++i) out[i] = input[i] * input[i];
    };
  };
  runtime.submit(type, body(out1), {rt::in(input.data(), 3), rt::out(out1.data(), 3)});
  runtime.taskwait();
  runtime.submit(type, body(out2), {rt::in(input.data(), 3), rt::out(out2.data(), 3)});
  runtime.taskwait();

  EXPECT_EQ(executions.load(), 1);  // the twin was served from the THT
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(runtime.counters().memoized, 1u);
  EXPECT_EQ(engine.stats().tht_hits, 1u);
  ASSERT_EQ(engine.stats().reuse_creators.size(), 1u);
  EXPECT_EQ(engine.stats().reuse_creators[0], 0u);  // created by task id 0
}

TEST(Engine, StaticDistinguishesDifferentInputs) {
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "copy", .memoizable = true, .atm = {}});

  double in1 = 5.0, in2 = 6.0, out1 = 0, out2 = 0;
  runtime.submit(type, [&] { out1 = in1; },
                 {rt::in(&in1, 1), rt::out(&out1, 1)});
  runtime.taskwait();
  runtime.submit(type, [&] { out2 = in2; },
                 {rt::in(&in2, 1), rt::out(&out2, 1)});
  runtime.taskwait();
  EXPECT_EQ(out1, 5.0);
  EXPECT_EQ(out2, 6.0);
  EXPECT_EQ(runtime.counters().memoized, 0u);
}

TEST(Engine, OffModeNeverInterferes) {
  AtmEngine engine({.mode = AtmMode::Off});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  double in = 1.0, out = 0;
  std::atomic<int> executions{0};
  for (int i = 0; i < 3; ++i) {
    runtime.submit(type, [&] { executions.fetch_add(1); out = in; },
                   {rt::in(&in, 1), rt::out(&out, 1)});
    runtime.taskwait();
  }
  EXPECT_EQ(executions.load(), 3);
  EXPECT_EQ(engine.stats().keys_computed, 0u);
}

TEST(Engine, NonMemoizableTypeBypassed) {
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = false, .atm = {}});
  double in = 1.0, out = 0;
  std::atomic<int> executions{0};
  for (int i = 0; i < 2; ++i) {
    runtime.submit(type, [&] { executions.fetch_add(1); out = in; },
                   {rt::in(&in, 1), rt::out(&out, 1)});
    runtime.taskwait();
  }
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(engine.stats().keys_computed, 0u);
}

TEST(Engine, IktDefersOntoInFlightTwin) {
  AtmEngine engine({.mode = AtmMode::Static, .use_ikt = true});
  Runtime runtime({.num_threads = 2});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "slow", .memoizable = true, .atm = {}});

  std::vector<double> input{4.0};
  double out1 = 0, out2 = 0;
  std::atomic<int> executions{0};
  auto slow_body = [&](double* out) {
    return [&input, out, &executions] {
      executions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      *out = input[0] * 10.0;
    };
  };
  // Both submitted back to back: the second finds the first in flight.
  runtime.submit(type, slow_body(&out1), {rt::in(input.data(), 1), rt::out(&out1, 1)});
  runtime.submit(type, slow_body(&out2), {rt::in(input.data(), 1), rt::out(&out2, 1)});
  runtime.taskwait();

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(out1, 40.0);
  EXPECT_EQ(out2, 40.0);
  EXPECT_EQ(runtime.counters().deferred, 1u);
  EXPECT_EQ(engine.stats().ikt_hits, 1u);
}

TEST(Engine, IktDisabledExecutesTwinsConcurrently) {
  AtmEngine engine({.mode = AtmMode::Static, .use_ikt = false});
  Runtime runtime({.num_threads = 2});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "slow", .memoizable = true, .atm = {}});
  std::vector<double> input{4.0};
  double out1 = 0, out2 = 0;
  std::atomic<int> executions{0};
  auto body = [&](double* out) {
    return [&input, out, &executions] {
      executions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      *out = input[0];
    };
  };
  runtime.submit(type, body(&out1), {rt::in(input.data(), 1), rt::out(&out1, 1)});
  runtime.submit(type, body(&out2), {rt::in(input.data(), 1), rt::out(&out2, 1)});
  runtime.taskwait();
  EXPECT_EQ(executions.load(), 2);  // redundant execution, but correct
  EXPECT_EQ(out1, out2);
}

TEST(Engine, DynamicTrainsThenMemoizes) {
  AtmEngine engine({.mode = AtmMode::Dynamic});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {.l_training = 1, .tau_max = 0.01}});

  std::vector<double> input{2.0, 3.0};
  std::vector<double> outs(4, 0.0);
  std::atomic<int> executions{0};
  auto submit_one = [&](int i) {
    double* out = &outs[i];
    runtime.submit(type,
                   [&input, out, &executions] {
                     executions.fetch_add(1);
                     *out = input[0] + input[1];
                   },
                   {rt::in(input.data(), 2), rt::out(out, 1)});
    runtime.taskwait();
  };
  submit_one(0);  // miss, executes, inserts
  EXPECT_EQ(engine.phase(*type), TrainingPhase::Training);
  submit_one(1);  // training hit: executes, verifies, streak -> steady
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(engine.phase(*type), TrainingPhase::Steady);
  submit_one(2);  // steady hit: memoized
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(outs[2], 5.0);
  EXPECT_EQ(engine.stats().training_hits, 1u);
  EXPECT_EQ(engine.stats().tht_hits, 1u);
  EXPECT_DOUBLE_EQ(engine.current_p(*type), kMinP);  // never had to grow
}

TEST(Engine, DynamicFailureDoublesPAndBlacklists) {
  AtmEngine engine({.mode = AtmMode::Dynamic, .type_aware = true});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "chaotic", .memoizable = true, .atm = {.l_training = 100, .tau_max = 0.01}});

  // Two inputs that differ only in low-order mantissa bytes: at p = 2^-15
  // (1 sampled byte, the MSB) their keys collide, but the task output
  // amplifies the difference -> tau >> tau_max.
  std::vector<double> in_a(8, 1.0);
  std::vector<double> in_b(8, 1.0);
  in_b[7] = 1.0 + 1e-13;
  double out_a = 0, out_b = 0;

  runtime.submit(type, [&] { out_a = (in_a[7] - 1.0) * 1e15; },
                 {rt::in(in_a.data(), 8), rt::out(&out_a, 1)});
  runtime.taskwait();
  runtime.submit(type, [&] { out_b = (in_b[7] - 1.0) * 1e15; },
                 {rt::in(in_b.data(), 8), rt::out(&out_b, 1)});
  runtime.taskwait();

  EXPECT_EQ(engine.stats().training_hits, 1u);
  EXPECT_EQ(engine.stats().training_failures, 1u);
  EXPECT_DOUBLE_EQ(engine.current_p(*type), 2 * kMinP);
  EXPECT_EQ(engine.blacklist_size(*type), 1u);

  // The blacklisted output pointer is never memoized again.
  runtime.submit(type, [&] { out_b = 7.0; },
                 {rt::in(in_b.data(), 8), rt::out(&out_b, 1)});
  runtime.taskwait();
  EXPECT_GE(engine.stats().blacklist_skips, 1u);
  EXPECT_EQ(out_b, 7.0);
}

TEST(Engine, FixedPUsesConstantPImmediately) {
  AtmEngine engine({.mode = AtmMode::FixedP, .fixed_p = 0.25});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  std::vector<double> input{1.0, 2.0, 3.0, 4.0};
  double out1 = 0, out2 = 0;
  std::atomic<int> executions{0};
  auto body = [&](double* o) {
    return [&input, o, &executions] {
      executions.fetch_add(1);
      *o = input[0];
    };
  };
  runtime.submit(type, body(&out1), {rt::in(input.data(), 4), rt::out(&out1, 1)});
  runtime.taskwait();
  runtime.submit(type, body(&out2), {rt::in(input.data(), 4), rt::out(&out2, 1)});
  runtime.taskwait();
  EXPECT_EQ(executions.load(), 1);  // no training phase: hit right away
  EXPECT_EQ(engine.phase(*type), TrainingPhase::Steady);
  EXPECT_DOUBLE_EQ(engine.current_p(*type), 0.25);
}

TEST(Engine, ThtPersistsAcrossTaskwait) {
  // The paper's iterative apps rely on reuse across barriers.
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 2});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  std::vector<float> input(256, 1.5f);
  std::vector<float> out(256);
  std::atomic<int> executions{0};
  for (int round = 0; round < 5; ++round) {
    runtime.submit(type,
                   [&] {
                     executions.fetch_add(1);
                     for (std::size_t i = 0; i < input.size(); ++i) out[i] = 2 * input[i];
                   },
                   {rt::in(input.data(), input.size()), rt::out(out.data(), out.size())});
    runtime.taskwait();
  }
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(runtime.counters().memoized, 4u);
}

TEST(Engine, MemoryAccountingIncludesAllStructures) {
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  const std::size_t before = engine.memory_bytes();
  std::vector<float> input(1024, 1.0f);
  std::vector<float> out(1024);
  runtime.submit(type,
                 [&] {
                   for (std::size_t i = 0; i < out.size(); ++i) out[i] = input[i];
                 },
                 {rt::in(input.data(), 1024), rt::out(out.data(), 1024)});
  runtime.taskwait();
  EXPECT_GE(engine.memory_bytes(), before + 4096);  // snapshot + sampler order
}

// --- tolerance-quantized keys through the engine ---------------------------

TEST(EngineTolerance, JitteredTwinHitsUnderToleranceKeys) {
  AtmEngine engine({.mode = AtmMode::Static, .tolerance_rel = 1e-3});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});

  std::vector<double> a(16), b(16);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1.0 + static_cast<double>(i);
    b[i] = a[i] * (1.0 + 1e-7);  // inside the 1e-3 cell, outside bit equality
  }
  std::vector<double> out1(16), out2(16);
  std::atomic<int> executions{0};
  auto body = [&executions](const std::vector<double>& in, std::vector<double>& out) {
    return [&in, &out, &executions] {
      executions.fetch_add(1);
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = 2.0 * in[i];
    };
  };
  runtime.submit(type, body(a, out1), {rt::in(a.data(), 16), rt::out(out1.data(), 16)});
  runtime.taskwait();
  runtime.submit(type, body(b, out2), {rt::in(b.data(), 16), rt::out(out2.data(), 16)});
  runtime.taskwait();

  EXPECT_EQ(executions.load(), 1);  // the jittered twin was served
  EXPECT_EQ(out1, out2);            // ... with the stored outputs
  EXPECT_EQ(engine.stats().tht_hits, 1u);
  EXPECT_EQ(engine.stats().tolerance_hits, 1u);
  EXPECT_EQ(engine.stats().probe_hits, 0u);  // primary key matched directly
}

TEST(EngineTolerance, NearBoundaryTwinHitsViaProbe) {
  // The first task's element sits just below a quantization boundary, the
  // twin's just above: primary keys differ, the neighbor probe finds it.
  AtmEngine engine(
      {.mode = AtmMode::Static, .tolerance_abs = 0.5, .tolerance_probes = 2});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});

  double a = 7.45, b = 7.55;  // boundary between cells 7 and 8 is at 7.5
  double out1 = 0, out2 = 0;
  std::atomic<int> executions{0};
  runtime.submit(type, [&] { executions.fetch_add(1); out1 = a; },
                 {rt::in(&a, 1), rt::out(&out1, 1)});
  runtime.taskwait();
  runtime.submit(type, [&] { executions.fetch_add(1); out2 = b; },
                 {rt::in(&b, 1), rt::out(&out2, 1)});
  runtime.taskwait();

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(out2, 7.45);  // served from the stored neighbor entry
  EXPECT_EQ(engine.stats().tht_hits, 1u);
  EXPECT_EQ(engine.stats().tolerance_hits, 1u);
  EXPECT_EQ(engine.stats().probe_hits, 1u);
}

TEST(EngineTolerance, PerTypeOverrideForcesExactKeys) {
  // Engine-wide tolerance on, but the type pins tolerance to 0: jittered
  // twins must NOT match (exact raw-byte keys), identical twins still do.
  AtmEngine engine({.mode = AtmMode::Static, .tolerance_rel = 1e-3});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* exact_type = runtime.register_type(
      {.name = "exact",
       .memoizable = true,
       .atm = {.tolerance_rel = 0.0, .tolerance_abs = 0.0}});

  std::vector<double> a(8, 3.0);
  auto b = a;
  for (auto& v : b) v *= 1.0 + 1e-7;
  std::vector<double> out(8);
  std::atomic<int> executions{0};
  auto submit = [&](std::vector<double>& in) {
    runtime.submit(exact_type, [&] { executions.fetch_add(1); },
                   {rt::in(in.data(), 8), rt::out(out.data(), 8)});
    runtime.taskwait();
  };
  submit(a);
  submit(b);  // jittered: must execute
  submit(a);  // exact twin: must hit
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(engine.stats().tht_hits, 1u);
  EXPECT_EQ(engine.stats().tolerance_hits, 0u);  // the hit was an exact one
}

TEST(EngineTolerance, PerTypeOverrideEnablesToleranceKeys) {
  // Engine-wide exact keys, but the type opts into tolerance matching.
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* tol_type = runtime.register_type(
      {.name = "tol", .memoizable = true, .atm = {.tolerance_rel = 1e-3}});

  std::vector<double> a(8, 3.0);
  auto b = a;
  for (auto& v : b) v *= 1.0 + 1e-7;
  std::vector<double> out(8);
  std::atomic<int> executions{0};
  auto submit = [&](std::vector<double>& in) {
    runtime.submit(tol_type, [&] { executions.fetch_add(1); },
                   {rt::in(in.data(), 8), rt::out(out.data(), 8)});
    runtime.taskwait();
  };
  submit(a);
  submit(b);  // inside the cell: must hit
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(engine.stats().tolerance_hits, 1u);
}

TEST(Engine, StatsResetClearsCounters) {
  AtmEngine engine({.mode = AtmMode::Static});
  Runtime runtime({.num_threads = 1});
  runtime.attach_memoizer(&engine);
  const auto* type = runtime.register_type(
      {.name = "t", .memoizable = true, .atm = {}});
  double in = 1, out = 0;
  runtime.submit(type, [&] { out = in; }, {rt::in(&in, 1), rt::out(&out, 1)});
  runtime.taskwait();
  EXPECT_GT(engine.stats().keys_computed, 0u);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().keys_computed, 0u);
  EXPECT_TRUE(engine.stats().reuse_creators.empty());
}

}  // namespace
}  // namespace atm
