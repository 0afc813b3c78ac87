// Property tests for tolerance-quantized memo keys (src/atm/tolerance.hpp,
// the tolerance overloads of compute_key):
//
//  * quantization guarantees — inputs within epsilon of a cell center share
//    the cell; inputs separated by more than a full cell never do; special
//    value classes (NaN/Inf/denormal/zero) never alias finite normals;
//  * key-level consequences — near-equal tasks get equal keys, clearly
//    separated tasks get different keys w.h.p.;
//  * epsilon = 0 is bit-identical to the exact raw-bytes digest;
//  * the FULL KeyResult (primary key and probe list) in tolerance mode
//    depends only on the elements a plan touches — not on the order the
//    selected bytes came in, which of an element's bytes were selected, or
//    how the runs are chunked — unlike the exact digest;
//  * near-boundary values emit a probe list that contains the neighboring
//    cell's primary key (the multi-probe containment property).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "atm/hash_key.hpp"
#include "atm/input_sampler.hpp"
#include "atm/tolerance.hpp"
#include "common/rng.hpp"

namespace atm {
namespace {

constexpr std::uint64_t kSeed = 0x5eedULL;

rt::Task make_task(const double* data, std::size_t n) {
  rt::Task t;
  t.accesses.push_back(rt::in(data, n));
  return t;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

Quantized quant(double v, const ToleranceSpec& spec, bool subnormal = false) {
  return quantize_value(v, bits_of(v), spec, subnormal);
}

/// The same bytes as `plan`, gathered one byte per run.
GatherPlan split_into_bytes(const GatherPlan& plan) {
  GatherPlan out;
  for (const auto& run : plan.runs) {
    for (std::uint32_t k = 0; k < run.length; ++k) {
      out.runs.push_back({run.region, run.offset + k, 1});
    }
  }
  out.bytes = plan.bytes;
  return out;
}

/// `plan` with every run widened to the whole elements it touches: other
/// bytes, the same element set.
GatherPlan widen_to_elements(const GatherPlan& plan, const InputLayout& layout) {
  GatherPlan out;
  for (const auto& run : plan.runs) {
    const auto& region = layout.regions[run.region];
    const std::size_t esize = rt::elem_size(region.elem);
    const std::size_t begin = run.offset / esize * esize;
    const std::size_t end = std::min(
        region.bytes, (run.offset + run.length + esize - 1) / esize * esize);
    if (!out.runs.empty() && out.runs.back().region == run.region &&
        out.runs.back().offset + out.runs.back().length >= begin) {
      out.runs.back().length = static_cast<std::uint32_t>(end - out.runs.back().offset);
    } else {
      out.runs.push_back({run.region, static_cast<std::uint32_t>(begin),
                          static_cast<std::uint32_t>(end - begin)});
    }
  }
  for (const auto& run : out.runs) out.bytes += run.length;
  return out;
}

void expect_same_key_result(const KeyResult& a, const KeyResult& b, const char* what,
                            double p) {
  EXPECT_EQ(a.key, b.key) << what << " p=" << p;
  EXPECT_EQ(a.bytes_hashed, b.bytes_hashed) << what << " p=" << p;
  ASSERT_EQ(a.probe_count, b.probe_count) << what << " p=" << p;
  for (unsigned i = 0; i < a.probe_count; ++i) {
    EXPECT_EQ(a.probes[i], b.probes[i]) << what << " p=" << p;
  }
}

// --- quantize_value: grid guarantees ---------------------------------------

TEST(ToleranceQuantize, AbsoluteWithinEpsilonOfCenterSharesCell) {
  const ToleranceSpec spec{.abs = 1e-3};
  Rng rng(kSeed);
  for (int i = 0; i < 2000; ++i) {
    // Random cell center k * 2*eps, jittered strictly inside +-eps.
    const double center =
        static_cast<double>(static_cast<std::int64_t>(rng.next_below(2'000'001)) -
                            1'000'000) *
        2.0 * spec.abs;
    const double jitter = rng.next_double(-0.99, 0.99) * spec.abs;
    EXPECT_EQ(quant(center, spec).cell, quant(center + jitter, spec).cell)
        << center << " + " << jitter;
  }
}

TEST(ToleranceQuantize, AbsoluteSeparationBeyondTwoEpsilon) {
  const ToleranceSpec spec{.abs = 1e-3};
  Rng rng(kSeed + 1);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.next_double(-50.0, 50.0);
    const double gap = rng.next_double(2.001, 10.0) * spec.abs;
    EXPECT_NE(quant(a, spec).cell, quant(a + gap, spec).cell) << a << " gap " << gap;
  }
}

TEST(ToleranceQuantize, RelativeWithinEpsilonOfCenterSharesCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 2);
  for (int i = 0; i < 2000; ++i) {
    // Random cell center ratio^k, jittered by a factor strictly inside
    // (1/(1+eps), 1+eps) — the cell's log-space half-width is log1p(eps).
    const auto k = static_cast<int>(rng.next_below(201)) - 100;
    const double sign = rng.next_below(2) != 0 ? -1.0 : 1.0;
    const double center = sign * std::pow(ratio, k);
    const double factor = 1.0 + rng.next_double(-0.9, 0.9) * spec.rel;
    EXPECT_EQ(quant(center, spec).cell, quant(center * factor, spec).cell)
        << center << " * " << factor;
  }
}

TEST(ToleranceQuantize, RelativeSeparationBeyondCellRatio) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 3);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.next_double(1e-6, 1e6);
    const double factor = ratio * rng.next_double(1.001, 3.0);
    EXPECT_NE(quant(a, spec).cell, quant(a * factor, spec).cell) << a << " * " << factor;
  }
}

TEST(ToleranceQuantize, RelativeSignsNeverAlias) {
  const ToleranceSpec spec{.rel = 1e-2};
  for (double v : {1.0, 0.5, 123.25, 1e-9, 7e11}) {
    EXPECT_NE(quant(v, spec).cell, quant(-v, spec).cell) << v;
  }
}

// --- quantize_value: special classes stay isolated -------------------------

TEST(ToleranceQuantize, SpecialClassesNeverAliasFiniteNormals) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const ToleranceSpec spec : {ToleranceSpec{.rel = 1e-3}, ToleranceSpec{.abs = 1e-3}}) {
    std::vector<std::uint64_t> specials{quant(nan, spec).cell, quant(inf, spec).cell,
                                        quant(-inf, spec).cell,
                                        quant(denorm, spec, true).cell};
    Rng rng(kSeed + 4);
    for (int i = 0; i < 500; ++i) {
      const double v = rng.next_double(-1e9, 1e9);
      if (v == 0.0) continue;
      const std::uint64_t cell = quant(v, spec).cell;
      for (std::uint64_t s : specials) EXPECT_NE(cell, s) << v;
    }
    // The classes are also distinct from each other.
    for (std::size_t i = 0; i < specials.size(); ++i) {
      for (std::size_t j = i + 1; j < specials.size(); ++j) {
        EXPECT_NE(specials[i], specials[j]) << i << " vs " << j;
      }
    }
  }
}

TEST(ToleranceQuantize, AllNansShareOneCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(quant(qnan, spec).cell, quant(-qnan, spec).cell);
  EXPECT_EQ(quant(qnan, spec).cell, quant(snan, spec).cell);
}

TEST(ToleranceQuantize, DenormalsMatchExactly) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double d1 = std::numeric_limits<double>::denorm_min();
  const double d2 = 2.0 * d1;
  EXPECT_EQ(quant(d1, spec, true).cell, quant(d1, spec, true).cell);
  EXPECT_NE(quant(d1, spec, true).cell, quant(d2, spec, true).cell);
}

TEST(ToleranceQuantize, RelativeZeroGetsItsOwnCell) {
  const ToleranceSpec spec{.rel = 1e-3};
  EXPECT_NE(quant(0.0, spec).cell, quant(1e-300, spec).cell);
  EXPECT_EQ(quant(0.0, spec).cell, quant(-0.0, spec).cell);
}

TEST(ToleranceQuantize, AbsoluteZeroSharesCellZeroWithTinyValues) {
  // The absolute grid treats zero like any grid value: cell 0 covers
  // (-eps, eps), so a tiny value within eps matches zero — by design.
  const ToleranceSpec spec{.abs = 1e-3};
  EXPECT_EQ(quant(0.0, spec).cell, quant(0.5e-3, spec).cell);
}

TEST(ToleranceQuantize, NeighborIsTheAdjacentCell) {
  const ToleranceSpec spec{.abs = 0.5};
  // 0.9 lives in cell 1 (center 1.0, width 1.0), below center: neighbor is
  // cell 0; 1.2 is above center: neighbor is cell 2.
  const Quantized below = quant(0.9, spec);
  const Quantized above = quant(1.2, spec);
  ASSERT_TRUE(below.probeable);
  ASSERT_TRUE(above.probeable);
  EXPECT_EQ(below.neighbor, quant(0.1, spec).cell);
  EXPECT_EQ(above.neighbor, quant(2.1, spec).cell);
  EXPECT_EQ(below.cell, above.cell);
}

// --- key level: epsilon = 0 delegates to the exact digest ------------------

TEST(ToleranceKey, InactiveSpecIsBitIdenticalToExactKeys) {
  std::vector<double> a(96);
  Rng rng(kSeed + 5);
  for (auto& v : a) v = rng.next_double(-10.0, 10.0);
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(t);
  const ToleranceSpec off{};  // rel = abs = 0
  for (double p : {1.0, 0.5, 0.125, 1.0 / 4096}) {
    const GatherPlan& plan = sampler.plan_for(0, layout, p);
    const auto exact = compute_key(t, plan, 9);
    const auto tol = compute_key(t, plan, 9, off);
    EXPECT_EQ(exact.key, tol.key) << p;
    EXPECT_EQ(exact.bytes_hashed, tol.bytes_hashed) << p;
    EXPECT_EQ(tol.probe_count, 0u) << p;
  }
}

// --- key level: near-equal inputs, equal keys ------------------------------

TEST(ToleranceKey, InputsWithinEpsilonOfCentersGetEqualKeys) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  Rng rng(kSeed + 6);
  std::vector<double> a(64), b(64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Both tasks sit in the same cell: center ratio^k times a sub-epsilon
    // factor each.
    const auto k = static_cast<int>(rng.next_below(41)) - 20;
    const double center = std::pow(ratio, k);
    a[i] = center * (1.0 + rng.next_double(-0.9, 0.9) * spec.rel);
    b[i] = center * (1.0 + rng.next_double(-0.9, 0.9) * spec.rel);
  }
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  for (double p : {1.0, 0.5, 1.0 / 64}) {
    const GatherPlan& plan = sampler.plan_for(0, layout, p);
    EXPECT_EQ(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key)
        << p;
  }
}

TEST(ToleranceKey, SeparatedCoordinateChangesKey) {
  // Two tasks identical except one sampled coordinate separated by more
  // than a full cell must get different keys (w.h.p. — equality would need
  // a 64-bit XOR coincidence).
  const ToleranceSpec spec{.abs = 1e-3};
  std::vector<double> a(64, 1.0);
  auto b = a;
  b[17] += 3.0 * spec.abs;
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  // p = 1: every element (incl. index 17) is sampled.
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(ta), 1.0);
  EXPECT_NE(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
}

TEST(ToleranceKey, SeedSeparatesKeySpaces) {
  const ToleranceSpec spec{.rel = 1e-3};
  std::vector<double> a(32, 2.5);
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(t), 1.0);
  EXPECT_NE(compute_key(t, plan, 1, spec).key, compute_key(t, plan, 2, spec).key);
}

TEST(ToleranceKey, FingerprintChangesWithEpsilon) {
  const ToleranceSpec a{.rel = 1e-3};
  const ToleranceSpec b{.rel = 2e-3};
  const ToleranceSpec c{.abs = 1e-3};
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(ToleranceSpec{}.fingerprint(), 0u);
}

// --- key level: the element set decides, not the gather --------------------

TEST(ToleranceKey, GatherOrderAndGranularityDoNotChangeFullKeyResult) {
  // The Zobrist XOR digest depends only on the elements a plan touches: a
  // plan cut from a reordered selection prefix, the same bytes gathered one
  // per run, and runs widened to whole elements must all produce the same
  // primary key AND the same probe list, at every p.
  const ToleranceSpec spec{.rel = 1e-3, .probes = 4};
  Rng rng(kSeed + 7);
  for (int round = 0; round < 8; ++round) {
    std::vector<double> a(16 + rng.next_below(200));
    for (auto& v : a) v = rng.next_double(-100.0, 100.0);
    const auto t = make_task(a.data(), a.size());
    InputSampler sampler(round % 2 == 0, 1 + round);
    const auto layout = InputLayout::from_task(t);
    for (double p : {1.0, 0.5, 0.25, 1.0 / 128}) {
      const GatherPlan& plan = sampler.plan_for(0, layout, p);
      const auto base = compute_key(t, plan, 9, spec);

      auto reordered = sampler.order_for(0, layout);
      const auto count = static_cast<std::ptrdiff_t>(plan.bytes);
      std::reverse(reordered.begin(), reordered.begin() + count);
      expect_same_key_result(
          base, compute_key(t, build_gather_plan(layout, reordered, p), 9, spec),
          "reordered", p);
      expect_same_key_result(base, compute_key(t, split_into_bytes(plan), 9, spec),
                             "byte runs", p);
      expect_same_key_result(
          base, compute_key(t, widen_to_elements(plan, layout), 9, spec), "widened", p);
    }
  }
}

TEST(ToleranceKey, MultiRegionGatherGranularityDoesNotChangeKey) {
  const ToleranceSpec spec{.abs = 1e-2, .probes = 8};
  std::vector<double> x(31), y(17);
  std::vector<float> z(53);
  Rng rng(kSeed + 8);
  for (auto& v : x) v = rng.next_double(-5.0, 5.0);
  for (auto& v : y) v = rng.next_double(-5.0, 5.0);
  for (auto& v : z) v = rng.next_float(-5.0f, 5.0f);
  rt::Task t;
  t.accesses.push_back(rt::in(x.data(), x.size()));
  t.accesses.push_back(rt::in(z.data(), z.size()));
  t.accesses.push_back(rt::in(y.data(), y.size()));
  InputSampler sampler(true, 3);
  const auto layout = InputLayout::from_task(t);
  for (double p : {1.0, 0.3, 1.0 / 64}) {
    const GatherPlan& plan = sampler.plan_for(0, layout, p);
    const auto base = compute_key(t, plan, 9, spec);
    expect_same_key_result(base, compute_key(t, split_into_bytes(plan), 9, spec),
                           "byte runs", p);
    expect_same_key_result(
        base, compute_key(t, widen_to_elements(plan, layout), 9, spec), "widened", p);
  }
}

// --- multi-probe: neighbor containment -------------------------------------

TEST(ToleranceProbe, NearBoundaryProbesContainNeighborPrimaryKey) {
  // Task A has one element just below a cell boundary; task B is identical
  // except that element sits just above it. A's probe list must contain B's
  // primary key (and vice versa): the multi-probe lookup finds the entry a
  // jittered twin published one cell over.
  const ToleranceSpec spec{.abs = 1e-3, .probes = 4};
  std::vector<double> a(32, 10.0);  // 10.0 = 5000 * 2e-3: dead center, stable
  auto b = a;
  const double boundary = 2.0 * spec.abs * 7.5;  // between cells 7 and 8
  a[5] = boundary - 0.1 * spec.abs;
  b[5] = boundary + 0.1 * spec.abs;
  const auto ta = make_task(a.data(), a.size());
  const auto tb = make_task(b.data(), b.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  const auto ka = compute_key(ta, plan, 9, spec);
  const auto kb = compute_key(tb, plan, 9, spec);
  ASSERT_NE(ka.key, kb.key);
  ASSERT_GT(ka.probe_count, 0u);
  ASSERT_GT(kb.probe_count, 0u);
  bool a_probes_b = false;
  for (unsigned i = 0; i < ka.probe_count; ++i) a_probes_b |= ka.probes[i] == kb.key;
  bool b_probes_a = false;
  for (unsigned i = 0; i < kb.probe_count; ++i) b_probes_a |= kb.probes[i] == ka.key;
  EXPECT_TRUE(a_probes_b);
  EXPECT_TRUE(b_probes_a);
}

TEST(ToleranceProbe, ProbeCountRespectsSpecAndCandidates) {
  const double step = 2e-3;  // cell width for abs = 1e-3
  std::vector<double> a(64);
  // Every element sits at 0.4 cell widths off its center — inside the probe
  // band, so all 64 are candidates and the top-K ranking caps the list.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = (static_cast<double>(i) + 0.4) * step;
  }
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(t);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  for (unsigned probes : {0u, 1u, 4u, 8u, 100u}) {
    const ToleranceSpec spec{.abs = 1e-3, .probes = probes};
    const auto k = compute_key(t, plan, 9, spec);
    // 64 candidates are available, so the list fills to the clamped cap.
    EXPECT_EQ(k.probe_count, spec.clamped_probes()) << probes;
    // Each probe key differs from the primary (it flips one cell).
    for (unsigned i = 0; i < k.probe_count; ++i) EXPECT_NE(k.probes[i], k.key);
  }
}

TEST(ToleranceProbe, CenteredElementsEmitNoProbes) {
  // Every element exactly at a cell center (|frac| = 0 < the probe band):
  // no probe candidates at all.
  const ToleranceSpec spec{.abs = 0.5, .probes = 8};
  std::vector<double> a(32);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);  // centers
  const auto t = make_task(a.data(), a.size());
  InputSampler sampler(true, 1);
  const GatherPlan& plan = sampler.plan_for(0, InputLayout::from_task(t), 1.0);
  EXPECT_EQ(compute_key(t, plan, 9, spec).probe_count, 0u);
}

// --- integers under tolerance: exact per-element cells ---------------------

TEST(ToleranceKey, IntegerElementsStayExact) {
  const ToleranceSpec spec{.rel = 0.5, .probes = 4};  // huge epsilon
  std::vector<std::int32_t> a(64, 41);
  auto b = a;
  b[9] = 42;  // off by one: integers never quantize, keys must differ
  rt::Task ta, tb;
  ta.accesses.push_back(rt::in(a.data(), a.size()));
  tb.accesses.push_back(rt::in(b.data(), b.size()));
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_NE(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
  // Identical integer tasks agree, whichever of their bytes are gathered.
  const auto ka = compute_key(ta, plan, 9, spec);
  EXPECT_EQ(ka.key, compute_key(ta, sampler.plan_for(0, layout, 0.25), 9, spec).key);
  EXPECT_EQ(ka.probe_count, 0u);  // integers are never probe candidates
}

TEST(ToleranceKey, Float32ElementsQuantize) {
  const ToleranceSpec spec{.rel = 1e-3};
  const double ratio = (1.0 + spec.rel) * (1.0 + spec.rel);
  std::vector<float> a(64);
  // Anchor every value at a cell center (an arbitrary offset can sit close
  // enough to a boundary for even a tiny jitter to cross it).
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(std::pow(ratio, static_cast<int>(i) - 32));
  }
  auto b = a;
  for (auto& v : b) v *= 1.0f + 1e-5f;  // well inside the 1e-3 cell half-width
  rt::Task ta, tb;
  ta.accesses.push_back(rt::in(a.data(), a.size()));
  tb.accesses.push_back(rt::in(b.data(), b.size()));
  InputSampler sampler(true, 1);
  const auto layout = InputLayout::from_task(ta);
  const GatherPlan& plan = sampler.plan_for(0, layout, 1.0);
  EXPECT_EQ(compute_key(ta, plan, 9, spec).key, compute_key(tb, plan, 9, spec).key);
  // The exact digest disagrees on the same inputs — the point of the mode.
  EXPECT_NE(compute_key(ta, plan, 9).key, compute_key(tb, plan, 9).key);
}

}  // namespace
}  // namespace atm
