#include "atm/hash_key.hpp"

#include <algorithm>
#include <cstring>

#include "atm/input_sampler.hpp"

namespace atm {

namespace {

// --- tolerance-quantized keys (src/atm/tolerance.hpp) ------------------------

/// Only elements whose quantized position is at least this far from the cell
/// center (in cell widths, max 0.5 at the boundary) become probe candidates:
/// an element sitting mid-cell cannot have drifted in from a neighbor cell
/// under any in-tolerance jitter, so probing it would be wasted lookups.
constexpr double kProbeBand = 0.25;

/// Zobrist XOR accumulator for tolerance-mode keys. Since XOR commutes, the
/// digest does not depend on the order elements are fed in; the probe
/// ranking below breaks |frac| ties by feed order, and compute_key always
/// feeds in ascending layout order, so the probe list is deterministic too.
class QuantAccumulator {
 public:
  QuantAccumulator(std::uint64_t seed, const ToleranceSpec& spec) noexcept
      : seed_(seed), spec_(spec), max_probes_(spec.clamped_probes()) {}

  /// Feed one element. `global_off` is the byte offset of the element start
  /// in the concatenated-inputs view (the position salt). Elements of
  /// non-float regions and partial trailing float elements match exactly
  /// via their raw bits.
  void add(rt::ElemType elem, const std::uint8_t* data, std::size_t avail,
           std::size_t global_off) noexcept {
    std::uint64_t raw = 0;
    std::memcpy(&raw, data, avail < 8 ? avail : 8);
    const std::uint64_t pos =
        splitmix64(seed_ ^ (static_cast<std::uint64_t>(global_off) *
                            0x9e3779b97f4a7c15ull));
    Quantized q;
    if (elem == rt::ElemType::F64 && avail == 8) {
      double v;
      std::memcpy(&v, data, 8);
      q = quantize_value(v, raw, spec_);
    } else if (elem == rt::ElemType::F32 && avail >= 4) {
      float f;
      std::memcpy(&f, data, 4);
      q = quantize_value(static_cast<double>(f), raw, spec_,
                         std::fpclassify(f) == FP_SUBNORMAL);
    } else {
      q.cell = splitmix64(raw ^ (static_cast<std::uint64_t>(avail) << 56));
    }
    const std::uint64_t contrib = splitmix64(pos ^ splitmix64(q.cell));
    acc_ ^= contrib;
    ++count_;

    if (max_probes_ == 0 || !q.probeable) return;
    const double score = q.frac < 0.0 ? -q.frac : q.frac;
    if (score < kProbeBand) return;
    if (cand_count_ == max_probes_ && score <= cands_[cand_count_ - 1].score) return;
    // Keep the candidate list sorted: closest to the boundary first, feed
    // order breaking ties (insertion into <= kMaxKeyProbes slots).
    const Candidate c{score, contrib ^ splitmix64(pos ^ splitmix64(q.neighbor))};
    unsigned i = cand_count_ < max_probes_ ? cand_count_++ : max_probes_ - 1;
    for (; i > 0 && cands_[i - 1].score < score; --i) cands_[i] = cands_[i - 1];
    cands_[i] = c;
  }

  [[nodiscard]] KeyResult finalize(std::size_t bytes_hashed,
                                   std::size_t oob) const noexcept {
    KeyResult r;
    // Mix the element count into the base so {x} and {x, x-at-same-cell...}
    // style prefix layouts cannot alias; the base is probe-invariant.
    r.key = splitmix64(seed_ ^ splitmix64(count_)) ^ acc_;
    r.bytes_hashed = bytes_hashed;
    r.oob = oob;
    r.probe_count = cand_count_;
    // A probe key flips exactly one near-boundary element to its adjacent
    // cell: XOR out the element's contribution, XOR in the neighbor's.
    for (unsigned i = 0; i < cand_count_; ++i) r.probes[i] = r.key ^ cands_[i].delta;
    return r;
  }

 private:
  struct Candidate {
    double score = 0.0;    ///< |frac|: distance from cell center
    std::uint64_t delta = 0;  ///< contrib(cell) ^ contrib(neighbor)
  };

  std::uint64_t seed_;
  const ToleranceSpec& spec_;
  unsigned max_probes_;
  std::uint64_t acc_ = 0;
  std::uint64_t count_ = 0;
  unsigned cand_count_ = 0;
  std::array<Candidate, kMaxKeyProbes> cands_{};
};

}  // namespace

KeyResult compute_key(const rt::Task& task, const GatherPlan& plan,
                      std::uint64_t seed) {
  HashStream stream(seed);

  // Runs are sorted by (region, offset) by construction, so one lockstep
  // walk over the task's input regions consumes them all — no allocation,
  // no per-byte region resolution. Sampled selections produce mostly short
  // runs (type-aware mode picks stride-elem_size MSB positions), so short
  // runs are gathered into a staging block first and hashed in bulk: the
  // HashStream per-call cost is paid per ~4 KiB, not per run.
  std::uint8_t staging[4096];
  std::size_t fill = 0;
  auto flush = [&] {
    stream.update(std::span<const std::uint8_t>(staging, fill));
    fill = 0;
  };

  std::size_t run_idx = 0;
  std::size_t oob = 0;
  std::size_t hashed = 0;
  std::uint32_t region = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_input()) continue;
    const auto* base = static_cast<const std::uint8_t*>(a.ptr);
    while (run_idx < plan.runs.size() && plan.runs[run_idx].region == region) {
      const GatherPlan::Run& run = plan.runs[run_idx++];
      // A run reaching past its region means the plan was built for another
      // layout: clamp to the region's real extent and count the shortfall
      // (key_gather_oob) instead of hashing out-of-bounds bytes — in every
      // build type, not just when asserts are on.
      std::size_t offset = run.offset;
      std::size_t length = run.length;
      if (offset >= a.bytes) {
        oob += length;
        continue;
      }
      if (offset + length > a.bytes) {
        oob += offset + length - a.bytes;
        length = a.bytes - offset;
      }
      hashed += length;
      if (length == 1) {
        // Dominant case under type-aware sampling: the selection is the MSB
        // of every element, stride elem_size apart — nothing coalesces.
        if (fill == sizeof staging) flush();
        staging[fill++] = base[offset];
        continue;
      }
      if (length >= sizeof staging / 4) {
        // Long run (contiguous selection / p near 1): stream it directly.
        if (fill != 0) flush();
        stream.update(std::span<const std::uint8_t>(base + offset, length));
        continue;
      }
      if (fill + length > sizeof staging) flush();
      std::memcpy(staging + fill, base + offset, length);
      fill += length;
    }
    ++region;
  }
  if (fill != 0) flush();
  // Leftover runs name regions the task does not have: count, don't touch.
  for (; run_idx < plan.runs.size(); ++run_idx) oob += plan.runs[run_idx].length;
  return {stream.finalize(), hashed, oob};
}

KeyResult compute_key(const rt::Task& task, const GatherPlan& plan,
                      std::uint64_t seed, const ToleranceSpec& spec) {
  if (!spec.active()) return compute_key(task, plan, seed);  // raw-bytes fast path

  QuantAccumulator acc(seed, spec);
  std::size_t run_idx = 0;
  std::size_t oob = 0;
  std::size_t hashed = 0;
  std::uint32_t region = 0;
  std::size_t region_base = 0;  // global offset of this region's first byte
  for (const auto& a : task.accesses) {
    if (!a.is_input()) continue;
    const auto* base = static_cast<const std::uint8_t*>(a.ptr);
    const std::size_t esize = rt::elem_size(a.elem);
    // First element of this region not yet fed: runs ascend by offset, so a
    // run whose first element was already consumed by the previous run must
    // skip it — feeding an element twice would XOR its contribution away.
    std::size_t next_elem = 0;
    while (run_idx < plan.runs.size() && plan.runs[run_idx].region == region) {
      const GatherPlan::Run& run = plan.runs[run_idx++];
      // Same clamp-and-count discipline as the exact path: a run reaching
      // past the region means the plan was built for another layout.
      std::size_t offset = run.offset;
      std::size_t length = run.length;
      if (offset >= a.bytes) {
        oob += length;
        continue;
      }
      if (offset + length > a.bytes) {
        oob += offset + length - a.bytes;
        length = a.bytes - offset;
      }
      // Widen the sampled byte range to the elements it touches: the cell
      // of an element is a function of its full value, not of which of its
      // bytes the shuffle happened to select.
      std::size_t first = offset / esize;
      const std::size_t last = (offset + length - 1) / esize;
      if (first < next_elem) first = next_elem;
      for (std::size_t e = first; e <= last && e * esize < a.bytes; ++e) {
        const std::size_t start = e * esize;
        const std::size_t avail = std::min(esize, a.bytes - start);
        acc.add(a.elem, base + start, avail, region_base + start);
        hashed += avail;
      }
      if (last + 1 > next_elem) next_elem = last + 1;
    }
    region_base += a.bytes;
    ++region;
  }
  for (; run_idx < plan.runs.size(); ++run_idx) oob += plan.runs[run_idx].length;
  return acc.finalize(hashed, oob);
}

}  // namespace atm
