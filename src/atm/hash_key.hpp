// Hash-key computation over the selected subset of a task's input bytes
// (paper §III-B): gathers the bytes a GatherPlan names (the shuffled index
// prefix, sorted and coalesced) and digests them into the 8-byte key stored
// in the THT/IKT.
#pragma once

#include <array>
#include <cstdint>

#include "atm/tolerance.hpp"
#include "common/hash.hpp"
#include "runtime/task.hpp"

namespace atm {

struct GatherPlan;

struct KeyResult {
  HashKey key = 0;
  std::size_t bytes_hashed = 0;
  /// Planned bytes that fell outside the task's actual input bytes (a plan
  /// built for a different layout). Out-of-range runs are clamped and
  /// counted in every build type — never hashed as out-of-bounds reads.
  /// The engine surfaces the count as the `key_gather_oob` stat; nonzero
  /// means a sampler-cache/layout bug.
  std::size_t oob = 0;
  /// Tolerance-mode neighbor keys (near-boundary sampled elements flipped
  /// to their adjacent quantization cell), closest-to-boundary first. Zero
  /// unless computed with an active ToleranceSpec with probes > 0.
  unsigned probe_count = 0;
  std::array<HashKey, kMaxKeyProbes> probes{};
};

/// Compute the hash key of `task` by streaming the precomputed coalesced
/// (region, offset, length) runs of `plan` (InputSampler::plan_for):
/// contiguous HashStream updates, no per-byte region resolution, bytes fed
/// in ascending layout order. `seed` should bind the key space to the task
/// type + layout so equal byte patterns of unrelated types cannot collide
/// structurally. At p >= 1 the plan is one run per non-empty region, so the
/// digest is that of the whole input regions streamed in declaration order.
[[nodiscard]] KeyResult compute_key(const rt::Task& task, const GatherPlan& plan,
                                    std::uint64_t seed);

/// Tolerance-quantized variant (src/atm/tolerance.hpp): every *element*
/// touched by the planned bytes is quantized into an error-bounded cell and
/// XOR-composed into the key, so near-equal inputs produce equal keys and
/// the digest does not depend on the order elements are gathered in.
/// Near-boundary elements emit up to spec.probes neighbor keys
/// (KeyResult::probes) for multi-probe THT lookup. An inactive spec
/// delegates to the exact raw-bytes digest (the epsilon = 0 fast path):
/// bit-identical keys, no per-element work.
[[nodiscard]] KeyResult compute_key(const rt::Task& task, const GatherPlan& plan,
                                    std::uint64_t seed, const ToleranceSpec& spec);

}  // namespace atm
