// Hash-key input selection (paper §III-B and §III-C).
//
// The task's data inputs are viewed as one concatenated vector of N bytes.
// A vector of N indexes is shuffled once per (task type, input layout) and
// cached; every key computation then selects the first ceil(N*p) indexes.
//
// Plain mode shuffles all indexes uniformly. Type-aware mode first orders
// bytes by significance rank (most significant byte of every element first)
// and shuffles within each rank, so the selected prefix always covers signs
// and exponents before mantissa tails — the paper's §III-C refinement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/hash.hpp"
#include "common/mutex.hpp"
#include "runtime/task.hpp"

namespace atm {

/// Shape of a task's concatenated inputs: sizes and element types of the
/// input regions in declaration order. Two tasks share a shuffled index
/// vector iff their type and layout fingerprints match.
struct InputLayout {
  struct Region {
    std::size_t bytes = 0;
    rt::ElemType elem = rt::ElemType::U8;
  };
  std::vector<Region> regions;

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.bytes;
    return n;
  }

  /// Order-sensitive fingerprint for cache keying.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// fingerprint() of from_task(task), without building the layout: the
  /// engine fingerprints every ready task and builds a layout only when a
  /// type meets a new one.
  [[nodiscard]] static std::uint64_t fingerprint_of(const rt::Task& task) noexcept;

  /// Input regions (In + InOut) of a task, in declaration order.
  [[nodiscard]] static InputLayout from_task(const rt::Task& task);
};

/// Number of selected bytes for a given total and percentage p: the first
/// ceil(total*p) shuffled indexes, at least 1 (§III-B; p in (0, 1]).
[[nodiscard]] std::size_t selection_count(std::size_t total_bytes, double p) noexcept;

/// A precomputed gather: the shuffled index prefix for one (type, layout, p)
/// sorted and coalesced into contiguous (region, offset, length) runs. Key
/// hashing then streams whole spans instead of chasing `count x regions`
/// single-byte lookups — the byte *set* is identical to the shuffled prefix,
/// only the digest order changes (THT keys only ever meet keys computed via
/// the same plan, so the digest convention is free to differ from the
/// per-byte gather's).
struct GatherPlan {
  struct Run {
    std::uint32_t region = 0;  ///< index into the task's input regions
    std::uint32_t offset = 0;  ///< byte offset within that region
    std::uint32_t length = 0;  ///< contiguous byte count
  };
  std::vector<Run> runs;
  std::size_t bytes = 0;  ///< total selected bytes (== selection_count)

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return runs.capacity() * sizeof(Run) + sizeof(*this);
  }
};

/// Build a plan from the first selection_count(total, p) entries of `order`.
/// Indexes past the layout, and those an undersized `order` lacks, become
/// runs past the last region, which compute_key clamps and counts as oob.
/// Exposed for tests and benches; production callers use
/// InputSampler::plan_for, which caches the result.
[[nodiscard]] GatherPlan build_gather_plan(const InputLayout& layout,
                                           const std::vector<std::uint32_t>& order,
                                           double p);

class InputSampler {
 public:
  InputSampler(bool type_aware, std::uint64_t seed)
      : type_aware_(type_aware), seed_(seed) {}

  /// The shuffled byte-index order for (type, layout). Built on first use
  /// ("we shuffle the vector of indexes the first time a task type is
  /// executed and store it in the runtime system"), then shared read-only.
  /// Only plans with p < 1 are cut from it.
  const std::vector<std::uint32_t>& order_for(std::uint32_t type_id,
                                              const InputLayout& layout);

  /// The coalesced gather plan for (type, layout, p), built on first use and
  /// then shared read-only; Dynamic training touches at most kPConfigs
  /// distinct p values per type, so the cache stays small. At p >= 1 every
  /// byte is selected, so the plan is each non-empty region whole, in
  /// declaration order: built in closed form, without the shuffled order
  /// (bit-identical to build_gather_plan(layout, order, 1.0)). Below 1 it is
  /// cut from order_for's prefix.
  const GatherPlan& plan_for(std::uint32_t type_id, const InputLayout& layout,
                             double p);

  [[nodiscard]] bool type_aware() const noexcept { return type_aware_; }

  /// Bytes held by cached index vectors (part of ATM's Table III footprint).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Cached (type, layout) combinations.
  [[nodiscard]] std::size_t cache_entries() const;

  /// Cached (type, layout, p) gather plans.
  [[nodiscard]] std::size_t plan_entries() const;

 private:
  [[nodiscard]] std::vector<std::uint32_t> build_order(std::uint32_t type_id,
                                                       const InputLayout& layout) const;

  bool type_aware_;
  std::uint64_t seed_;
  mutable SharedMutex mutex_;
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::unique_ptr<std::vector<std::uint32_t>>>
      cache_ ATM_GUARDED_BY(mutex_);

  /// Plans keyed by (type, layout fingerprint, bit pattern of p). p values
  /// come from the 16-step training ladder or a caller-fixed constant, so
  /// bitwise identity is the right equality.
  using PlanKey = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>;
  mutable SharedMutex plan_mutex_;
  std::map<PlanKey, std::unique_ptr<GatherPlan>> plans_ ATM_GUARDED_BY(plan_mutex_);
};

}  // namespace atm
