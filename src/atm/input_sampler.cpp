#include "atm/input_sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/rng.hpp"

namespace atm {

namespace {

constexpr std::uint64_t kFingerprintBasis = 0x1a7a5ced5eedULL;

std::uint64_t fingerprint_step(std::uint64_t h, std::size_t bytes,
                               rt::ElemType elem) noexcept {
  h = splitmix64(h ^ bytes);
  return splitmix64(h ^ static_cast<std::uint64_t>(elem));
}

/// The p >= 1 plan: every byte is selected, so the sorted selection splits
/// into exactly one whole run per non-empty region.
GatherPlan full_input_plan(const InputLayout& layout) {
  GatherPlan plan;
  for (std::size_t r = 0; r < layout.regions.size(); ++r) {
    const std::size_t bytes = layout.regions[r].bytes;
    if (bytes == 0) continue;
    plan.runs.push_back({static_cast<std::uint32_t>(r), 0,
                         static_cast<std::uint32_t>(bytes)});
    plan.bytes += bytes;
  }
  plan.runs.shrink_to_fit();
  return plan;
}

}  // namespace

std::uint64_t InputLayout::fingerprint() const noexcept {
  std::uint64_t h = kFingerprintBasis;
  for (const auto& r : regions) h = fingerprint_step(h, r.bytes, r.elem);
  return h;
}

std::uint64_t InputLayout::fingerprint_of(const rt::Task& task) noexcept {
  std::uint64_t h = kFingerprintBasis;
  for (const auto& a : task.accesses) {
    if (a.is_input()) h = fingerprint_step(h, a.bytes, a.elem);
  }
  return h;
}

InputLayout InputLayout::from_task(const rt::Task& task) {
  InputLayout layout;
  for (const auto& a : task.accesses) {
    if (a.is_input()) layout.regions.push_back({a.bytes, a.elem});
  }
  return layout;
}

std::size_t selection_count(std::size_t total_bytes, double p) noexcept {
  if (total_bytes == 0) return 0;
  if (p >= 1.0) return total_bytes;
  const auto n = static_cast<std::size_t>(
      std::ceil(static_cast<double>(total_bytes) * p));
  return std::max<std::size_t>(1, std::min(n, total_bytes));
}

GatherPlan build_gather_plan(const InputLayout& layout,
                             const std::vector<std::uint32_t>& order, double p) {
  GatherPlan plan;
  const std::size_t total = layout.total_bytes();
  const std::size_t count = selection_count(total, p);
  plan.bytes = count;
  if (count == 0) return plan;

  // Sort the selected prefix: the hash no longer needs the shuffled order
  // (any fixed convention works, keys only meet same-plan keys), and sorted
  // indexes coalesce into contiguous runs. Indexes an undersized order
  // lacks read as `total`, one past the layout.
  std::vector<std::uint32_t> selected(count, static_cast<std::uint32_t>(total));
  std::copy_n(order.begin(), std::min(count, order.size()), selected.begin());
  std::sort(selected.begin(), selected.end());

  // Region boundaries as global offsets, for splitting runs per region.
  std::vector<std::size_t> region_begin;
  region_begin.reserve(layout.regions.size());
  std::size_t off = 0;
  for (const auto& r : layout.regions) {
    region_begin.push_back(off);
    off += r.bytes;
  }

  std::size_t region = 0;
  for (std::size_t i = 0; i < selected.size();) {
    // Find the region holding selected[i] (indexes ascend, so the region
    // cursor only moves forward — the whole build is O(count + regions)).
    while (region + 1 < region_begin.size() && selected[i] >= region_begin[region + 1]) {
      ++region;
    }
    const std::size_t region_end =
        region_begin[region] + layout.regions[region].bytes;
    // Extend the run while indexes stay consecutive and inside the region.
    std::size_t j = i + 1;
    while (j < selected.size() && selected[j] == selected[j - 1] + 1 &&
           selected[j] < region_end) {
      ++j;
    }
    plan.runs.push_back({static_cast<std::uint32_t>(region),
                         static_cast<std::uint32_t>(selected[i] - region_begin[region]),
                         static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  plan.runs.shrink_to_fit();
  return plan;
}

const GatherPlan& InputSampler::plan_for(std::uint32_t type_id,
                                         const InputLayout& layout, double p) {
  // p >= 1 selects everything; collapse all such values onto one cache slot.
  const double effective_p = p >= 1.0 ? 1.0 : p;
  const PlanKey key{type_id, layout.fingerprint(),
                    std::bit_cast<std::uint64_t>(effective_p)};
  {
    SharedReadLock lock(plan_mutex_);
    auto it = plans_.find(key);
    if (it != plans_.end()) return *it->second;
  }
  auto plan = std::make_unique<GatherPlan>(
      effective_p >= 1.0
          ? full_input_plan(layout)
          : build_gather_plan(layout, order_for(type_id, layout), effective_p));
  SharedWriteLock lock(plan_mutex_);
  auto [it, inserted] = plans_.emplace(key, std::move(plan));
  (void)inserted;  // a racing builder may have won; theirs is equivalent
  return *it->second;
}

const std::vector<std::uint32_t>& InputSampler::order_for(std::uint32_t type_id,
                                                          const InputLayout& layout) {
  const auto key = std::make_pair(type_id, layout.fingerprint());
  {
    SharedReadLock lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return *it->second;
  }
  auto order = std::make_unique<std::vector<std::uint32_t>>(build_order(type_id, layout));
  SharedWriteLock lock(mutex_);
  auto [it, inserted] = cache_.emplace(key, std::move(order));
  (void)inserted;  // a racing builder may have won; theirs is equivalent
  return *it->second;
}

std::vector<std::uint32_t> InputSampler::build_order(std::uint32_t type_id,
                                                     const InputLayout& layout) const {
  const std::size_t total = layout.total_bytes();
  std::vector<std::uint32_t> order(total);
  Rng rng(splitmix64(seed_ ^ (static_cast<std::uint64_t>(type_id) << 32) ^
                     layout.fingerprint()));

  if (!type_aware_) {
    for (std::size_t i = 0; i < total; ++i) order[i] = static_cast<std::uint32_t>(i);
    rng.shuffle(order);
    return order;
  }

  // Type-aware (§III-C): rank 0 = most significant byte of each element.
  // Little-endian: byte (elem_size-1) within an element is the MSB, so
  // rank = elem_size - 1 - offset_within_element.
  std::vector<std::vector<std::uint32_t>> by_rank(8);
  std::size_t base = 0;
  for (const auto& region : layout.regions) {
    const std::size_t esize = rt::elem_size(region.elem);
    for (std::size_t off = 0; off < region.bytes; ++off) {
      const std::size_t within = off % esize;
      // Trailing partial element (region not a multiple of the element
      // size): treat bytes positionally, same formula still applies.
      const std::size_t rank = esize - 1 - within;
      by_rank[rank].push_back(static_cast<std::uint32_t>(base + off));
    }
    base += region.bytes;
  }
  order.clear();
  order.reserve(total);
  for (auto& bucket : by_rank) {
    rng.shuffle(bucket);
    order.insert(order.end(), bucket.begin(), bucket.end());
  }
  return order;
}

std::size_t InputSampler::memory_bytes() const {
  std::size_t n = 0;
  {
    SharedReadLock lock(mutex_);
    for (const auto& [key, vec] : cache_) {
      (void)key;
      n += vec->capacity() * sizeof(std::uint32_t) + sizeof(*vec);
    }
  }
  {
    SharedReadLock lock(plan_mutex_);
    for (const auto& [key, plan] : plans_) {
      (void)key;
      n += plan->memory_bytes();
    }
  }
  return n;
}

std::size_t InputSampler::cache_entries() const {
  SharedReadLock lock(mutex_);
  return cache_.size();
}

std::size_t InputSampler::plan_entries() const {
  SharedReadLock lock(plan_mutex_);
  return plans_.size();
}

}  // namespace atm
