// 4-lane 64-bit stripe hash for ATM hash-key generation.
//
// The paper (Section III-B) digests the selected subset of task input bytes
// into an 8-byte key stored in the Task History Table, using "a hash
// function for hash table lookup". It does not name one, so the digest is
// pinned by properties, not vectors (docs/DESIGN.md §2). We implement the
// xxh64 round and merge schedule from scratch:
//
//   * 32-byte stripes feed four independent 64-bit multiply-rotate
//     accumulators, one per 8-byte lane, so the four dependency chains
//     overlap in the pipeline (plain scalar code, no intrinsics);
//   * messages under 32 bytes skip the lanes and start from seed + prime;
//   * the message length, then the < 32-byte tail in 8/4/1-byte steps, are
//     folded in before a 64-bit avalanche finalizer.
//
// Full-input keys (p = 1, Static mode) are compute-bound: the inputs are
// cache-resident, so this core's throughput sets their cost (measured in
// docs/DESIGN.md §2).
//
// HashStream supports incremental feeding so callers can hash scattered
// (sampled) bytes without first materializing a gathered copy of the full
// selection; the digest does not depend on how the message is chunked.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace atm {

/// 64-bit digest type used as the THT/IKT key ("8 bytes of storage", §III-B).
using HashKey = std::uint64_t;

namespace detail {
inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t load32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// One lane step: multiply-rotate-multiply of an 8-byte word into `acc`.
constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

/// Fold one finished lane accumulator into the converged state.
constexpr std::uint64_t lane_merge(std::uint64_t h, std::uint64_t lane) noexcept {
  h ^= lane_round(0, lane);
  return h * kPrime1 + kPrime4;
}
}  // namespace detail

/// Incremental stripe hasher.
///
/// Usage:
///   HashStream h(seed);
///   h.update(bytes);          // any number of times, any chunk sizes
///   HashKey k = h.finalize(); // chunking does not affect the digest
class HashStream {
 public:
  explicit HashStream(std::uint64_t seed = 0) noexcept { reset(seed); }

  /// Re-arm the stream for a new message with the given seed.
  void reset(std::uint64_t seed = 0) noexcept {
    using namespace detail;
    lane_[0] = seed + kPrime1 + kPrime2;
    lane_[1] = seed + kPrime2;
    lane_[2] = seed;
    lane_[3] = seed - kPrime1;
    buffered_ = 0;
    total_len_ = 0;
  }

  /// Feed one byte.
  void update(std::uint8_t byte) noexcept {
    buf_[buffered_++] = byte;
    ++total_len_;
    if (buffered_ == kStripe) {
      consume_stripes(buf_, 1);
      buffered_ = 0;
    }
  }

  /// Feed a contiguous span of bytes.
  void update(std::span<const std::uint8_t> bytes) noexcept {
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    total_len_ += n;
    // Top up a partially filled stripe first.
    if (buffered_ != 0) {
      const std::size_t take = (n < kStripe - buffered_) ? n : kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      n -= take;
      if (buffered_ < kStripe) return;
      consume_stripes(buf_, 1);
      buffered_ = 0;
    }
    // Whole stripes straight from the input (no staging copy).
    const std::size_t stripes = n / kStripe;
    if (stripes != 0) {
      consume_stripes(p, stripes);
      p += stripes * kStripe;
      n -= stripes * kStripe;
    }
    if (n != 0) {
      std::memcpy(buf_, p, n);
      buffered_ = n;
    }
  }

  /// Produce the 64-bit digest. The stream may keep being updated afterwards
  /// only after a reset().
  [[nodiscard]] HashKey finalize() noexcept {
    using namespace detail;
    std::uint64_t h;
    if (total_len_ >= kStripe) {
      h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) + std::rotl(lane_[2], 12) +
          std::rotl(lane_[3], 18);
      for (const std::uint64_t lane : lane_) h = lane_merge(h, lane);
    } else {
      h = lane_[2] + kPrime5;  // lane 2 still holds the seed
    }
    // Bind the digest to the exact message length so that e.g. {0} and
    // {0, 0} hash differently.
    h += total_len_;

    const std::uint8_t* p = buf_;
    std::size_t n = buffered_;
    for (; n >= 8; n -= 8, p += 8) {
      h ^= lane_round(0, load64(p));
      h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (n >= 4) {
      h ^= static_cast<std::uint64_t>(load32(p)) * kPrime1;
      h = std::rotl(h, 23) * kPrime2 + kPrime3;
      n -= 4;
      p += 4;
    }
    for (; n != 0; --n, ++p) {
      h ^= static_cast<std::uint64_t>(*p) * kPrime5;
      h = std::rotl(h, 11) * kPrime1;
    }

    // Avalanche: every input bit reaches every output bit.
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

  /// Number of bytes fed since the last reset().
  [[nodiscard]] std::uint64_t message_length() const noexcept { return total_len_; }

 private:
  static constexpr std::size_t kStripe = 32;

  /// Run `count` whole 32-byte stripes through the four lanes. The lanes
  /// live in locals for the loop so they stay in registers.
  void consume_stripes(const std::uint8_t* p, std::size_t count) noexcept {
    using detail::load64;
    using detail::lane_round;
    std::uint64_t v0 = lane_[0], v1 = lane_[1], v2 = lane_[2], v3 = lane_[3];
    for (; count != 0; --count, p += kStripe) {
      v0 = lane_round(v0, load64(p));
      v1 = lane_round(v1, load64(p + 8));
      v2 = lane_round(v2, load64(p + 16));
      v3 = lane_round(v3, load64(p + 24));
    }
    lane_[0] = v0;
    lane_[1] = v1;
    lane_[2] = v2;
    lane_[3] = v3;
  }

  std::uint64_t lane_[4] = {};
  std::uint8_t buf_[kStripe] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience: hash a contiguous byte range.
[[nodiscard]] HashKey hash_bytes(std::span<const std::uint8_t> bytes,
                                 std::uint64_t seed = 0) noexcept;

/// One-shot convenience over raw memory.
[[nodiscard]] inline HashKey hash_bytes(const void* data, std::size_t size,
                                        std::uint64_t seed = 0) noexcept {
  return hash_bytes(
      std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(data), size), seed);
}

/// splitmix64: used to derive per-task-type shuffle seeds from a name hash.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace atm
