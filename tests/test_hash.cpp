// Unit and property tests for the 4-lane 64-bit stripe hash
// (common/hash.hpp): determinism, chunking invariance, length binding, seed
// sensitivity, avalanche behaviour and bucket uniformity — the statistical
// properties ATM's key generation relies on (docs/DESIGN.md §2: validated by
// properties, not canonical vectors). Sizes and chunkings straddle both the
// under-32-byte path and the 32-byte stripe boundary.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace atm {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

TEST(Hash, DeterministicAcrossCalls) {
  const auto data = random_bytes(1000, 1);
  EXPECT_EQ(hash_bytes(data), hash_bytes(data));
  EXPECT_EQ(hash_bytes(data, 42), hash_bytes(data, 42));
}

TEST(Hash, SeedChangesDigest) {
  const auto data = random_bytes(64, 2);
  EXPECT_NE(hash_bytes(data, 1), hash_bytes(data, 2));
}

TEST(Hash, EmptyInputIsValid) {
  HashStream s;
  const HashKey k = s.finalize();
  HashStream s2(99);
  EXPECT_NE(k, s2.finalize());  // seed still matters for empty messages
}

TEST(Hash, ChunkingDoesNotAffectDigest) {
  const auto data = random_bytes(9973, 3);  // prime size: exercises tails
  const HashKey whole = hash_bytes(data);

  for (std::size_t chunk : {1u, 2u, 3u, 7u, 11u, 12u, 13u, 31u, 32u, 33u, 64u, 500u, 4096u}) {
    HashStream s;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min(chunk, data.size() - off);
      s.update(std::span<const std::uint8_t>(data.data() + off, n));
      off += n;
    }
    EXPECT_EQ(whole, s.finalize()) << "chunk size " << chunk;
  }
}

TEST(Hash, ByteAtATimeMatchesBulk) {
  const auto data = random_bytes(123, 4);
  HashStream s;
  for (std::uint8_t b : data) s.update(b);
  EXPECT_EQ(s.finalize(), hash_bytes(data));
}

TEST(Hash, LengthBindsDigest) {
  // Zero padding must not alias: {0}, {0,0}, ..., {0 x 13} all distinct.
  std::vector<HashKey> keys;
  for (std::size_t n = 0; n <= 13; ++n) {
    std::vector<std::uint8_t> zeros(n, 0);
    keys.push_back(hash_bytes(zeros));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }
}

TEST(Hash, ResetReproduces) {
  const auto data = random_bytes(50, 5);
  HashStream s(7);
  s.update(data);
  const HashKey first = s.finalize();
  s.reset(7);
  s.update(data);
  EXPECT_EQ(first, s.finalize());
}

TEST(Hash, MessageLengthTracksBytes) {
  HashStream s;
  s.update(random_bytes(77, 6));
  EXPECT_EQ(s.message_length(), 77u);
}

TEST(Hash, AvalancheSingleBitFlip) {
  // Flipping one input bit should flip ~32 of the 64 output bits on
  // average. Allow a generous band; this catches gross mixing bugs.
  const auto base = random_bytes(256, 7);
  const HashKey k0 = hash_bytes(base);
  double total_flips = 0.0;
  int samples = 0;
  Rng rng(8);
  for (int t = 0; t < 200; ++t) {
    auto mutated = base;
    const std::size_t byte = rng.next_below(mutated.size());
    const int bit = static_cast<int>(rng.next_below(8));
    mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
    total_flips += std::popcount(k0 ^ hash_bytes(mutated));
    ++samples;
  }
  const double mean = total_flips / samples;
  EXPECT_GT(mean, 24.0);
  EXPECT_LT(mean, 40.0);
}

TEST(Hash, AvalancheEveryStripeLaneOfBsReuseKey) {
  // A 12,000-byte message is the bs-reuse key size. Flip one bit in each of
  // the four 8-byte lanes of several stripes (first, interior, last whole
  // stripe): a lane that is dropped or mis-merged would show up as a lane
  // whose flips do not change the digest or change too few output bits.
  constexpr std::size_t kSize = 12000;
  constexpr std::size_t kStripe = 32;
  const auto base = random_bytes(kSize, 12);
  const HashKey k0 = hash_bytes(base);
  Rng rng(13);
  for (const std::size_t stripe : {std::size_t{0}, kSize / kStripe / 2, kSize / kStripe - 1}) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      double total_flips = 0.0;
      constexpr int kTrials = 64;
      for (int t = 0; t < kTrials; ++t) {
        auto mutated = base;
        const std::size_t byte = stripe * kStripe + lane * 8 + rng.next_below(8);
        mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << rng.next_below(8)));
        const HashKey k = hash_bytes(mutated);
        ASSERT_NE(k0, k) << "stripe " << stripe << " lane " << lane;
        total_flips += std::popcount(k0 ^ k);
      }
      const double mean = total_flips / kTrials;
      EXPECT_GT(mean, 24.0) << "stripe " << stripe << " lane " << lane;
      EXPECT_LT(mean, 40.0) << "stripe " << stripe << " lane " << lane;
    }
  }
}

TEST(Hash, BucketUniformityLowBits) {
  // ATM indexes the THT with the low N bits (paper §III-A): the low byte
  // must be close to uniform over random messages, both below the stripe
  // size (24 B) and through the four lanes (96 B).
  constexpr int kBuckets = 256;
  constexpr int kSamples = 256 * 64;
  for (const std::size_t size : {24u, 96u}) {
    std::vector<int> counts(kBuckets, 0);
    Rng rng(9);
    for (int i = 0; i < kSamples; ++i) {
      const auto data = random_bytes(size, rng.next_u64());
      ++counts[hash_bytes(data) & (kBuckets - 1)];
    }
    const double expected = static_cast<double>(kSamples) / kBuckets;
    double chi2 = 0.0;
    for (int c : counts) {
      const double d = c - expected;
      chi2 += d * d / expected;
    }
    // dof = 255; mean 255, stddev ~22.6. 5 sigma ~ 368.
    EXPECT_LT(chi2, 380.0) << "message size " << size;
  }
}

TEST(Hash, NoCollisionsInModestKeySpace) {
  // 2^16 random 32-byte messages: expected birthday collisions in a 64-bit
  // space ~ 1e-10. Any collision indicates a broken digest.
  std::vector<HashKey> keys;
  keys.reserve(1 << 16);
  Rng rng(10);
  for (int i = 0; i < (1 << 16); ++i) {
    keys.push_back(hash_bytes(random_bytes(32, rng.next_u64())));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Splitmix, KnownProperties) {
  EXPECT_NE(splitmix64(0), 0u);
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_EQ(splitmix64(42), splitmix64(42));
}

class HashSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashSizeSweep, TailHandlingAllResidues) {
  // Every length 0-33 (the under-32-byte path and the first stripe
  // boundary), 63/64/65 (the second boundary) and 12,000 (the bs-reuse key
  // size): the digest must be deterministic and change with the content.
  const std::size_t n = GetParam();
  const auto a = random_bytes(n, 11 + n);
  auto b = a;
  const HashKey ka = hash_bytes(a);
  EXPECT_EQ(ka, hash_bytes(b));
  HashStream bytewise;
  for (std::uint8_t byte : a) bytewise.update(byte);
  EXPECT_EQ(ka, bytewise.finalize());
  if (n > 0) {
    b[n / 2] ^= 0x01;
    EXPECT_NE(ka, hash_bytes(b));
  }
}

INSTANTIATE_TEST_SUITE_P(AllResidues, HashSizeSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
                                           25, 26, 27, 28, 29, 30, 31, 32, 33, 63, 64, 65,
                                           100, 1000, 4096, 12000));

}  // namespace
}  // namespace atm
