// Tests for the storage layer (src/store/): the packbits RLE codec, the
// sharded byte-budgeted L2 capacity store, and the versioned + checksummed
// snapshot format behind --save-store/--load-store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "per_test_path.hpp"
#include "store/l2_store.hpp"
#include "store/rle_codec.hpp"
#include "store/snapshot_io.hpp"

namespace atm::store {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

MemoEntry make_entry(std::uint32_t type_id, std::uint64_t hash, double p,
                     std::vector<std::uint8_t> payload, std::uint64_t creator = 7) {
  MemoEntry e;
  e.key = {type_id, hash, p};
  e.creator = creator;
  MemoRegion r;
  r.raw_bytes = payload.size();
  r.elem = 8;  // rt::ElemType::F32 tag; opaque to the store
  r.data = std::move(payload);
  e.regions.push_back(std::move(r));
  return e;
}

// --- RLE codec -------------------------------------------------------------

TEST(RleCodec, RoundtripRuns) {
  std::vector<std::uint8_t> bytes;
  bytes.insert(bytes.end(), 500, 0xAB);
  bytes.push_back(0x01);
  bytes.insert(bytes.end(), 3, 0xCD);
  std::vector<std::uint8_t> encoded;
  rle_encode(bytes, &encoded);
  EXPECT_LT(encoded.size(), bytes.size());
  std::vector<std::uint8_t> decoded;
  ASSERT_TRUE(rle_decode(encoded, bytes.size(), &decoded));
  EXPECT_EQ(decoded, bytes);
}

TEST(RleCodec, RoundtripRandom) {
  const auto bytes = pattern_bytes(4096, 0x1234);
  std::vector<std::uint8_t> encoded;
  rle_encode(bytes, &encoded);
  std::vector<std::uint8_t> decoded;
  ASSERT_TRUE(rle_decode(encoded, bytes.size(), &decoded));
  EXPECT_EQ(decoded, bytes);
}

TEST(RleCodec, RoundtripEmptyAndTiny) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    std::vector<std::uint8_t> bytes(n, 0x42);
    std::vector<std::uint8_t> encoded, decoded;
    rle_encode(bytes, &encoded);
    ASSERT_TRUE(rle_decode(encoded, n, &decoded));
    EXPECT_EQ(decoded, bytes);
  }
}

TEST(RleCodec, DecodeRejectsMalformedStreams) {
  std::vector<std::uint8_t> decoded;
  // Literal control byte promising more bytes than the stream holds.
  EXPECT_FALSE(rle_decode(std::vector<std::uint8_t>{0x05, 0x01}, 6, &decoded));
  // Run control byte with no value byte.
  EXPECT_FALSE(rle_decode(std::vector<std::uint8_t>{0x80}, 2, &decoded));
  // Decodes past the expected size.
  EXPECT_FALSE(rle_decode(std::vector<std::uint8_t>{0xFF, 0x00}, 2, &decoded));
}

TEST(RleCodec, EncodeRegionFallsBackToRawWhenIncompressible) {
  MemoRegion region;
  region.data = pattern_bytes(512, 0x777);
  region.raw_bytes = region.data.size();
  EXPECT_FALSE(encode_region(&region));  // random bytes do not shrink
  EXPECT_EQ(region.encoding, RegionEncoding::Raw);

  MemoRegion runs;
  runs.data.assign(4096, 0x00);
  runs.raw_bytes = runs.data.size();
  EXPECT_TRUE(encode_region(&runs));
  EXPECT_EQ(runs.encoding, RegionEncoding::Rle);
  EXPECT_LT(runs.data.size(), std::size_t{4096});
  ASSERT_TRUE(decode_region(&runs));
  EXPECT_EQ(runs.data, std::vector<std::uint8_t>(4096, 0x00));
}

// --- L2 capacity store -----------------------------------------------------

TEST(L2Store, PutGetTakeRoundtrip) {
  L2CapacityStore store({.budget_bytes = 1 << 20, .log2_shards = 2});
  const auto payload = pattern_bytes(256, 0x1);
  store.put(make_entry(3, 0xABC, 0.5, payload, 42));
  EXPECT_EQ(store.entry_count(), 1u);

  MemoEntry out;
  ASSERT_TRUE(store.get({3, 0xABC, 0.5}, &out));
  EXPECT_EQ(out.creator, 42u);
  ASSERT_EQ(out.regions.size(), 1u);
  EXPECT_EQ(out.regions[0].data, payload);
  EXPECT_EQ(store.entry_count(), 1u);  // get() copies

  EXPECT_FALSE(store.get({3, 0xABC, 1.0}, &out));  // p participates in the key
  EXPECT_FALSE(store.get({4, 0xABC, 0.5}, &out));  // so does the type

  ASSERT_TRUE(store.take({3, 0xABC, 0.5}, &out));
  EXPECT_EQ(out.regions[0].data, payload);
  EXPECT_EQ(store.entry_count(), 0u);  // take() removes (promotion)
  EXPECT_FALSE(store.get({3, 0xABC, 0.5}, &out));
}

TEST(L2Store, FifoEvictionHoldsByteBudget) {
  // One shard, tiny budget: only the newest few entries survive.
  L2CapacityStore store({.budget_bytes = 4096, .log2_shards = 0});
  for (std::uint64_t k = 0; k < 16; ++k) {
    store.put(make_entry(0, k, 1.0, pattern_bytes(1024, k)));
  }
  EXPECT_LE(store.memory_bytes(), std::size_t{4096});
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_GE(store.entry_count(), 1u);
  MemoEntry out;
  EXPECT_FALSE(store.get({0, 0, 1.0}, &out));   // oldest evicted first
  EXPECT_TRUE(store.get({0, 15, 1.0}, &out));   // newest survives
}

TEST(L2Store, OversizedEntryIsRejectedNotCached) {
  L2CapacityStore store({.budget_bytes = 1024, .log2_shards = 0});
  store.put(make_entry(0, 1, 1.0, pattern_bytes(64, 1)));
  store.put(make_entry(0, 2, 1.0, pattern_bytes(8192, 2)));  // > whole budget
  MemoEntry out;
  EXPECT_TRUE(store.get({0, 1, 1.0}, &out));   // resident entry untouched
  EXPECT_FALSE(store.get({0, 2, 1.0}, &out));
}

TEST(L2Store, RefreshReplacesPayloadWithoutGrowth) {
  L2CapacityStore store({.budget_bytes = 1 << 20, .log2_shards = 1});
  store.put(make_entry(0, 9, 1.0, pattern_bytes(128, 1), 10));
  store.put(make_entry(0, 9, 1.0, pattern_bytes(64, 2), 20));
  EXPECT_EQ(store.entry_count(), 1u);
  MemoEntry out;
  ASSERT_TRUE(store.get({0, 9, 1.0}, &out));
  EXPECT_EQ(out.creator, 20u);
  EXPECT_EQ(out.regions[0].data.size(), 64u);
}

TEST(L2Store, RefreshEnforcesBudgetToo) {
  // The budget bounds entry cost; the store object's fixed footprint is
  // measured off an empty instance.
  const std::size_t base =
      L2CapacityStore({.budget_bytes = 4096, .log2_shards = 0}).memory_bytes();
  L2CapacityStore store({.budget_bytes = 4096, .log2_shards = 0});
  store.put(make_entry(0, 1, 1.0, pattern_bytes(512, 1)));
  store.put(make_entry(0, 2, 1.0, pattern_bytes(512, 2)));
  // Refresh key 1 with a payload near the whole budget: the other resident
  // entry must evict rather than letting the shard blow past its budget.
  store.put(make_entry(0, 1, 1.0, pattern_bytes(3000, 3)));
  EXPECT_LE(store.memory_bytes(), base + 4096);
  MemoEntry out;
  EXPECT_TRUE(store.get({0, 1, 1.0}, &out));
  // Refresh with a payload no budget could hold: the key is dropped, not
  // stored over budget.
  store.put(make_entry(0, 1, 1.0, pattern_bytes(8192, 4)));
  EXPECT_FALSE(store.get({0, 1, 1.0}, &out));
  EXPECT_LE(store.memory_bytes(), base + 4096);
}

TEST(L2Store, ResetStatsClearsCountersKeepsEntries) {
  L2CapacityStore store({.budget_bytes = 1 << 20, .log2_shards = 0});
  store.put(make_entry(0, 1, 1.0, pattern_bytes(64, 1)));
  MemoEntry out;
  EXPECT_TRUE(store.get({0, 1, 1.0}, &out));
  EXPECT_GT(store.stats().puts, 0u);
  store.reset_stats();
  EXPECT_EQ(store.stats().puts, 0u);
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.entry_count(), 1u);  // resident data untouched
}

TEST(L2Store, CompressionRoundtripsThroughTake) {
  L2CapacityStore store({.budget_bytes = 1 << 20, .log2_shards = 0, .compress = true});
  std::vector<std::uint8_t> runs(8192, 0x3C);  // compressible payload
  store.put(make_entry(1, 0x99, 1.0, runs));
  EXPECT_GT(store.stats().compressed_regions, 0u);
  EXPECT_LT(store.payload_bytes(), runs.size());  // stored compressed

  MemoEntry out;
  ASSERT_TRUE(store.take({1, 0x99, 1.0}, &out));
  EXPECT_EQ(out.regions[0].encoding, RegionEncoding::Raw);  // decoded on take
  EXPECT_EQ(out.regions[0].data, runs);
}

TEST(L2Store, ShardsSpreadEntriesAndClearResets) {
  L2CapacityStore store({.budget_bytes = 1 << 20, .log2_shards = 3});
  for (std::uint64_t k = 0; k < 64; ++k) {
    store.put(make_entry(0, k * 0x9E3779B97F4A7C15ull, 1.0, pattern_bytes(32, k)));
  }
  EXPECT_EQ(store.entry_count(), 64u);
  std::size_t visited = 0;
  store.for_each([&visited](const MemoEntry&) { ++visited; });
  EXPECT_EQ(visited, 64u);
  store.clear();
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.payload_bytes(), 0u);
}

// --- snapshot format -------------------------------------------------------

class SnapshotIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test case: ctest runs gtest cases as separate parallel
    // processes in the same directory, so a shared fixture path races.
    path_ = per_test_name("test_store_snapshot") + ".atmstore";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  StoreImage sample_image() {
    StoreImage image;
    image.controllers.push_back({.type_id = 0, .steady = true, .p = 0.25,
                                 .trained_tasks = 123});
    image.controllers.push_back({.type_id = 1, .steady = false, .p = 1.0,
                                 .trained_tasks = 4});
    image.l1.push_back(make_entry(0, 0xAA, 0.25, pattern_bytes(96, 5), 11));
    MemoEntry compressed = make_entry(0, 0xBB, 0.25, std::vector<std::uint8_t>(256, 9));
    encode_region(&compressed.regions[0]);
    image.l2.push_back(std::move(compressed));
    return image;
  }

  std::string path_;
};

TEST_F(SnapshotIoTest, SaveLoadRoundtrip) {
  const StoreImage image = sample_image();
  std::string error;
  ASSERT_TRUE(save(path_, image, &error)) << error;

  const auto loaded = load(path_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->controllers.size(), 2u);
  EXPECT_EQ(loaded->controllers[0].type_id, 0u);
  EXPECT_TRUE(loaded->controllers[0].steady);
  EXPECT_DOUBLE_EQ(loaded->controllers[0].p, 0.25);
  EXPECT_EQ(loaded->controllers[0].trained_tasks, 123u);
  EXPECT_FALSE(loaded->controllers[1].steady);

  ASSERT_EQ(loaded->l1.size(), 1u);
  EXPECT_EQ(loaded->l1[0].key.hash, 0xAAu);
  EXPECT_EQ(loaded->l1[0].creator, 11u);
  EXPECT_EQ(loaded->l1[0].regions[0].data, image.l1[0].regions[0].data);

  // Compressed regions persist as stored and still decode.
  ASSERT_EQ(loaded->l2.size(), 1u);
  MemoRegion region = loaded->l2[0].regions[0];
  EXPECT_EQ(region.encoding, RegionEncoding::Rle);
  ASSERT_TRUE(decode_region(&region));
  EXPECT_EQ(region.data, std::vector<std::uint8_t>(256, 9));
}

TEST_F(SnapshotIoTest, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(load("no_such_file.atmstore", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(SnapshotIoTest, CorruptedPayloadFailsChecksum) {
  ASSERT_TRUE(save(path_, sample_image()));
  // Flip one payload byte (past the 32-byte header).
  FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 48, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 48, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(SnapshotIoTest, TruncatedFileFails) {
  ASSERT_TRUE(save(path_, sample_image()));
  FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
}

TEST_F(SnapshotIoTest, BadMagicAndVersionFail) {
  ASSERT_TRUE(save(path_, sample_image()));
  {
    FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);  // clobber the magic
    std::fclose(f);
  }
  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  ASSERT_TRUE(save(path_, sample_image()));
  {
    FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);  // version field follows the 8-byte magic
    std::fputc(0x7F, f);
    std::fclose(f);
  }
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(SnapshotIoTest, EmptyImageRoundtrips) {
  ASSERT_TRUE(save(path_, StoreImage{}));
  const auto loaded = load(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->controllers.empty());
  EXPECT_TRUE(loaded->l1.empty());
  EXPECT_TRUE(loaded->l2.empty());
}

// --- corrupted / mismatched snapshot matrix --------------------------------
// A bad warm-start artifact must fail loudly with a precise diagnostic and
// must never partially load (load() parses and verifies the whole image
// before handing anything back).

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Byte-swap a little-endian u32 at `off` in place.
void bswap32_at(std::vector<std::uint8_t>& bytes, std::size_t off) {
  std::swap(bytes[off], bytes[off + 3]);
  std::swap(bytes[off + 1], bytes[off + 2]);
}

TEST_F(SnapshotIoTest, TruncationMatrixEveryPrefixFails) {
  ASSERT_TRUE(save(path_, sample_image()));
  const std::vector<std::uint8_t> original = read_file(path_);
  ASSERT_GT(original.size(), 40u);
  // Every strict prefix must fail: header cuts, payload cuts, off-by-one.
  const std::size_t cuts[] = {0,  1,  7,  8,  11, 15, 23, 31,
                              32, 33, original.size() / 2, original.size() - 1};
  for (const std::size_t cut : cuts) {
    if (cut >= original.size()) continue;
    write_file(path_, {original.begin(), original.begin() + static_cast<long>(cut)});
    std::string error;
    EXPECT_FALSE(load(path_, &error).has_value()) << "cut at " << cut;
    EXPECT_FALSE(error.empty()) << "cut at " << cut;
  }
}

TEST_F(SnapshotIoTest, BitFlipMatrixPayloadFailsChecksum) {
  ASSERT_TRUE(save(path_, sample_image()));
  const std::vector<std::uint8_t> original = read_file(path_);
  constexpr std::size_t kHeaderBytes = 32;
  ASSERT_GT(original.size(), kHeaderBytes);
  // Flip a byte at several payload positions: first, interior, last.
  const std::size_t payload = original.size() - kHeaderBytes;
  for (const std::size_t rel : {std::size_t{0}, payload / 3, payload - 1}) {
    auto corrupt = original;
    corrupt[kHeaderBytes + rel] ^= 0x01;
    write_file(path_, corrupt);
    std::string error;
    EXPECT_FALSE(load(path_, &error).has_value()) << "flip at +" << rel;
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  }
}

TEST_F(SnapshotIoTest, ForeignEndiannessFailsWithClearDiagnostic) {
  ASSERT_TRUE(save(path_, sample_image()));
  std::vector<std::uint8_t> foreign = read_file(path_);
  // Emulate a snapshot written on an opposite-endian machine: the version
  // and endianness marker words read back byte-swapped.
  bswap32_at(foreign, 8);   // version
  bswap32_at(foreign, 12);  // endianness marker
  write_file(path_, foreign);
  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("byte order"), std::string::npos) << error;

  // A corrupt (neither native nor swapped) marker is also rejected.
  ASSERT_TRUE(save(path_, sample_image()));
  std::vector<std::uint8_t> corrupt = read_file(path_);
  corrupt[12] ^= 0x55;
  write_file(path_, corrupt);
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("endianness marker"), std::string::npos) << error;
}

TEST_F(SnapshotIoTest, ValidateMatchesLoadVerdicts) {
  // validate() is the cheap container-only preflight (atm_run --load-store):
  // it must accept what load() accepts and reject what load() rejects.
  ASSERT_TRUE(save(path_, sample_image()));
  std::string error;
  EXPECT_TRUE(validate(path_, &error)) << error;

  std::vector<std::uint8_t> corrupt = read_file(path_);
  corrupt.back() ^= 0xFF;
  write_file(path_, corrupt);
  EXPECT_FALSE(validate(path_, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_FALSE(validate("no_such_file.atmstore", &error));
}

TEST_F(SnapshotIoTest, WrongVersionDiagnosticNamesBothVersions) {
  ASSERT_TRUE(save(path_, sample_image()));
  std::vector<std::uint8_t> old = read_file(path_);
  old[8] = static_cast<std::uint8_t>(kFormatVersion - 1);  // e.g. a v2 file
  write_file(path_, old);
  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find(std::to_string(kFormatVersion - 1)), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(kFormatVersion)), std::string::npos) << error;
}

TEST_F(SnapshotIoTest, Version3ImageIsRejectedOnVersionNotChecksum) {
  // v3 images carry checksums and keys from the previous hash. Such a file
  // must fail on its version, so the user is told to regenerate it rather
  // than that it is corrupt.
  ASSERT_TRUE(save(path_, sample_image()));
  std::vector<std::uint8_t> v3 = read_file(path_);
  const std::uint32_t version = 3;
  std::memcpy(v3.data() + 8, &version, sizeof version);  // native-endian, after the magic
  for (std::size_t i = 24; i < 32; ++i) v3[i] ^= 0x5A;   // a digest from another hash
  write_file(path_, v3);

  std::string error;
  EXPECT_FALSE(load(path_, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(error.find("checksum"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(validate(path_, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(error.find("checksum"), std::string::npos) << error;
}

}  // namespace
}  // namespace atm::store
