// Persistent memo-store snapshots: a versioned, checksummed binary image of
// the trained memoization state, so `atm_run --save-store/--load-store`
// warm-starts a run from a previous process — steady-state hit rate from
// iteration 1, zero training executions on restart.
//
// On-disk layout (native-endian; snapshots are a same-machine warm-start
// artifact, not an interchange format — which is exactly why the header
// carries an endianness marker: a snapshot carried to a foreign-endian host
// must be rejected with a clear diagnostic, not half-parsed into garbage):
//
//   bytes 0..7   magic "ATMSTOR\0"
//   u32          format version (kFormatVersion)
//   u32          endianness marker (kEndianMarker, byte-order sentinel)
//   u64          payload size in bytes
//   u64          HashStream digest of the payload (seed kChecksumSeed)
//   payload:
//     u32 n_controllers { u32 type_id, u8 steady, u64 p_bits, u64 trained }
//     u64 n_l1 entries, u64 n_l2 entries, then each entry:
//       u32 type_id, u64 hash, u64 p_bits, u64 creator, u32 n_regions
//       region: u8 elem, u8 encoding, u64 raw_bytes, u64 size, bytes[size]
//
// load() verifies magic, version, sizes and checksum before touching any
// payload field; every parse is bounds-checked, so a truncated or corrupted
// file fails cleanly instead of warm-starting from garbage.
#pragma once

#include <optional>
#include <string>

#include "store/memo_store.hpp"

namespace atm::store {

inline constexpr char kMagic[8] = {'A', 'T', 'M', 'S', 'T', 'O', 'R', '\0'};
/// v2: hash keys for p < 1 switched from shuffled-order to gather-plan
/// (layout-order) digests — v1 snapshots would load cleanly but never hit,
/// so they are rejected instead (a cold start, reported to the user).
/// v3: the previously-reserved header word became the endianness marker, so
/// a snapshot moved across byte orders fails with a precise diagnostic.
/// v4: HashStream became a 4-lane 64-bit stripe hash, which changes both the
/// payload checksum and every stored THT/L2 key. A v3 file is rejected on its
/// version, before its (now meaningless) checksum is compared.
inline constexpr std::uint32_t kFormatVersion = 4;
/// Written native; reads back byte-swapped on a foreign-endian host.
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;
inline constexpr std::uint64_t kChecksumSeed = 0xa7151e57ULL;

/// Per-task-type training-controller state worth persisting: the trained p
/// and whether training finished. Type ids are registration-order dense, so
/// an image is valid for programs registering the same types in the same
/// order (true for every app in this repo; documented in ARCHITECTURE.md).
struct ControllerState {
  std::uint32_t type_id = 0;
  bool steady = false;
  double p = 1.0;
  std::uint64_t trained_tasks = 0;
};

/// Everything a warm start needs: both tiers + the p-controllers.
struct StoreImage {
  std::vector<ControllerState> controllers;
  std::vector<MemoEntry> l1;  ///< hot-tier (THT) entries
  std::vector<MemoEntry> l2;  ///< capacity-tier entries (as stored, maybe Rle)
};

/// Serialize `image` to `path` (atomically enough for a CLI tool: write then
/// flush; partial files fail the checksum on load). False + *error on I/O
/// failure.
bool save(const std::string& path, const StoreImage& image, std::string* error = nullptr);

/// Read and verify an image. std::nullopt + *error when the file is
/// missing, truncated, version-mismatched, foreign-endian, corrupted, or
/// malformed.
[[nodiscard]] std::optional<StoreImage> load(const std::string& path,
                                             std::string* error = nullptr);

/// Container-level verification only: magic, version, endianness marker,
/// payload size and checksum — without materializing any entries. The
/// cheap preflight for CLI tools that want to fail fast on a bad
/// `--load-store` before the engine performs the real load.
[[nodiscard]] bool validate(const std::string& path, std::string* error = nullptr);

}  // namespace atm::store
