// ATM engine configuration: the modes and sizing knobs evaluated in the
// paper (Static/Dynamic ATM, the Oracle fixed-p configurations, THT sizing
// N/M of §IV-B, IKT on/off, type-aware sampling of §III-C).
#pragma once

#include <cstdint>

namespace atm {

/// Operating mode of the memoization engine.
enum class AtmMode : std::uint8_t {
  Off,     ///< baseline: no memoization (speedup denominators, Eq. 2)
  Static,  ///< p = 100%: exact memoization only (paper "Static ATM")
  Dynamic, ///< training phase picks p automatically (paper "Dynamic ATM")
  FixedP,  ///< constant caller-chosen p, no training (the Oracle runs)
};

[[nodiscard]] constexpr const char* atm_mode_name(AtmMode m) noexcept {
  switch (m) {
    case AtmMode::Off: return "Off";
    case AtmMode::Static: return "Static";
    case AtmMode::Dynamic: return "Dynamic";
    case AtmMode::FixedP: return "FixedP";
  }
  return "?";
}

/// Smallest selected-input percentage explored by Dynamic ATM's training
/// phase: p = 2^-15 (paper §III-D), i.e. 15 doublings to reach 100%.
inline constexpr double kMinP = 1.0 / 32768.0;
/// Number of distinct p configurations (2^-15 ... 2^0).
inline constexpr unsigned kPConfigs = 16;

/// THT replacement policy. The paper uses FIFO ("the oldest task is
/// evicted"); LRU is provided for the ablation study — it requires an
/// exclusive bucket lock on every hit, giving up the paper's parallel-read
/// bucket design.
enum class EvictionPolicy : std::uint8_t { Fifo, Lru };

struct AtmConfig {
  AtmMode mode = AtmMode::Static;

  /// log2 of the THT bucket count (the paper's N; N=8 by default, §IV-B).
  unsigned log2_buckets = 8;
  /// Entries per THT bucket (the paper's M; 128 covers kmeans, §IV-B).
  unsigned bucket_capacity = 128;

  /// Enable the In-flight Key Table (short reuse distances, §III-A).
  bool use_ikt = true;
  /// Type-aware input selection: rank bytes by significance before
  /// shuffling (§III-C). Irrelevant at p = 100%.
  bool type_aware = true;

  /// The constant p used in FixedP mode (ignored otherwise).
  double fixed_p = 1.0;

  /// Seed for the per-task-type index shuffles (deterministic by default).
  std::uint64_t shuffle_seed = 0x5eedULL;

  /// The paper's rejected "original approach" (§III-E), reproduced for the
  /// ablation: store the complete inputs alongside exact (p = 100%) entries
  /// and byte-compare them on every hit, eliminating hash false positives
  /// at the cost of doubled memory and a full input read per hit. The paper
  /// found "the obtained results did not justify such a complex approach".
  bool verify_full_inputs = false;

  /// THT replacement policy (paper: FIFO).
  EvictionPolicy eviction = EvictionPolicy::Fifo;

  // --- tolerance-quantized keys (src/atm/tolerance.hpp, beyond the paper) --
  /// Relative epsilon for key quantization: sampled float/double elements
  /// within ~tolerance_rel of a quantization-cell center share a key cell.
  /// 0 (default) = exact raw-byte keys, bit-identical to the paper's.
  /// Overridable per task type via rt::AtmParams::tolerance_rel.
  double tolerance_rel = 0.0;
  /// Absolute epsilon; takes precedence over tolerance_rel when > 0.
  double tolerance_abs = 0.0;
  /// Neighbor probe keys tried on a THT miss (multi-probe lookup for
  /// near-boundary inputs); capped at kMaxKeyProbes. 0 = primary key only.
  unsigned tolerance_probes = 0;

  // --- L2 capacity tier (src/store/, beyond the paper) ---------------------
  /// Enable the byte-budgeted L2 store behind the THT: capacity evictions
  /// demote into it, steady-state L1 misses probe it and promote on hit.
  bool l2_enabled = false;
  /// Total L2 payload budget in bytes (split evenly across the
  /// store::L2Config default of 16 shards).
  std::size_t l2_budget_bytes = std::size_t{64} << 20;
  /// Compress demoted snapshots (byte-wise RLE with raw fallback).
  bool l2_compress = false;

  // --- observability -------------------------------------------------------
  /// Cap on the per-hit reuse-creator log (Figure 9's raw data). Past the
  /// cap, hits count into reuse_log_dropped instead of growing the vector —
  /// long streams previously grew it one entry per hit under a mutex.
  std::size_t reuse_log_cap = 1u << 20;

  /// Cap on distinct task-type ids carrying per-type metric profiles
  /// (atm.type.<name>.*): the profile slot array is sized to this at engine
  /// construction, and types with id >= the cap run unprofiled (memoization
  /// itself is unaffected). Mirrors rt::RuntimeConfig::profile_max_types;
  /// atm_run --profile-types=N sets both.
  std::size_t profile_max_types = 256;
};

}  // namespace atm
