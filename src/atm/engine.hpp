// The ATM engine: the MemoizationHook implementation that realizes the
// paper's Figure 1 pipeline on top of the runtime.
//
//   ready task ──► blacklist check ──► hash key (sampled inputs, current p)
//        │
//        ├─ steady state: THT lookup ── hit ──► copyOuts()          => Hit
//        │                 miss │
//        │                      ├─ L2 store lookup ─ hit ──► promote
//        │                      │     into THT + copyOuts()         => Hit
//        │                      └─ IKT lookup ─ twin in flight ──►
//        │                            postponeCopyOuts()            => Deferred
//        │                            miss ──► register in IKT      => Execute
//        │
//        └─ training (Dynamic): THT hit => remember snapshot, still Execute;
//           after execution compare tau against tau_max, double p on
//           failure, blacklist chaotic outputs, count successes.
//
//   executed task ──► verify training check ──► updateTHT&IKT() ──►
//        fulfill postponed copies ──► complete deferred consumers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "atm/atm_stats.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "atm/config.hpp"
#include "atm/ikt.hpp"
#include "atm/input_sampler.hpp"
#include "atm/tht.hpp"
#include "atm/tolerance.hpp"
#include "atm/training.hpp"
#include "runtime/runtime.hpp"
#include "store/l2_store.hpp"
#include "store/snapshot_io.hpp"

namespace atm {

class AtmEngine final : public rt::MemoizationHook {
 public:
  explicit AtmEngine(AtmConfig config);
  /// Detaches from the runtime (if still attached), deregistering the
  /// engine's metrics collector: apps routinely destroy the engine and
  /// runtime in either order, and a collector capturing `this` must not
  /// outlive it — nor may the engine touch a registry that died with its
  /// runtime (the runtime calls on_detach() from its destructor).
  ~AtmEngine() override;

  AtmEngine(const AtmEngine&) = delete;
  AtmEngine& operator=(const AtmEngine&) = delete;

  // --- rt::MemoizationHook ---
  Decision on_task_ready(rt::Task& task, std::size_t lane) override;
  void on_task_executed(rt::Task& task, std::size_t lane) override;
  void on_attach(rt::Runtime& runtime) override;
  void on_detach(rt::Runtime& runtime) override;

  // --- observability ---
  [[nodiscard]] const AtmConfig& config() const noexcept { return config_; }
  /// Counter snapshot; when the L2 tier is on, also samples its gauges
  /// (resident entries/bytes) and eviction count into the L2 fields.
  [[nodiscard]] AtmStatsSnapshot stats() const;
  void reset_stats() {
    stats_.reset();
    if (l2_ != nullptr) l2_->reset_stats();
  }

  [[nodiscard]] TaskHistoryTable& tht() noexcept { return tht_; }
  [[nodiscard]] InFlightKeyTable& ikt() noexcept { return ikt_; }
  [[nodiscard]] InputSampler& sampler() noexcept { return sampler_; }
  /// The L2 capacity tier; nullptr unless AtmConfig::l2_enabled.
  [[nodiscard]] store::MemoStore* l2() noexcept { return l2_.get(); }

  // --- persistent warm start (src/store/snapshot_io) ---
  /// Serialize THT + L2 + per-type p-controller state to `path`.
  bool save_store(const std::string& path, std::string* error = nullptr) const;
  /// Restore a saved image: THT entries re-insert (overflow demotes to the
  /// L2 tier when enabled), L2 entries reload as stored, and Dynamic-mode
  /// controllers resume at their trained p/phase — zero training on the
  /// warm run. Call before submitting tasks; type ids must come from the
  /// same registration order as the saving program.
  bool load_store(const std::string& path, std::string* error = nullptr);

  /// Current selected-input percentage of a type (the star of Figure 5).
  [[nodiscard]] double current_p(const rt::TaskType& type);
  [[nodiscard]] TrainingPhase phase(const rt::TaskType& type);
  [[nodiscard]] std::vector<double> p_history(const rt::TaskType& type);
  [[nodiscard]] std::size_t blacklist_size(const rt::TaskType& type);

  /// Resident ATM memory: THT + IKT + sampler caches + controllers
  /// (Table III's overhead numerator).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct PendingCheck {
    OutputSnapshot snapshot;
    rt::TaskId creator = 0;
  };

  /// Per-task-type profile on the unified registry: hit rate, bytes the
  /// hits saved, and the latency distributions of the three engine phases
  /// (all recorded from timestamps the engine already takes — no extra
  /// clock reads). Named atm.type.<name>.{hits,misses,bytes_saved,
  /// hash_ns,copy_ns,update_ns}.
  struct TypeProfile {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* bytes_saved = nullptr;
    obs::LatencyHistogram* hash_ns = nullptr;
    obs::LatencyHistogram* copy_ns = nullptr;
    obs::LatencyHistogram* update_ns = nullptr;
  };

  /// A type's key plan for one (input layout, p): the gather plan and the
  /// key seed bound to that layout and the type's tolerance. Immutable once
  /// published.
  struct KeyPlan {
    std::uint64_t layout_fp = 0;
    double p = 0.0;
    const GatherPlan* gather = nullptr;
    std::uint64_t seed = 0;
  };

  /// Everything the engine keeps per task type, built on the type's first
  /// use and never moved or freed before the engine: the training
  /// controller, the resolved tolerance, the metric profile and the key plan
  /// the type's last task used. The hot path reads it without a lock.
  struct TypeSlot {
    TypeSlot(std::uint32_t id, const rt::AtmParams& params, double initial_p,
             TrainingPhase initial_phase, std::uint64_t trained_tasks,
             const ToleranceSpec& spec)
        : type_id(id),
          controller(params, initial_p, initial_phase, trained_tasks),
          tol(spec),
          tol_fingerprint(spec.fingerprint()) {}

    const std::uint32_t type_id;
    TrainingController controller;
    const ToleranceSpec tol;
    const std::uint64_t tol_fingerprint;
    /// Profile on the attached registry; nullptr until the type's first
    /// profiled task after on_attach.
    std::atomic<TypeProfile*> profile{nullptr};
    /// Inline cache: the plan of the type's last task (nullptr before it).
    std::atomic<const KeyPlan*> last_plan{nullptr};
    /// Serializes building new plans; owns every plan the type has used.
    Mutex plans_mutex;
    std::vector<std::unique_ptr<KeyPlan>> plans ATM_GUARDED_BY(plans_mutex);
  };

  /// Where a type id lives in the slot table (see slot_segments_).
  struct SlotIndex {
    unsigned segment = 0;
    std::size_t offset = 0;
    std::size_t segment_size = 0;
  };
  [[nodiscard]] static SlotIndex slot_index(std::uint32_t type_id) noexcept;

  /// The type's slot, created on first use. Lock-free once it exists.
  TypeSlot& slot(const rt::TaskType& type);
  TypeSlot& create_slot(const rt::TaskType& type);

  /// The key plan for a task of `slot`'s type at `p`: the inline cache on a
  /// repeat of the last (layout, p), else found or built under the slot's
  /// plans mutex and published as the new last plan.
  const KeyPlan& key_plan(TypeSlot& slot, const rt::Task& task, double p);

  /// The slot's profile; nullptr before on_attach (no registry yet) or past
  /// the AtmConfig::profile_max_types cap.
  TypeProfile* profile_for(TypeSlot& slot, const rt::TaskType& type);

  /// Drop everything registered on the current runtime's registry: the
  /// collector and the cached per-type profile instruments.
  void release_registry();

  [[nodiscard]] std::uint64_t key_seed(std::uint32_t type_id,
                                       std::uint64_t layout_fp) const noexcept;
  /// Effective tolerance for a type: engine-wide AtmConfig epsilons unless
  /// the type's AtmParams override them (>= 0); probes are engine-wide.
  [[nodiscard]] ToleranceSpec resolve_tolerance(const rt::TaskType& type) const noexcept;
  static void copy_outputs(const rt::Task& producer, rt::Task& consumer) noexcept;

  AtmConfig config_;
  rt::Runtime* runtime_ = nullptr;
  /// The runtime's registry, adopted at on_attach.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::size_t collector_id_ = 0;
  bool collector_registered_ = false;

  /// Per-type slots by type id, in segments of doubling size (segment k
  /// holds 16 << k ids). The table grows without moving a slot, so every
  /// 32-bit id has a place and a reader needs two acquire loads;
  /// slots_mutex_ serializes creation only. Segments are sized by the
  /// largest id seen, which stays small because runtimes number their
  /// types densely from 0.
  static constexpr unsigned kSlotSegmentBaseLog2 = 4;
  static constexpr unsigned kSlotSegments = 33 - kSlotSegmentBaseLog2;
  std::array<std::atomic<std::atomic<TypeSlot*>*>, kSlotSegments> slot_segments_{};
  mutable Mutex slots_mutex_;
  std::vector<std::unique_ptr<std::atomic<TypeSlot*>[]>> segment_storage_
      ATM_GUARDED_BY(slots_mutex_);
  std::vector<std::unique_ptr<TypeSlot>> slot_storage_ ATM_GUARDED_BY(slots_mutex_);
  /// Controller states restored by load_store(), consumed when a
  /// Dynamic-mode slot is first created for the type.
  std::unordered_map<std::uint32_t, store::ControllerState> warm_controllers_
      ATM_GUARDED_BY(slots_mutex_);

  /// Serializes profile creation and teardown; the hot path reads the
  /// slot's profile pointer lock-free.
  Mutex profiles_mutex_;
  std::vector<std::unique_ptr<TypeProfile>> profile_storage_
      ATM_GUARDED_BY(profiles_mutex_);
  TaskHistoryTable tht_;
  InFlightKeyTable ikt_;
  InputSampler sampler_;
  AtmStats stats_;
  std::unique_ptr<store::L2CapacityStore> l2_;

  mutable Mutex checks_mutex_;
  std::unordered_map<const rt::Task*, PendingCheck> pending_checks_
      ATM_GUARDED_BY(checks_mutex_);
};

}  // namespace atm
