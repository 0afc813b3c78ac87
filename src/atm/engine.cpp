#include "atm/engine.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "atm/error_metric.hpp"
#include "atm/hash_key.hpp"
#include "common/timing.hpp"
#include "store/rle_codec.hpp"

namespace atm {

namespace {

/// THT-side entry -> storage-layer entry (owned byte vectors; Raw encoding,
/// the L2 store compresses on put when configured).
store::MemoEntry to_store_entry(EvictedEntry&& evicted) {
  store::MemoEntry entry;
  entry.key = {evicted.type_id, evicted.key, evicted.p};
  entry.creator = evicted.creator;
  entry.regions.reserve(evicted.snapshot.regions.size());
  for (auto& region : evicted.snapshot.regions) {
    store::MemoRegion r;
    r.raw_bytes = region.data.size();
    r.elem = static_cast<std::uint8_t>(region.elem);
    r.encoding = store::RegionEncoding::Raw;
    r.data = std::move(region.data);
    entry.regions.push_back(std::move(r));
  }
  return entry;
}

/// Storage-layer entry (Raw-decoded) -> THT-side snapshot.
OutputSnapshot to_snapshot(store::MemoEntry&& entry) {
  OutputSnapshot snap;
  snap.regions.reserve(entry.regions.size());
  for (auto& r : entry.regions) {
    OutputSnapshot::Region region;
    region.elem = static_cast<rt::ElemType>(r.elem);
    region.data = std::move(r.data);
    snap.regions.push_back(std::move(region));
  }
  return snap;
}

/// Bytes a hit delivered without execution (the per-type bytes_saved metric).
std::size_t output_bytes(const rt::Task& task) noexcept {
  std::size_t n = 0;
  for (const auto& a : task.accesses) {
    if (a.is_output()) n += a.bytes;
  }
  return n;
}

}  // namespace

AtmEngine::AtmEngine(AtmConfig config)
    : config_(config),
      tht_(config.log2_buckets, config.bucket_capacity, config.verify_full_inputs,
           config.eviction),
      ikt_(),
      sampler_(config.type_aware, config.shuffle_seed) {
  stats_.set_reuse_log_cap(config_.reuse_log_cap);
  if (config_.l2_enabled) {
    l2_ = std::make_unique<store::L2CapacityStore>(store::L2Config{
        .budget_bytes = config_.l2_budget_bytes,
        .compress = config_.l2_compress,
    });
    // Demotion seam: every THT capacity eviction lands in the L2 tier.
    tht_.set_eviction_sink([this](EvictedEntry&& evicted) {
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      stats_.l2_demotions.fetch_add(1, std::memory_order_relaxed);
      l2_->put(to_store_entry(std::move(evicted)));
    });
  }
}

AtmEngine::~AtmEngine() {
  if (runtime_ != nullptr) {
    // Still attached: have the runtime forget us (it calls back into
    // on_detach, which drops the collector). A runtime that died first
    // already detached us in its destructor, so runtime_ never dangles.
    runtime_->attach_memoizer(nullptr);
  }
}

void AtmEngine::on_detach(rt::Runtime& runtime) {
  // A stale detach from a runtime we have since left must not tear down
  // the registration we hold on the current one.
  if (&runtime != runtime_) return;
  release_registry();
}

void AtmEngine::release_registry() {
  if (collector_registered_ && metrics_ != nullptr) {
    metrics_->remove_collector(collector_id_);
  }
  collector_registered_ = false;
  metrics_ = nullptr;
  runtime_ = nullptr;
  // The profile instruments lived in the departing runtime's registry;
  // drop the cache so a later re-attach recreates them on the new one.
  MutexLock lock(profiles_mutex_);
  {
    MutexLock slots_lock(slots_mutex_);
    for (const auto& slot : slot_storage_) {
      // mo: release pairs with profile_for()'s acquire load — a reader that
      // sees nullptr simply takes the slow path.
      slot->profile.store(nullptr, std::memory_order_release);
    }
  }
  profile_storage_.clear();
}

void AtmEngine::on_attach(rt::Runtime& runtime) {
  if (metrics_ != nullptr) release_registry();  // re-attach: leave the old registry
  runtime_ = &runtime;
  // Adopt the runtime's registry: the AtmStats atomics (which remain the
  // engine's C++ view) export by name through one collector, and per-type
  // profiles register their instruments on it lazily.
  metrics_ = &runtime.metrics();
  collector_id_ = metrics_->add_collector([this](obs::SampleSink& sink) {
    const AtmStatsSnapshot s = stats();
    sink.counter("atm.tht_hits", s.tht_hits, "tasks", "engine");
    sink.counter("atm.tht_misses", s.tht_misses, "tasks", "engine");
    sink.counter("atm.ikt_hits", s.ikt_hits, "tasks", "engine");
    sink.counter("atm.training_hits", s.training_hits, "tasks", "engine");
    sink.counter("atm.training_failures", s.training_failures, "tasks", "engine");
    sink.counter("atm.blacklist_skips", s.blacklist_skips, "tasks", "engine");
    sink.counter("atm.keys_computed", s.keys_computed, "keys", "engine");
    sink.counter("atm.hash_ns", s.hash_ns, "ns", "engine");
    sink.counter("atm.hash_bytes", s.hash_bytes, "bytes", "engine");
    sink.counter("atm.key_gather_oob", s.key_gather_oob, "events", "engine");
    sink.counter("atm.copy_out_ns", s.copy_out_ns, "ns", "engine");
    sink.counter("atm.update_ns", s.update_ns, "ns", "engine");
    sink.counter("atm.tolerance_hits", s.tolerance_hits, "tasks", "engine");
    sink.counter("atm.probe_hits", s.probe_hits, "tasks", "engine");
    sink.counter("atm.reuse_log_dropped", s.reuse_log_dropped, "events", "engine");
    sink.counter("atm.l2_hits", s.l2_hits, "tasks", "l2_store");
    sink.counter("atm.l2_promotions", s.l2_promotions, "entries", "l2_store");
    sink.counter("atm.l2_demotions", s.l2_demotions, "entries", "l2_store");
    sink.counter("atm.l2_evictions", s.l2_evictions, "entries", "l2_store");
    sink.gauge("atm.l2_entries", static_cast<std::int64_t>(s.l2_entries),
               "entries", "l2_store");
    sink.gauge("atm.l2_payload_bytes",
               static_cast<std::int64_t>(s.l2_payload_bytes), "bytes", "l2_store");
    sink.gauge("atm.l2_memory_bytes",
               static_cast<std::int64_t>(s.l2_memory_bytes), "bytes", "l2_store");
    sink.gauge("atm.memory_bytes", static_cast<std::int64_t>(memory_bytes()),
               "bytes", "engine");
  });
  collector_registered_ = true;
}

AtmEngine::SlotIndex AtmEngine::slot_index(std::uint32_t type_id) noexcept {
  // Ids shifted by the first segment's size: segment k then holds the
  // shifted ids with bit width k + 1 + kSlotSegmentBaseLog2.
  const std::uint64_t j = std::uint64_t{type_id} + (1u << kSlotSegmentBaseLog2);
  const auto segment =
      static_cast<unsigned>(std::bit_width(j)) - 1 - kSlotSegmentBaseLog2;
  const std::size_t size = std::size_t{1} << (segment + kSlotSegmentBaseLog2);
  return {segment, static_cast<std::size_t>(j) - size, size};
}

AtmEngine::TypeSlot& AtmEngine::slot(const rt::TaskType& type) {
  const SlotIndex at = slot_index(type.id());
  // mo: acquire pairs with create_slot()'s release stores, so a published
  // segment and slot are seen fully built.
  const std::atomic<TypeSlot*>* seg =
      slot_segments_[at.segment].load(std::memory_order_acquire);
  if (seg != nullptr) {
    // mo: acquire, as above.
    TypeSlot* s = seg[at.offset].load(std::memory_order_acquire);
    if (s != nullptr) return *s;
  }
  return create_slot(type);
}

AtmEngine::TypeSlot& AtmEngine::create_slot(const rt::TaskType& type) {
  const SlotIndex at = slot_index(type.id());
  MutexLock lock(slots_mutex_);
  // mo: relaxed — the mutex orders this against racing creators.
  std::atomic<TypeSlot*>* seg = slot_segments_[at.segment].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    segment_storage_.push_back(std::make_unique<std::atomic<TypeSlot*>[]>(at.segment_size));
    seg = segment_storage_.back().get();
    // mo: release publishes the zeroed segment to lock-free readers.
    slot_segments_[at.segment].store(seg, std::memory_order_release);
  }
  std::atomic<TypeSlot*>& cell = seg[at.offset];
  // mo: relaxed — the mutex orders this re-check against racing creators.
  if (TypeSlot* existing = cell.load(std::memory_order_relaxed)) return *existing;

  // Static/FixedP: a controller already in steady state at a constant p.
  // Dynamic (and Off, whose controller only answers current_p()) trains
  // from kMinP, unless load_store() restored the type's persisted p and
  // phase — then it resumes there instead of re-paying the training phase.
  rt::AtmParams params;
  double p = kMinP;
  TrainingPhase phase = TrainingPhase::Training;
  std::uint64_t trained = 0;
  switch (config_.mode) {
    case AtmMode::Static:
      p = 1.0;
      phase = TrainingPhase::Steady;
      break;
    case AtmMode::FixedP:
      p = config_.fixed_p;
      phase = TrainingPhase::Steady;
      break;
    case AtmMode::Dynamic:
    case AtmMode::Off: {
      params = type.atm_params();
      const auto warm = warm_controllers_.find(type.id());
      if (warm != warm_controllers_.end()) {
        p = warm->second.p;
        phase = warm->second.steady ? TrainingPhase::Steady : TrainingPhase::Training;
        trained = warm->second.trained_tasks;
      }
      break;
    }
  }
  slot_storage_.push_back(std::make_unique<TypeSlot>(type.id(), params, p, phase, trained,
                                                     resolve_tolerance(type)));
  TypeSlot* s = slot_storage_.back().get();
  // mo: release publishes the fully built slot to lock-free readers.
  cell.store(s, std::memory_order_release);
  return *s;
}

const AtmEngine::KeyPlan& AtmEngine::key_plan(TypeSlot& slot, const rt::Task& task,
                                              double p) {
  const std::uint64_t fp = InputLayout::fingerprint_of(task);
  // mo: acquire pairs with the release store below: a plan seen through the
  // cache is fully built.
  const KeyPlan* last = slot.last_plan.load(std::memory_order_acquire);
  if (last != nullptr && last->layout_fp == fp && last->p == p) return *last;

  MutexLock lock(slot.plans_mutex);
  const KeyPlan* found = nullptr;
  for (const auto& plan : slot.plans) {
    if (plan->layout_fp == fp && plan->p == p) found = plan.get();
  }
  if (found == nullptr) {
    auto plan = std::make_unique<KeyPlan>();
    plan->layout_fp = fp;
    plan->p = p;
    // Planned gather (cached per type/layout/p): coalesced contiguous spans
    // instead of a per-byte scatter walk over the shuffled order.
    plan->gather = &sampler_.plan_for(slot.type_id, InputLayout::from_task(task), p);
    // Tolerance-quantized keys live in a salted key space: a quantized key
    // can never alias an exact key, and changing epsilon retires old entries.
    plan->seed = key_seed(slot.type_id, fp) ^ slot.tol_fingerprint;
    found = plan.get();
    slot.plans.push_back(std::move(plan));
  }
  // mo: release publishes the plan to lock-free readers of the cache.
  slot.last_plan.store(found, std::memory_order_release);
  return *found;
}

AtmEngine::TypeProfile* AtmEngine::profile_for(TypeSlot& slot, const rt::TaskType& type) {
  if (metrics_ == nullptr || type.id() >= config_.profile_max_types) return nullptr;
  // mo: acquire pairs with the publishing release store below so the
  // TypeProfile's instrument pointers are visible through the slot.
  TypeProfile* p = slot.profile.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  MutexLock lock(profiles_mutex_);
  // mo: relaxed — the mutex orders this re-check against racing creators.
  p = slot.profile.load(std::memory_order_relaxed);
  if (p != nullptr) return p;
  auto prof = std::make_unique<TypeProfile>();
  const std::string base = "atm.type." + type.name() + ".";
  prof->hits = metrics_->counter(base + "hits", "tasks", "engine");
  prof->misses = metrics_->counter(base + "misses", "tasks", "engine");
  prof->bytes_saved = metrics_->counter(base + "bytes_saved", "bytes", "engine");
  prof->hash_ns = metrics_->histogram(base + "hash_ns", "ns", "engine");
  prof->copy_ns = metrics_->histogram(base + "copy_ns", "ns", "engine");
  prof->update_ns = metrics_->histogram(base + "update_ns", "ns", "engine");
  p = prof.get();
  profile_storage_.push_back(std::move(prof));
  // mo: release publishes the fully-built TypeProfile to lock-free readers.
  slot.profile.store(p, std::memory_order_release);
  return p;
}

std::uint64_t AtmEngine::key_seed(std::uint32_t type_id,
                                  std::uint64_t layout_fp) const noexcept {
  // Bind the key space to (type, layout): equal byte patterns of different
  // task types or shapes cannot alias in the THT.
  return splitmix64(config_.shuffle_seed ^
                    (static_cast<std::uint64_t>(type_id) * 0x9e3779b97f4a7c15ull) ^
                    layout_fp);
}

ToleranceSpec AtmEngine::resolve_tolerance(const rt::TaskType& type) const noexcept {
  const rt::AtmParams& params = type.atm_params();
  ToleranceSpec spec;
  spec.rel = params.tolerance_rel >= 0.0 ? params.tolerance_rel : config_.tolerance_rel;
  spec.abs = params.tolerance_abs >= 0.0 ? params.tolerance_abs : config_.tolerance_abs;
  spec.probes = config_.tolerance_probes;
  return spec;
}

rt::MemoizationHook::Decision AtmEngine::on_task_ready(rt::Task& task, std::size_t lane) {
  if (config_.mode == AtmMode::Off) return Decision::Execute;
  assert(task.type != nullptr);
  const rt::TaskType& type = *task.type;
  TypeSlot& ts = slot(type);
  TrainingController& ctl = ts.controller;
  const TrainingController::State state = ctl.state();

  // Chaotic outputs identified during training are never memoized (§III-D);
  // skip the hash as well — the key would go unused.
  if (state.has_blacklist && ctl.is_blacklisted(task)) {
    // mo: relaxed — monotonic statistic; snapshot() tolerates races.
    stats_.blacklist_skips.fetch_add(1, std::memory_order_relaxed);
    return Decision::Execute;
  }

  const double p = state.p;
  const ToleranceSpec& tol = ts.tol;
  const KeyPlan& plan = key_plan(ts, task, p);

  const std::uint64_t h0 = now_ns();
  const KeyResult key = compute_key(task, *plan.gather, plan.seed, tol);
  const std::uint64_t h1 = now_ns();
  if (runtime_ != nullptr) {
    runtime_->tracer().record(lane, rt::TraceState::HashKey, h0, h1);
  }
  // Per-type profile: every record below reuses a timestamp this function
  // takes anyway, so profiling adds relaxed increments only.
  TypeProfile* prof = profile_for(ts, type);
  if (prof != nullptr) prof->hash_ns->record(h1 - h0);
  // mo: relaxed — monotonic statistics; snapshot() tolerates races.
  stats_.keys_computed.fetch_add(1, std::memory_order_relaxed);
  stats_.hash_ns.fetch_add(h1 - h0, std::memory_order_relaxed);
  stats_.hash_bytes.fetch_add(key.bytes_hashed, std::memory_order_relaxed);
  if (key.oob != 0) {
    // mo: relaxed — monotonic statistic; snapshot() tolerates races.
    stats_.key_gather_oob.fetch_add(key.oob, std::memory_order_relaxed);
  }

  task.atm_key = key.key;
  task.atm_p = p;
  task.atm_key_valid = true;

  if (state.phase == TrainingPhase::Steady) {
    rt::TaskId creator = 0;
    std::uint64_t c0 = 0, c1 = 0;
    if (tht_.lookup_and_copy(type.id(), key.key, p, task, &creator, &c0, &c1)) {
      if (runtime_ != nullptr) {
        runtime_->tracer().record(lane, rt::TraceState::Memoize, c0, c1);
      }
      // mo: relaxed — monotonic statistics; snapshot() tolerates races.
      stats_.copy_out_ns.fetch_add(c1 - c0, std::memory_order_relaxed);
      stats_.tht_hits.fetch_add(1, std::memory_order_relaxed);
      if (tol.active()) stats_.tolerance_hits.fetch_add(1, std::memory_order_relaxed);
      stats_.log_reuse(creator);
      if (prof != nullptr) {
        prof->hits->inc();
        prof->bytes_saved->inc(output_bytes(task));
        prof->copy_ns->record(c1 - c0);
      }
      return Decision::Hit;
    }
    // Multi-probe: a near-boundary input may have been stored one
    // quantization cell over — try the neighbor keys before giving up.
    // Probe hits serve the stored entry as-is (nothing is re-inserted, so
    // jittered variants never crowd the THT with near-duplicate entries).
    std::size_t which = 0;
    if (key.probe_count != 0 &&
        tht_.lookup_multi_and_copy(type.id(), key.probes.data(), key.probe_count, p,
                                   task, &creator, &c0, &c1, &which)) {
      if (runtime_ != nullptr) {
        runtime_->tracer().record(lane, rt::TraceState::Memoize, c0, c1);
      }
      // mo: relaxed — monotonic statistics; snapshot() tolerates races.
      stats_.copy_out_ns.fetch_add(c1 - c0, std::memory_order_relaxed);
      stats_.tht_hits.fetch_add(1, std::memory_order_relaxed);
      stats_.tolerance_hits.fetch_add(1, std::memory_order_relaxed);
      stats_.probe_hits.fetch_add(1, std::memory_order_relaxed);
      stats_.log_reuse(creator);
      if (prof != nullptr) {
        prof->hits->inc();
        prof->bytes_saved->inc(output_bytes(task));
        prof->copy_ns->record(c1 - c0);
      }
      return Decision::Hit;
    }
    // mo: relaxed — monotonic statistic; snapshot() tolerates races.
    stats_.tht_misses.fetch_add(1, std::memory_order_relaxed);
    if (prof != nullptr) prof->misses->inc();

    if (l2_ != nullptr) {
      // Fall through to the capacity tier; on hit, promote the entry back
      // into the L1 THT (take() removes it from L2 — no double residency)
      // and serve the outputs directly.
      store::MemoEntry entry;
      if (l2_->take({type.id(), key.key, p}, &entry)) {
        const rt::TaskId entry_creator = entry.creator;
        OutputSnapshot snap = to_snapshot(std::move(entry));
        if (snap.matches_shape(task)) {
          const std::uint64_t c0 = now_ns();
          snap.copy_to(task);
          const std::uint64_t c1 = now_ns();
          if (runtime_ != nullptr) {
            runtime_->tracer().record(lane, rt::TraceState::Memoize, c0, c1);
          }
          tht_.insert_snapshot(type.id(), key.key, p, entry_creator, snap);
          // mo: relaxed — monotonic statistics; snapshot() tolerates races.
          stats_.copy_out_ns.fetch_add(c1 - c0, std::memory_order_relaxed);
          stats_.l2_hits.fetch_add(1, std::memory_order_relaxed);
          stats_.l2_promotions.fetch_add(1, std::memory_order_relaxed);
          stats_.log_reuse(entry_creator);
          if (prof != nullptr) {
            prof->hits->inc();
            prof->bytes_saved->inc(output_bytes(task));
            prof->copy_ns->record(c1 - c0);
          }
          return Decision::Hit;
        }
        // Shape drifted (same key, different output layout): put the entry
        // back — some other consumer may still match it — and miss.
        store::MemoEntry back;
        back.key = {type.id(), key.key, p};
        back.creator = entry_creator;
        for (auto& region : snap.regions) {
          store::MemoRegion r;
          r.raw_bytes = region.data.size();
          r.elem = static_cast<std::uint8_t>(region.elem);
          r.data = std::move(region.data);
          back.regions.push_back(std::move(r));
        }
        l2_->put(std::move(back));
      }
    }

    if (config_.use_ikt) {
      const auto res =
          ikt_.register_or_attach(type.id(), key.key, p, &task, /*allow_attach=*/true);
      if (res == InFlightKeyTable::RegisterResult::AttachedToTwin) {
        // mo: relaxed — monotonic statistic; snapshot() tolerates races.
        stats_.ikt_hits.fetch_add(1, std::memory_order_relaxed);
        return Decision::Deferred;
      }
      // Registered => we own the key while executing. TwinBusy cannot
      // happen on the attach path (shapes matched twins attach), but if it
      // did the task simply executes unregistered — always safe.
    }
    return Decision::Execute;
  }

  // --- Training phase (Dynamic ATM): emulate memoization, then execute ---
  ctl.note_trained_task();
  OutputSnapshot snapshot;
  rt::TaskId creator = 0;
  if (tht_.lookup_snapshot(type.id(), key.key, p, &snapshot, &creator)) {
    if (snapshot.matches_shape(task)) {
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      stats_.training_hits.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(checks_mutex_);
      pending_checks_.emplace(&task, PendingCheck{std::move(snapshot), creator});
    }
  }
  if (config_.use_ikt) {
    // Register as in-flight so steady-state twins could defer on us, but
    // never attach ourselves: training tasks must execute to be measured.
    ikt_.register_or_attach(type.id(), key.key, p, &task, /*allow_attach=*/false);
  }
  return Decision::Execute;
}

void AtmEngine::on_task_executed(rt::Task& task, std::size_t lane) {
  if (config_.mode == AtmMode::Off || !task.atm_key_valid) return;
  const rt::TaskType& type = *task.type;
  TypeSlot& ts = slot(type);
  TrainingController& ctl = ts.controller;

  // 1. Training verification: compare the fresh outputs against the
  //    snapshot the approximation would have delivered.
  bool had_check = false;
  PendingCheck check;
  {
    MutexLock lock(checks_mutex_);
    auto it = pending_checks_.find(&task);
    if (it != pending_checks_.end()) {
      check = std::move(it->second);
      pending_checks_.erase(it);
      had_check = true;
    }
  }
  if (had_check) {
    const double tau = task_output_tau(task, check.snapshot);
    if (tau >= ctl.params().tau_max) {
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      stats_.training_failures.fetch_add(1, std::memory_order_relaxed);
      ctl.blacklist_outputs(task);
    }
    ctl.report_trained(tau);
  }

  // 2. updateTHT: store the computed outputs under (key, p).
  const std::uint64_t u0 = now_ns();
  tht_.insert(type.id(), task.atm_key, task.atm_p, task);
  const std::uint64_t u1 = now_ns();
  if (runtime_ != nullptr) {
    runtime_->tracer().record(lane, rt::TraceState::Memoize, u0, u1);
  }
  // mo: relaxed — monotonic statistic; snapshot() tolerates races.
  stats_.update_ns.fetch_add(u1 - u0, std::memory_order_relaxed);
  if (TypeProfile* prof = profile_for(ts, type)) prof->update_ns->record(u1 - u0);

  // 3. Retire from the IKT and fulfill postponed copies: every consumer
  //    that deferred on us gets our outputs and completes now.
  if (config_.use_ikt) {
    const auto pending = ikt_.retire(&task);
    for (rt::Task* consumer : pending) {
      const std::uint64_t c0 = now_ns();
      copy_outputs(task, *consumer);
      const std::uint64_t c1 = now_ns();
      if (runtime_ != nullptr) {
        runtime_->tracer().record(lane, rt::TraceState::Memoize, c0, c1);
      }
      // mo: relaxed — monotonic statistic; snapshot() tolerates races.
      stats_.copy_out_ns.fetch_add(c1 - c0, std::memory_order_relaxed);
      stats_.log_reuse(task.id);
      if (runtime_ != nullptr) {
        runtime_->complete_without_execution(*consumer, /*via_ikt=*/true);
      }
    }
  }
}

void AtmEngine::copy_outputs(const rt::Task& producer, rt::Task& consumer) noexcept {
  std::size_t ci = 0;
  auto next_out = [](const rt::Task& t, std::size_t& i) -> const rt::DataAccess* {
    while (i < t.accesses.size()) {
      const auto& a = t.accesses[i++];
      if (a.is_output()) return &a;
    }
    return nullptr;
  };
  std::size_t pi = 0;
  for (;;) {
    const auto* src = next_out(producer, pi);
    const auto* dst = next_out(consumer, ci);
    if (src == nullptr || dst == nullptr) return;
    // Shapes were validated at attach time; memmove tolerates aliasing.
    std::memmove(dst->ptr, src->ptr, dst->bytes);
  }
}

double AtmEngine::current_p(const rt::TaskType& type) {
  return slot(type).controller.current_p();
}

TrainingPhase AtmEngine::phase(const rt::TaskType& type) {
  return slot(type).controller.phase();
}

std::vector<double> AtmEngine::p_history(const rt::TaskType& type) {
  return slot(type).controller.p_history();
}

std::size_t AtmEngine::blacklist_size(const rt::TaskType& type) {
  return slot(type).controller.blacklist_size();
}

AtmStatsSnapshot AtmEngine::stats() const {
  AtmStatsSnapshot s = stats_.snapshot();
  if (l2_ != nullptr) {
    s.l2_evictions = l2_->stats().evictions;
    s.l2_entries = l2_->entry_count();
    s.l2_payload_bytes = l2_->payload_bytes();
    s.l2_memory_bytes = l2_->memory_bytes();
  }
  return s;
}

bool AtmEngine::save_store(const std::string& path, std::string* error) const {
  store::StoreImage image;
  {
    MutexLock lock(slots_mutex_);
    for (const auto& slot : slot_storage_) {
      const TrainingController& ctl = slot->controller;
      store::ControllerState state;
      state.type_id = slot->type_id;
      state.steady = ctl.phase() == TrainingPhase::Steady;
      state.p = ctl.current_p();
      state.trained_tasks = ctl.trained_tasks();
      image.controllers.push_back(state);
    }
  }
  tht_.for_each_entry([&image](EvictedEntry&& e) {
    image.l1.push_back(to_store_entry(std::move(e)));
  });
  if (l2_ != nullptr) {
    l2_->for_each([&image](const store::MemoEntry& e) { image.l2.push_back(e); });
  }
  return store::save(path, image, error);
}

bool AtmEngine::load_store(const std::string& path, std::string* error) {
  auto image = store::load(path, error);
  if (!image.has_value()) return false;
  {
    MutexLock lock(slots_mutex_);
    for (const store::ControllerState& state : image->controllers) {
      warm_controllers_[state.type_id] = state;
    }
  }
  // L1 entries re-insert through the normal path: once a bucket fills, the
  // eviction sink (when the L2 tier is on) demotes the overflow instead of
  // losing it.
  for (store::MemoEntry& e : image->l1) {
    const store::MemoKey key = e.key;
    const std::uint64_t creator = e.creator;
    bool decoded = true;
    for (auto& r : e.regions) decoded = decoded && store::decode_region(&r);
    if (!decoded) continue;  // checksummed payloads should never hit this
    tht_.insert_snapshot(key.type_id, key.hash, key.p, creator,
                         to_snapshot(std::move(e)));
  }
  if (l2_ != nullptr) {
    for (store::MemoEntry& e : image->l2) l2_->put(std::move(e));
  }
  return true;
}

std::size_t AtmEngine::memory_bytes() const {
  std::size_t n = tht_.memory_bytes() + ikt_.memory_bytes() + sampler_.memory_bytes();
  if (l2_ != nullptr) n += l2_->memory_bytes();
  {
    MutexLock lock(slots_mutex_);
    for (const auto& slot : slot_storage_) n += slot->controller.memory_bytes();
  }
  {
    MutexLock lock(checks_mutex_);
    for (const auto& [task, check] : pending_checks_) {
      (void)task;
      n += check.snapshot.total_bytes();
    }
  }
  return n;
}

}  // namespace atm
