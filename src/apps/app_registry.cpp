#include "apps/app_registry.hpp"

#include <cstdio>

#include "apps/blackscholes.hpp"
#include "apps/gauss_seidel.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/sparse_lu.hpp"
#include "apps/swaptions.hpp"
#include "common/env.hpp"

namespace atm::apps {

double App::program_error(const RunResult& reference, const RunResult& result) const {
  if (result.app_specific_error >= 0.0) return result.app_specific_error;
  return euclidean_relative_error<double>(reference.output, result.output);
}

rt::RuntimeConfig runtime_config(const RunConfig& config) {
  return {.num_threads = config.threads,
          .enable_tracing = config.tracing,
          .sched = config.sched,
          .help_taskwait = config.help_taskwait,
          .metrics = config.metrics,
          .metrics_interval_ms = config.metrics_interval_ms,
          .metrics_live = config.metrics_live,
          .profile_tasks = config.profile_tasks,
          .profile_max_types = config.profile_max_types};
}

std::unique_ptr<AtmEngine> make_engine(const RunConfig& config) {
  if (config.mode == AtmMode::Off) return nullptr;
  AtmConfig c;
  c.mode = config.mode;
  c.log2_buckets = config.log2_buckets;
  c.bucket_capacity = config.bucket_capacity;
  c.use_ikt = config.use_ikt;
  c.type_aware = config.type_aware;
  c.fixed_p = config.fixed_p;
  c.shuffle_seed = config.shuffle_seed;
  c.verify_full_inputs = config.verify_full_inputs;
  c.eviction = config.eviction;
  c.tolerance_rel = config.tolerance_rel;
  c.tolerance_abs = config.tolerance_abs;
  c.tolerance_probes = config.tolerance_probes;
  c.l2_enabled = config.l2_enabled;
  c.l2_budget_bytes = config.l2_budget_bytes;
  c.l2_compress = config.l2_compress;
  c.reuse_log_cap = config.reuse_log_cap;
  c.profile_max_types = config.profile_max_types;
  auto engine = std::make_unique<AtmEngine>(c);
  if (!config.load_store_path.empty()) {
    std::string error;
    if (!engine->load_store(config.load_store_path, &error)) {
      // A cold start is the correct fallback: report and continue.
      std::fprintf(stderr, "atm: warm start skipped: %s\n", error.c_str());
    }
  }
  return engine;
}

void finalize_result(RunResult& result, rt::Runtime& runtime, AtmEngine* engine,
                     const rt::TaskType* memoized_type, const RunConfig& config) {
  result.counters = runtime.counters();
  if (engine != nullptr) {
    result.atm = engine->stats();
    result.atm_memory_bytes = engine->memory_bytes();
    if (!config.save_store_path.empty()) {
      std::string error;
      if (!engine->save_store(config.save_store_path, &error)) {
        std::fprintf(stderr, "atm: store save failed: %s\n", error.c_str());
      }
    }
    if (memoized_type != nullptr) {
      result.final_p = engine->current_p(*memoized_type);
      result.final_phase = engine->phase(*memoized_type);
      result.p_history = engine->p_history(*memoized_type);
      result.blacklist_size = engine->blacklist_size(*memoized_type);
    }
  }
  // Runtime-side observability rides in the ATM snapshot so the harnesses
  // see it uniformly — even in mode Off, where there is no engine at all.
  // (Filled after the engine snapshot copy: the engine knows nothing about
  // these fields and would zero them.)
  const rt::DepIndexStats dep = runtime.dep_index_stats();
  result.atm.dep_exact_hits = dep.exact_hits;
  result.atm.dep_tree_fallbacks = dep.tree_fallbacks;
  result.atm.prune_scans = dep.prune_scans;
  result.sched = runtime.sched_stats();
  if (config.tracing) {
    const auto& tracer = runtime.tracer();
    for (std::size_t lane = 0; lane < tracer.lane_count(); ++lane) {
      result.lane_summaries.push_back(tracer.summarize_lane(lane));
      result.trace_lanes.push_back(tracer.lane(lane));
    }
    result.trace_master_lane = tracer.master_lane();
    result.depth_samples = tracer.depth_samples();
    result.ascii_timeline = tracer.ascii_timeline();
  }
  // Harvest the sampler series first (stops the sampler thread), then take
  // the final registry snapshot — it includes everything the collectors see
  // at end-of-run, so harnesses get one coherent closing picture.
  result.metrics_series = runtime.metrics_series();
  if (config.metrics) result.metrics = runtime.metrics().snapshot();
}

namespace {
/// Jacobi trains longer than Gauss-Seidel (Table II: 150 vs 100).
StencilParams jacobi_params(Preset preset) {
  StencilParams p = StencilParams::preset(preset);
  switch (preset) {
    case Preset::Test: p.l_training = 14; break;
    case Preset::Bench: p.l_training = 64; break;
    case Preset::Paper: p.l_training = 150; break;
  }
  return p;
}
}  // namespace

std::vector<std::unique_ptr<App>> make_all_apps(Preset preset) {
  std::vector<std::unique_ptr<App>> apps;
  apps.push_back(std::make_unique<BlackscholesApp>(BlackscholesParams::preset(preset)));
  apps.push_back(std::make_unique<GaussSeidelApp>(StencilParams::preset(preset)));
  apps.push_back(std::make_unique<JacobiApp>(jacobi_params(preset)));
  apps.push_back(std::make_unique<KmeansApp>(KmeansParams::preset(preset)));
  apps.push_back(std::make_unique<SparseLuApp>(SparseLuParams::preset(preset)));
  apps.push_back(std::make_unique<SwaptionsApp>(SwaptionsParams::preset(preset)));
  return apps;
}

std::unique_ptr<App> make_app(const std::string& name, Preset preset) {
  if (name == "blackscholes")
    return std::make_unique<BlackscholesApp>(BlackscholesParams::preset(preset));
  if (name == "gauss-seidel" || name == "gs")
    return std::make_unique<GaussSeidelApp>(StencilParams::preset(preset));
  if (name == "jacobi") return std::make_unique<JacobiApp>(jacobi_params(preset));
  if (name == "kmeans") return std::make_unique<KmeansApp>(KmeansParams::preset(preset));
  if (name == "lu" || name == "sparselu")
    return std::make_unique<SparseLuApp>(SparseLuParams::preset(preset));
  if (name == "swaptions")
    return std::make_unique<SwaptionsApp>(SwaptionsParams::preset(preset));
  return nullptr;
}

Preset preset_from_env() {
  const std::string scale = env_string("ATM_SCALE", env_string("ATM_PRESET"));
  if (scale == "paper") return Preset::Paper;
  if (scale == "test" || scale == "tiny") return Preset::Test;
  return Preset::Bench;
}

}  // namespace atm::apps
