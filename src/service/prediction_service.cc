#include "service/prediction_service.h"

#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "graph/delta.h"

namespace predict {

namespace {

uint32_t ResolveThreads(int num_threads) {
  if (num_threads >= 0) return static_cast<uint32_t>(num_threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

PredictorOptions WithoutHistory(PredictorOptions options) {
  options.history = nullptr;
  return options;
}

// A single-use service for one Predictor call: no fan-out pool and no
// retained incremental-sampling state (no copy of the caller's graph).
PredictionServiceOptions OneShot(const PredictorOptions& options) {
  PredictionServiceOptions service;
  service.predictor = options;
  service.num_threads = 0;
  service.enable_incremental_sampling = false;
  return service;
}

}  // namespace

PredictionService::PredictionService(PredictionServiceOptions options)
    : options_(std::move(options)),
      stages_(options_.predictor),
      history_free_stages_(WithoutHistory(options_.predictor)),
      default_engine_key_(bsp::EngineOptionsKey(options_.predictor.engine)),
      pool_(ResolveThreads(options_.num_threads)) {}

Result<PredictionService::SamplePtr> PredictionService::ComputeSampleArtifact(
    const Graph& graph, const pipeline::StageContext& ctx) {
  const bool incremental_enabled =
      options_.enable_incremental_sampling &&
      options_.predictor.sampler.walk_segment_steps != 0;
  if (!incremental_enabled) {
    PREDICT_ASSIGN_OR_RETURN(pipeline::SampleArtifact artifact,
                             stages_.sample.Run(graph, ctx));
    return std::make_shared<const pipeline::SampleArtifact>(
        std::move(artifact));
  }

  // Take the retained previous-walk state (if any); a concurrent
  // compute for another graph simply finds the slot empty and walks
  // cold. Either way the artifact is bit-identical — the state is a
  // pure accelerator.
  std::optional<IncrementalState> prev;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    prev.swap(incremental_state_);
  }

  // ResampleIncremental decides whether the prior walk can be spliced or
  // the sample must be walked from scratch.
  pipeline::SampleArtifact artifact;
  SampleWalkRecord updated;
  pipeline::SampleStage::IncrementalStats inc_stats;
  if (prev.has_value()) {
    PREDICT_ASSIGN_OR_RETURN(
        artifact, stages_.sample.RunIncremental(
                      graph, DirtyOutVertices(prev->graph, graph),
                      prev->record, &updated, &inc_stats, ctx));
  } else {
    PREDICT_ASSIGN_OR_RETURN(artifact,
                             stages_.sample.RunRecorded(graph, &updated, ctx));
  }
  // Copy the graph before taking the lock: mutex_ also guards stats_ and
  // last_good_profiles_.
  IncrementalState next{graph, std::move(updated)};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    incremental_state_.emplace(std::move(next));
    if (prev.has_value() && !inc_stats.full_resample) {
      ++stats_.incremental_sample_updates;
      stats_.incremental_segments_reused += inc_stats.segments_reused;
    }
  }
  return std::make_shared<const pipeline::SampleArtifact>(std::move(artifact));
}

Result<PredictionReport> PredictionService::Predict(
    const PredictionRequest& request) {
  if (request.graph == nullptr) {
    return Status::InvalidArgument("PredictionRequest.graph must not be null");
  }
  const Graph& graph = *request.graph;

  // Fail fast on an unknown algorithm or bad override before sampling
  // (and before occupying a sample-cache slot for a doomed request).
  // Never degrades: a misspelled request must fail loudly.
  const Status valid =
      stages_.transform.Validate(request.algorithm, request.overrides);
  if (!valid.ok()) return valid;

  const RobustnessOptions& robustness = options_.predictor.robustness;
  const Deadline deadline = robustness.deadline_seconds > 0
                                ? Deadline::After(robustness.deadline_seconds)
                                : Deadline::Infinite();
  RequestAccounting accounting;
  const pipeline::StageContext sample_ctx{robustness.retry, deadline,
                                          &accounting.sample};
  const pipeline::StageContext profile_ctx{robustness.retry, deadline,
                                           &accounting.profile};
  const pipeline::StageContext fit_ctx{robustness.retry, deadline,
                                       &accounting.fit};

  // The target deployment decides both the history-only fallback's worker
  // count and (below) the profile-cache scenario component.
  bsp::EngineOptions engine = options_.predictor.engine;
  std::string engine_key = default_engine_key_;
  if (request.scenario.has_value()) {
    // Scenario runs simulate inline on the calling (fan-out) thread:
    // inheriting a hardware-wide num_threads here would nest an engine
    // pool inside every PredictScenarios pool task. Inline execution
    // never changes simulated output (the determinism contract).
    engine = request.scenario->ToEngineOptions(0);
    engine_key = bsp::EngineOptionsKey(engine);
  }

  // The ladder's bottom rung: answer from history alone, at the target
  // deployment's scale.
  auto history_only = [&](const Status& cause) -> Result<PredictionReport> {
    if (!robustness.degraded_fallbacks) return cause;
    Result<PredictionReport> fallback = HistoryOnlyPrediction(
        options_.predictor, request.algorithm, request.dataset,
        engine.num_workers, cause.ToString());
    if (!fallback.ok()) return fallback.status();
    if (request.scenario.has_value()) {
      fallback->scenario = request.scenario->name;
    }
    fallback->accounting = accounting;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.history_only_fallbacks;
    }
    return fallback;
  };

  // 1. Sample (cached on the graph's content + sampler options; the
  // sample is deployment-independent, so scenario requests share it).
  bool sample_reused = false;
  Result<SamplePtr> sample = sample_cache_.GetOrCompute(
      pipeline::SampleKey::For(graph, stages_.sample.options()).ToString(),
      [&] { return ComputeSampleArtifact(graph, sample_ctx); },
      &sample_reused);
  if (!sample.ok()) return history_only(sample.status());

  // 2. Transform (cheap; always recomputed). Pure config arithmetic — a
  // failure is a configuration bug, not a fault, and does not degrade.
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::TransformArtifact transform,
      stages_.transform.Run(request.algorithm, request.overrides,
                            (*sample)->realized_ratio()));

  // 3. Sample run (cached on the sample's *content* + algorithm +
  // dataset label + transformed config + the target deployment's
  // canonical engine key — everything the profile depends on, and
  // nothing it doesn't: keying on content rather than the graph version
  // the sample came from keeps profiles hitting across graph churn that
  // leaves the sample unchanged).
  const std::string profile_key =
      (*sample)->ContentKey() + "|" + request.algorithm + "|" +
      request.dataset + "|" + transform.ConfigKey() + "|" + engine_key;
  DegradationInfo degradation;
  bool profile_reused = false;
  Result<ProfilePtr> profile = profile_cache_.GetOrCompute(
      profile_key,
      [&]() -> Result<ProfilePtr> {
        PREDICT_ASSIGN_OR_RETURN(
            pipeline::ProfileArtifact artifact,
            stages_.profile.RunWithEngine(request.algorithm, request.dataset,
                                          **sample, transform, engine,
                                          profile_ctx));
        auto computed =
            std::make_shared<const pipeline::ProfileArtifact>(
                std::move(artifact));
        // Every successful profile run refreshes the stale-profile rung
        // for its key.
        std::lock_guard<std::mutex> lock(mutex_);
        last_good_profiles_[profile_key] = computed;
        return computed;
      },
      &profile_reused);
  if (!profile.ok()) {
    if (!robustness.degraded_fallbacks) return profile.status();
    // Middle rung: the last profile this service (ever) computed for the
    // exact same key — same sample, config, deployment, just possibly
    // from a previous cache epoch.
    ProfilePtr stale;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = last_good_profiles_.find(profile_key);
      if (it != last_good_profiles_.end()) stale = it->second;
    }
    if (stale == nullptr) return history_only(profile.status());
    degradation.rung = DegradationRung::kStaleProfile;
    degradation.cause = profile.status().ToString();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.stale_profile_hits;
    }
    profile = stale;
    profile_reused = true;  // answered from a prior epoch's artifact
  }

  // 4-6. Extrapolate, fit, predict — per request, never cached (history
  // exclusion and the full graph differ per request). History belongs
  // to the configured deployment only (StagesForDeployment).
  const PredictionPipeline& assemble_stages = StagesForDeployment(
      engine_key, default_engine_key_, stages_, history_free_stages_);
  Result<PredictionReport> report = AssemblePredictionReport(
      assemble_stages, graph, request.algorithm, request.dataset, **sample,
      transform, **profile, fit_ctx);
  if (!report.ok()) return history_only(report.status());
  report->degradation = degradation;
  report->accounting = accounting;
  // Transform, extrapolate, and fit always execute per request; sample
  // and profile are the cacheable stages.
  report->stages_reused = (sample_reused ? 1 : 0) + (profile_reused ? 1 : 0);
  report->stages_recomputed = 5 - report->stages_reused;
  if (request.scenario.has_value()) report->scenario = request.scenario->name;
  return report;
}

std::vector<Result<PredictionReport>> PredictionService::PredictBatch(
    const std::vector<PredictionRequest>& requests) {
  // Slots are written by index: results are positionally deterministic no
  // matter which pool thread answers which request.
  std::vector<Result<PredictionReport>> results(
      requests.size(), Status::Internal("request not computed"));
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  pool_.ParallelFor(requests.size(),
                    [&](uint64_t i) { results[i] = Predict(requests[i]); });
  return results;
}

std::vector<Result<PredictionReport>> PredictionService::PredictScenarios(
    const PredictionRequest& request,
    const std::vector<bsp::ClusterScenario>& scenarios) {
  // One request per scenario through the regular cached path: the first
  // to need the sample computes it, everyone else joins it.
  std::vector<PredictionRequest> requests(scenarios.size(), request);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    requests[i].scenario = scenarios[i];
  }
  return PredictBatch(requests);
}

ServiceCacheStats PredictionService::cache_stats() const {
  ServiceCacheStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  std::tie(stats.sample_hits, stats.sample_misses) = sample_cache_.counts();
  std::tie(stats.profile_hits, stats.profile_misses) = profile_cache_.counts();
  return stats;
}

ServiceCacheEvictions PredictionService::ClearCaches() {
  ServiceCacheEvictions evicted;
  evicted.sample_entries = sample_cache_.Clear();
  evicted.profile_entries = profile_cache_.Clear();
  std::lock_guard<std::mutex> lock(mutex_);
  evicted.incremental_states = incremental_state_.has_value() ? 1 : 0;
  incremental_state_.reset();
  return evicted;
}

Result<PredictionReport> Predictor::PredictRuntime(
    const std::string& algorithm, const Graph& graph,
    const std::string& dataset_name, const AlgorithmConfig& overrides) {
  PredictionService service(OneShot(options_));
  return service.Predict({algorithm, &graph, dataset_name, overrides, {}});
}

std::vector<Result<PredictionReport>> Predictor::PredictAcrossScenarios(
    const std::string& algorithm, const Graph& graph,
    const std::string& dataset_name, const AlgorithmConfig& overrides,
    std::span<const bsp::ClusterScenario> scenarios, bsp::ThreadPool* pool) {
  PredictionService service(OneShot(options_));
  // Slots are written by index, so results are positionally identical no
  // matter which pool thread answers which scenario.
  std::vector<Result<PredictionReport>> results(
      scenarios.size(), Status::Internal("scenario not computed"));
  auto predict_one = [&](uint64_t i) {
    results[i] = service.Predict(
        {algorithm, &graph, dataset_name, overrides, scenarios[i]});
  };
  if (pool != nullptr) {
    pool->ParallelFor(scenarios.size(), predict_one);
  } else {
    for (size_t i = 0; i < scenarios.size(); ++i) predict_one(i);
  }
  return results;
}

}  // namespace predict
