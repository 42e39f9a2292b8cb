// PredictionService: a thread-safe, caching front end over the staged
// prediction pipeline, built for what-if traffic — schedulers asking
// "how long will each of these algorithms take on each of these
// datasets?" many times over.
//
// Two artifact caches amortize the expensive front half of the pipeline:
//
//   sample cache   (graph fingerprint, SamplerOptions) -> SampleArtifact
//   profile cache  (sample key, algorithm, dataset, transformed config,
//                  scenario key) -> ProfileArtifact
//
// Both are shared across concurrent Predict calls: the first request for
// a key computes the artifact while later requests for the same key wait
// on it (no duplicated sampling or sample runs, no thundering herd).
// PredictBatch fans requests out over a bsp::ThreadPool.
//
// Requests may target a cluster scenario (bsp/scenario.h) other than the
// service's configured deployment: the sample cache is scenario-agnostic
// (sampling is deployment-independent) and keeps its hits, while the
// profile cache keys on the scenario's canonical engine key, so a
// profile measured under one deployment is never served for another.
// PredictScenarios sweeps one request across many scenarios, reusing the
// cached sample and fanning the per-scenario sample runs out over the
// pool.
//
// Predictor (declared below) is a single-use PredictionService, so
// Predict is the only code that composes the stages.
//
// Determinism contract: every stage is deterministic, so a report served
// from warm caches under any concurrency is bit-identical to a cold
// sequential Predict on a fresh service (what Predictor::PredictRuntime
// runs) — except sample_wall_seconds, which reports host timing of
// whichever run produced the artifact, and the execution fields
// (accounting, stages_reused/stages_recomputed), which count whichever
// attempts and cache hits this host's interleaving actually produced.
//
// Failure semantics (the robustness contract):
//   - A failed stage never populates a cache, and concurrent joiners of
//     a failed computation receive that failure without latching it
//     (SingleFlightCache, service/single_flight_cache.h).
//   - With predictor.robustness.degraded_fallbacks set, a failed or
//     deadline-exceeded request walks the degradation ladder: last good
//     profile cached for the same profile key (survives ClearCaches —
//     "previous epoch" semantics), then a history-only fit, then the
//     explicit error. The report's `degradation` field says which rung
//     answered.

#ifndef PREDICT_SERVICE_PREDICTION_SERVICE_H_
#define PREDICT_SERVICE_PREDICTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bsp/scenario.h"
#include "bsp/thread_pool.h"
#include "common/result.h"
#include "core/predictor.h"
#include "pipeline/artifacts.h"
#include "service/single_flight_cache.h"

namespace predict {

/// One what-if query: predict `algorithm` on `*graph`.
struct PredictionRequest {
  std::string algorithm;
  /// The full graph. Not owned; must outlive the call. Requests may
  /// share one graph — the service reads it concurrently, never writes.
  const Graph* graph = nullptr;
  /// Labels profiles and excludes same-dataset history rows.
  std::string dataset;
  /// Overrides for the *actual* run's configuration.
  AlgorithmConfig overrides;
  /// Target deployment; unset = the service's configured engine. Only
  /// the engine configuration changes — sampler and cost-model options
  /// stay the service's (the caches remain valid across scenarios).
  /// History rows carry no deployment identity, so they join the fit
  /// only when the scenario's canonical engine key matches the
  /// service's configured engine; other scenarios fit on the sample run
  /// alone (the paper re-trains its cost model per cluster).
  std::optional<bsp::ClusterScenario> scenario;
};

struct PredictionServiceOptions {
  /// Pipeline configuration shared by every request this service answers
  /// (caches are only valid within one such configuration).
  PredictorOptions predictor;

  /// Host threads for PredictBatch fan-out: -1 = one per hardware
  /// thread, 0 = inline on the caller. Independent of
  /// predictor.engine.num_threads (the per-run simulation threads); for
  /// batch serving, prefer engine.num_threads = 0 and let the batch
  /// fan-out supply the parallelism.
  int num_threads = -1;

  /// Maintain the characterized sample incrementally across graph
  /// versions: on a sample-cache miss the service diffs the new graph
  /// against the last graph it sampled and re-walks only the affected
  /// walk segments (bit-identical to sampling from scratch). Effective
  /// only when predictor.sampler.walk_segment_steps > 0; costs one
  /// retained copy of the last-sampled graph plus its walk record.
  bool enable_incremental_sampling = true;
};

/// Cumulative cache accounting. A "hit" includes joining an in-flight
/// computation of the same key (shared work, not duplicated work).
struct ServiceCacheStats {
  uint64_t sample_hits = 0;
  uint64_t sample_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;
  /// Degraded-mode accounting: requests answered from the stale-profile
  /// rung and from the history-only rung.
  uint64_t stale_profile_hits = 0;
  uint64_t history_only_fallbacks = 0;
  /// Incremental-sampling accounting: sample-cache misses answered by
  /// splicing the previous walk record (vs sampling from scratch), and
  /// walk segments replayed without re-walking across those updates.
  uint64_t incremental_sample_updates = 0;
  uint64_t incremental_segments_reused = 0;
};

/// What ClearCaches dropped.
struct ServiceCacheEvictions {
  uint64_t sample_entries = 0;
  uint64_t profile_entries = 0;
  /// 1 if a retained incremental-sampling state (graph + walk record)
  /// was dropped.
  uint64_t incremental_states = 0;
};

/// \brief Concurrent, caching prediction server over one pipeline
/// configuration. All public methods are thread-safe.
class PredictionService {
 public:
  explicit PredictionService(PredictionServiceOptions options);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Answers one request through the caches. Safe to call concurrently
  /// with any other method.
  Result<PredictionReport> Predict(const PredictionRequest& request);

  /// Answers a batch, fanning out across the service's thread pool.
  /// results[i] corresponds to requests[i]; outputs are bit-identical to
  /// issuing the requests sequentially (any thread count, any request
  /// order — see the determinism contract above).
  std::vector<Result<PredictionReport>> PredictBatch(
      const std::vector<PredictionRequest>& requests);

  /// Cross-deployment what-if: answers `request` under each scenario
  /// (ignoring request.scenario), fanning out across the pool. The
  /// sample is shared across scenarios via the sample cache; each
  /// scenario's sample run populates its own profile-cache slot.
  /// results[i] corresponds to scenarios[i] and is bit-identical to a
  /// sequential per-scenario loop.
  std::vector<Result<PredictionReport>> PredictScenarios(
      const PredictionRequest& request,
      const std::vector<bsp::ClusterScenario>& scenarios);

  ServiceCacheStats cache_stats() const;

  /// Drops every cached artifact and the incremental-sampling state
  /// (stats and last-good profiles are kept). Returns what was evicted.
  ServiceCacheEvictions ClearCaches();

  const PredictionServiceOptions& options() const { return options_; }

 private:
  using SamplePtr = std::shared_ptr<const pipeline::SampleArtifact>;
  using ProfilePtr = std::shared_ptr<const pipeline::ProfileArtifact>;

  /// Computes the sample artifact on a cache miss: through
  /// RunIncremental when a previous walk is retained (ResampleIncremental
  /// decides whether splicing pays), through RunRecorded otherwise.
  Result<SamplePtr> ComputeSampleArtifact(const Graph& graph,
                                          const pipeline::StageContext& ctx);

  PredictionServiceOptions options_;
  PredictionPipeline stages_;
  /// stages_ with the history store detached: assembles reports for
  /// scenarios that model a deployment other than the configured one
  /// (history rows belong to the configured deployment only).
  PredictionPipeline history_free_stages_;
  /// EngineOptionsKey of the service's configured deployment, the
  /// profile-cache scenario component for requests without a scenario.
  std::string default_engine_key_;

  /// Serializes PredictBatch callers (ThreadPool runs one batch at a
  /// time); single Predict calls do not take this.
  std::mutex batch_mutex_;
  bsp::ThreadPool pool_;

  SingleFlightCache<pipeline::SampleArtifact> sample_cache_;
  SingleFlightCache<pipeline::ProfileArtifact> profile_cache_;

  mutable std::mutex mutex_;  // guards the state below and stats_
  /// Last successfully computed profile per profile key: the
  /// stale-profile degradation rung. Updated on every successful profile
  /// compute; intentionally NOT dropped by ClearCaches, so a service
  /// whose caches were cleared (a "restart") can still answer from the
  /// previous epoch's profiles when the fresh run fails.
  std::unordered_map<std::string, ProfilePtr> last_good_profiles_;
  /// The last graph this service sampled plus the walk record taken on
  /// it — the splice source for incremental re-sampling. One slot: the
  /// evolving-graph workload this serves is "predict, churn, re-predict"
  /// on one logical graph. A compute in flight takes the slot (so a
  /// concurrent sample for a different graph falls back to a cold walk)
  /// and stores the refreshed state back when done.
  struct IncrementalState {
    Graph graph;
    SampleWalkRecord record;
  };
  std::optional<IncrementalState> incremental_state_;
  /// The counters the caches do not keep themselves (hits and misses
  /// live in sample_cache_ / profile_cache_).
  ServiceCacheStats stats_;
};

/// \brief Runs the PREDIcT methodology for one (algorithm, graph) pair:
/// each call builds a single-use PredictionService (no fan-out pool, no
/// incremental-sampling state, so no copy of the graph) and predicts
/// through it.
class Predictor {
 public:
  explicit Predictor(PredictorOptions options) : options_(std::move(options)) {}

  /// Predicts the runtime of `algorithm` on `graph`.
  ///
  /// `dataset_name` labels profiles and excludes same-dataset rows from
  /// the history store (the paper trains on "all other datasets but the
  /// predicted one"). `overrides` configure the *actual* run; the
  /// transform function derives the sample run's configuration from them.
  ///
  /// Honors options().robustness like PredictionService::Predict; with a
  /// fresh service there is no previous-epoch profile, so the ladder
  /// falls from the full pipeline straight to history-only. Validation
  /// failures (unknown algorithm, bad override) never degrade.
  Result<PredictionReport> PredictRuntime(const std::string& algorithm,
                                          const Graph& graph,
                                          const std::string& dataset_name = "",
                                          const AlgorithmConfig& overrides = {});

  /// Cross-deployment what-if (the paper's §5 deployment axis): predicts
  /// `algorithm` on `graph` under each scenario, as one request per
  /// scenario to a single-use service. The graph is sampled once (the
  /// sample cache shares it); the sample run is profiled and the cost
  /// model fitted per scenario, history joining only the scenario whose
  /// engine key matches the baseline (StagesForDeployment). Each
  /// scenario gets its own deadline and walks its own degradation
  /// ladder.
  ///
  /// results[i] corresponds to scenarios[i]. `pool` fans the scenarios
  /// out (null = sequential); every stage is deterministic, so the
  /// fanned-out batch is bit-identical to the sequential loop. Scenario
  /// runs simulate inline on their fan-out thread (num_threads = 0).
  std::vector<Result<PredictionReport>> PredictAcrossScenarios(
      const std::string& algorithm, const Graph& graph,
      const std::string& dataset_name, const AlgorithmConfig& overrides,
      std::span<const bsp::ClusterScenario> scenarios,
      bsp::ThreadPool* pool = nullptr);

  const PredictorOptions& options() const { return options_; }

 private:
  PredictorOptions options_;
};

}  // namespace predict

#endif  // PREDICT_SERVICE_PREDICTION_SERVICE_H_
