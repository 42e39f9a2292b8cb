// End-to-end benchmark of the prediction service.
//
//   perfbench --workload cold_mix|whatif_warm|churn_repredict
//             --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--smoke]
//
// The users of a runtime predictor are schedulers. They ask cold
// questions, repeat what-if questions, and ask again after the graph
// changes; each workload below is one of those flows, driven through the
// public API of src/service and src/pipeline by one closed-loop client
// (the next unit of work starts when the previous one returned) that
// issues a unit's predictions as PredictionService::Predict calls, one
// after another. The services own a pool of 3 workers, which with the
// calling thread makes 4 threads; set-up warms the caches over it and the
// traced run measures its parallel efficiency. The timed loop does not
// fan out: on a shared host one descheduled CPU stalls every fork-join,
// and 4-thread what-if batches swung 3x in throughput between runs.
//
//   cold_mix         12 requests (6 algorithms x wiki, lj at full
//                    scale), caches cleared before each: the sample run
//                    (src/bsp, src/algorithms) does 90-99% of the work.
//   whatif_warm      a Zipf-skewed trace of what-if questions over warm
//                    keys (6 algorithms x lj, wiki, tw, uk at scale 0.25
//                    x 5 scenarios) against a service with a history
//                    store: no sample run ever happens, the cache,
//                    transform, extrapolation, fit and bootstrap do the
//                    work.
//   churn_repredict  rounds of 1% edge churn on wiki, each followed by a
//                    re-predict of the 6 algorithms: the overlay and
//                    compaction (src/graph) and incremental sampling
//                    (src/sampling) do the work; the churn avoids the
//                    sampled walk, so every profile is reused.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice, first through the service as in --trace 0, then through the
// same public stage calls the service makes, composed here and wrapped
// in spans, and prints per-layer metrics. All load is generated from
// --seed before timing starts. Every timed report is compared, outside
// the timed region, with a reference computed apart from the timed
// service. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "bsp/thread_pool.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "datasets/datasets.h"
#include "graph/delta.h"
#include "service/prediction_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace predict;

const std::vector<std::string> kAlgorithms = {
    "pagerank",     "connected_components", "topk_ranking",
    "neighborhood", "semiclustering",       "rwr_proximity"};

// Cells whose actual run is cheap enough to measure accuracy on every
// run. Excluded per actual run on full-scale wiki/lj: semiclustering
// 19-27 s, topk_ranking 2.8-5.1 s, neighborhood 1.6-2.3 s.
const std::vector<std::string> kAccuracyAlgorithms = {
    "pagerank", "connected_components", "rwr_proximity"};

bool IsAccuracyAlgorithm(const std::string& algorithm) {
  return std::find(kAccuracyAlgorithms.begin(), kAccuracyAlgorithms.end(),
                   algorithm) != kAccuracyAlgorithms.end();
}

// Pool workers of each service (set-up warm-up and the parallel-efficiency
// probe); the calling thread makes the fourth.
constexpr int kPoolThreads = 3;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).MoveValue();
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The smallest value with more than a share q of the sample at or below
// it (rank floor(q n) + 1); 0 for an empty sample. For an even count this
// takes the upper of the two middle values as the median: cold_mix is
// exactly half cheap requests, and the lower one, the slowest of the
// cheap half, is the maximum of many samples and moved by 27% between
// seeds.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
                          std::floor(q * static_cast<double>(values.size()))) +
                      1;
  return values[std::min(values.size(), rank) - 1];
}

// Bytes the program holds on the heap right now (arenas of every thread
// plus mmapped blocks). Unlike the resident set, this does not depend on
// how the allocator's free pages happen to be fragmented across threads.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

void PrintResult(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------ checking

// Everything deterministic in a result, as one comparable string. Host
// timing (sample_wall_seconds), attempt accounting and the stage-reuse
// counters describe the execution, not the prediction, and are left out.
std::string Canonical(const Result<PredictionReport>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  const PredictionReport& r = *result;
  char buf[128];
  std::string out = r.algorithm + "|" + r.dataset + "|" + r.scenario + "|" +
                    std::to_string(r.predicted_iterations) + "|";
  for (const double s : r.per_iteration_seconds) {
    std::snprintf(buf, sizeof(buf), "%.17g,", s);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g|%.17g|%.17g",
                r.predicted_superstep_seconds, r.distribution.p50_seconds,
                r.distribution.p95_seconds, r.sample_total_seconds,
                r.realized_sampling_ratio);
  out += buf;
  out += "|" + r.runtime_model_description + "|" + r.transform_description +
         "|" + DegradationRungName(r.degradation.rung);
  return out;
}

// Counts attempted predictions, errors and reference mismatches.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Compare(const Result<PredictionReport>& got, const std::string& want,
               const char* where) {
    ++attempted;
    if (got.ok() && Canonical(got) == want) return;
    ++failed;
    if (failed <= 3) {
      std::fprintf(stderr, "perfbench: %s: %s\n", where,
                   got.ok() ? "report differs from the reference"
                            : got.status().ToString().c_str());
    }
  }
};

// ------------------------------------------------------------ set-up

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;  // tiny datasets: the benchmark's own smoke test
};

AlgorithmConfig Overrides(const std::string& algorithm, const Graph& graph) {
  if (algorithm != "pagerank") return {};
  return {{"tau", 0.001 / static_cast<double>(graph.num_vertices())}};
}

const bsp::ClusterScenario& ScenarioNamed(const std::string& name) {
  for (const bsp::ClusterScenario& s : bsp::BuiltinScenarios()) {
    if (s.name == name) return s;
  }
  Fail("no built-in scenario " + name);
}

// BRJ at 10% on giraph-29, simulated inline (engine num_threads = 0).
PredictorOptions BaseOptions() {
  PredictorOptions options;
  options.engine = ScenarioNamed("giraph-29").ToEngineOptions(0);
  return options;
}

// Generates a dataset, adding the generation time to *generate_s.
Graph Dataset(const std::string& name, double scale, double* generate_s) {
  const Clock::time_point start = Clock::now();
  Graph graph = Must(MakeDataset(name, scale), "MakeDataset " + name);
  *generate_s += Since(start);
  return graph;
}

PredictionRequest Request(const std::string& algorithm, const Graph& graph,
                          const std::string& dataset) {
  PredictionRequest request;
  request.algorithm = algorithm;
  request.graph = &graph;
  request.dataset = dataset;
  request.overrides = Overrides(algorithm, graph);
  return request;
}

std::vector<PredictionRequest> AllAlgorithms(const Graph& graph,
                                             const std::string& dataset) {
  std::vector<PredictionRequest> requests;
  for (const std::string& algorithm : kAlgorithms) {
    requests.push_back(Request(algorithm, graph, dataset));
  }
  return requests;
}

std::vector<PredictionRequest> Flatten(
    const std::vector<std::vector<PredictionRequest>>& groups) {
  std::vector<PredictionRequest> all;
  for (const auto& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

// Mean absolute relative error (in %) of predicted superstep seconds
// against actual runs, for `reports` of the accuracy algorithms.
double RuntimeMapePercent(
    const std::vector<std::pair<const Graph*, PredictionReport>>& reports,
    const bsp::EngineOptions& engine) {
  double sum = 0.0;
  for (const auto& [graph, report] : reports) {
    RunOptions options;
    options.engine = engine;
    options.config_overrides = Overrides(report.algorithm, *graph);
    const AlgorithmRunResult actual =
        Must(RunAlgorithmByName(report.algorithm, *graph, options),
             "actual run of " + report.algorithm);
    sum += std::fabs(EvaluatePrediction(report, actual.stats).runtime_error);
  }
  return reports.empty() ? 0.0
                         : 100.0 * sum / static_cast<double>(reports.size());
}

// ------------------------------------------------------------ timing

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Latencies of the timed units of work (one request, question or round).
struct Timing {
  // The heap is sampled after each of the first kHeapUnits units only,
  // so peak_heap_mb does not depend on how many units a run completes.
  static constexpr size_t kHeapUnits = 100;

  std::vector<double> unit_s;
  uint64_t predictions = 0;
  double timed_s = 0.0;
  double peak_heap_mb = 0.0;

  void Add(double seconds, uint64_t unit_predictions) {
    unit_s.push_back(seconds);
    predictions += unit_predictions;
    timed_s += seconds;
    if (unit_s.size() <= kHeapUnits) {
      peak_heap_mb = std::max(peak_heap_mb, HeapMb());
    }
  }
  double P50() const { return Percentile(unit_s, 0.5); }
};

void AddEndToEnd(const Timing& timing, double setup_s, const Checker& checker,
                 double mape_percent, RunResult* result) {
  result->Add("setup_s", setup_s, "s");
  result->Add("throughput_per_s",
              Ratio(static_cast<double>(timing.predictions), timing.timed_s),
              "1/s");
  result->Add("latency_p50_ms", 1e3 * Percentile(timing.unit_s, 0.5), "ms");
  result->Add("latency_p90_ms", 1e3 * Percentile(timing.unit_s, 0.9), "ms");
  result->Add("ok_share",
              checker.attempted == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(checker.failed) /
                              static_cast<double>(checker.attempted),
              "ratio");
  result->Add("peak_heap_mb", timing.peak_heap_mb, "MB");
  result->Add("runtime_mape", mape_percent, "%");
}

// ------------------------------------------------------------ tracing

// Counts gathered at the layer boundaries of the composed pipeline.
struct LayerCounts {
  std::mutex mutex;
  uint64_t sample_calls = 0;
  uint64_t sample_vertices = 0;
  uint64_t full_resamples = 0;
  uint64_t segments_total = 0;
  uint64_t segments_reused = 0;
  uint64_t profile_runs = 0;
  uint64_t supersteps = 0;
  double messages = 0.0;
  double remote_bytes = 0.0;
  uint64_t fits = 0;
  uint64_t history_rows = 0;
  uint64_t rounds = 0;
  uint64_t rounds_sample_reused = 0;
  uint64_t edges_changed = 0;

  void Sampled(const pipeline::SampleArtifact& sample, bool full) {
    std::lock_guard<std::mutex> lock(mutex);
    ++sample_calls;
    sample_vertices += sample.sample.vertices.size();
    if (full) ++full_resamples;
  }
  void Profiled(const pipeline::ProfileArtifact& profile) {
    std::lock_guard<std::mutex> lock(mutex);
    ++profile_runs;
    for (const IterationProfile& it : profile.sample_profile.iterations) {
      ++supersteps;
      const FeatureVector& f = it.critical_features;
      messages += f[static_cast<int>(Feature::kLocMsg)] +
                  f[static_cast<int>(Feature::kRemMsg)];
      remote_bytes += f[static_cast<int>(Feature::kRemMsgSize)];
    }
  }
  void Fitted(uint64_t rows) {
    std::lock_guard<std::mutex> lock(mutex);
    ++fits;
    history_rows += rows;
  }
};

// The artifacts the composed pipeline keeps between predictions, keyed
// the way PredictionService keys its sample and profile caches.
struct ArtifactStore {
  std::mutex mutex;
  std::unordered_map<std::string,
                     std::shared_ptr<const pipeline::SampleArtifact>>
      samples;
  std::unordered_map<std::string,
                     std::shared_ptr<const pipeline::ProfileArtifact>>
      profiles;
};

// The public stage calls PredictionService::Predict makes, composed in
// the same order and each wrapped in a span. `store` null = every
// artifact is computed (the cold path).
struct Composer {
  PredictionPipeline with_history;
  PredictionPipeline history_free;
  std::string baseline_key;
  const HistoryStore* history;
  Tracer* tracer;       // null: no spans
  LayerCounts* counts;  // required

  explicit Composer(const PredictorOptions& options, Tracer* t,
                    LayerCounts* c)
      : with_history(options),
        history_free([&] {
          PredictorOptions o = options;
          o.history = nullptr;
          return o;
        }()),
        baseline_key(bsp::EngineOptionsKey(options.engine)),
        history(options.history),
        tracer(t),
        counts(c) {}

  static std::string ProfileKey(const pipeline::SampleArtifact& sample,
                                const PredictionRequest& request,
                                const pipeline::TransformArtifact& transform,
                                const std::string& engine_key) {
    return sample.ContentKey() + "|" + request.algorithm + "|" +
           request.dataset + "|" + transform.ConfigKey() + "|" + engine_key;
  }

  Result<PredictionReport> Predict(const PredictionRequest& request,
                                   ArtifactStore* store, int64_t parent,
                                   uint64_t id) const {
    const ScopedSpan root(tracer, "service.predict", parent, id);
    const int64_t p = root.index();
    const Graph& graph = *request.graph;
    bsp::EngineOptions engine = with_history.profile.engine();
    std::string engine_key = baseline_key;
    if (request.scenario.has_value()) {
      engine = request.scenario->ToEngineOptions(0);
      engine_key = bsp::EngineOptionsKey(engine);
    }

    std::shared_ptr<const pipeline::SampleArtifact> sample;
    if (store != nullptr) {
      const ScopedSpan span(tracer, "service.lookup", p, id);
      const std::string key =
          pipeline::SampleKey::For(graph, with_history.sample.options())
              .ToString();
      std::lock_guard<std::mutex> lock(store->mutex);
      const auto it = store->samples.find(key);
      if (it != store->samples.end()) sample = it->second;
    }
    if (sample == nullptr) {
      const ScopedSpan span(tracer, "sampling.sample", p, id);
      sample = std::make_shared<const pipeline::SampleArtifact>(
          Must(with_history.sample.Run(graph), "SampleStage::Run"));
      counts->Sampled(*sample, true);
    }

    Result<pipeline::TransformArtifact> transform = [&] {
      const ScopedSpan span(tracer, "pipeline.transform", p, id);
      const Status valid = with_history.transform.Validate(request.algorithm,
                                                           request.overrides);
      if (!valid.ok()) return Result<pipeline::TransformArtifact>(valid);
      return with_history.transform.Run(request.algorithm, request.overrides,
                                        sample->realized_ratio());
    }();
    if (!transform.ok()) return transform.status();

    std::shared_ptr<const pipeline::ProfileArtifact> profile;
    std::string profile_key;
    if (store != nullptr) {
      const ScopedSpan span(tracer, "service.lookup", p, id);
      profile_key = ProfileKey(*sample, request, *transform, engine_key);
      std::lock_guard<std::mutex> lock(store->mutex);
      const auto it = store->profiles.find(profile_key);
      if (it != store->profiles.end()) profile = it->second;
    }
    if (profile == nullptr) {
      const ScopedSpan span(tracer, "bsp.profile", p, id);
      Result<pipeline::ProfileArtifact> run =
          with_history.profile.RunWithEngine(request.algorithm,
                                             request.dataset, *sample,
                                             *transform, engine);
      if (!run.ok()) return run.status();
      profile = std::make_shared<const pipeline::ProfileArtifact>(
          std::move(run).MoveValue());
      counts->Profiled(*profile);
      if (store != nullptr) {
        std::lock_guard<std::mutex> lock(store->mutex);
        store->profiles.emplace(profile_key, profile);
      }
    }

    const bool uses_history = engine_key == baseline_key;
    const PredictionPipeline& stages =
        StagesForDeployment(engine_key, baseline_key, with_history,
                            history_free);
    {
      // Timed apart from AssemblePredictionReport, which runs both again:
      // the bootstrap's share is the assemble time minus these two.
      const ScopedSpan span(tracer, "core.extrapolate", p, id);
      const auto extrapolated =
          stages.extrapolate.Run(graph, *sample, *profile);
      if (!extrapolated.ok()) return extrapolated.status();
    }
    {
      const ScopedSpan span(tracer, "core.fit", p, id);
      const auto fitted =
          stages.fit.Run(*profile, request.algorithm, request.dataset);
      if (!fitted.ok()) return fitted.status();
    }
    Result<PredictionReport> report = [&] {
      const ScopedSpan span(tracer, "core.assemble", p, id);
      return AssemblePredictionReport(stages, graph, request.algorithm,
                                      request.dataset, *sample, *transform,
                                      *profile);
    }();
    if (!report.ok()) return report;
    if (request.scenario.has_value()) report->scenario = request.scenario->name;
    counts->Fitted(uses_history && history != nullptr
                       ? history->TrainingRowsExcluding(request.algorithm,
                                                        request.dataset)
                             .size()
                       : 0);
    return report;
  }

  // Predicts `requests` one after another, or fanned out over `pool`
  // when it is not null; results by position.
  std::vector<Result<PredictionReport>> PredictAll(
      const std::vector<PredictionRequest>& requests, ArtifactStore* store,
      bsp::ThreadPool* pool, int64_t parent, uint64_t id) const {
    std::vector<std::optional<Result<PredictionReport>>> slots(
        requests.size());
    auto predict = [&](uint64_t i) {
      slots[i].emplace(Predict(requests[i], store, parent, id));
    };
    if (pool != nullptr) {
      pool->ParallelFor(requests.size(), predict);
    } else {
      for (uint64_t i = 0; i < requests.size(); ++i) predict(i);
    }
    std::vector<Result<PredictionReport>> out;
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }
};

// Service-side measurements of the --trace 1 run's first pass.
struct ServicePass {
  Timing timing;
  ServiceCacheStats stats;  // accumulated over the pass
  uint64_t stages_reused = 0;
  uint64_t reports = 0;
  double predict_hit_us = 0.0;
  double parallel_efficiency = 0.0;

  void Count(const std::vector<Result<PredictionReport>>& out) {
    for (const auto& r : out) {
      if (!r.ok()) continue;
      ++reports;
      stages_reused += static_cast<uint64_t>(r->stages_reused);
    }
  }
};

ServiceCacheStats Delta(const ServiceCacheStats& after,
                        const ServiceCacheStats& before) {
  ServiceCacheStats d;
  d.sample_hits = after.sample_hits - before.sample_hits;
  d.sample_misses = after.sample_misses - before.sample_misses;
  d.profile_hits = after.profile_hits - before.profile_hits;
  d.profile_misses = after.profile_misses - before.profile_misses;
  return d;
}

void AddPerLayer(const Tracer& tracer, const LayerCounts& c,
                 const ServicePass& service, const Timing& traced,
                 double generate_s, RunResult* result) {
  const std::map<std::string, SpanTotals> totals = tracer.TotalsByName();
  auto mean_self = [&](const char* name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.self_s / static_cast<double>(it->second.count);
  };
  const double runs = static_cast<double>(c.profile_runs);
  const double rounds = static_cast<double>(c.rounds);

  result->Add("bsp.profile_ms", 1e3 * mean_self("bsp.profile"), "ms");
  result->Add("bsp.profile_runs", runs, "count");
  result->Add("bsp.supersteps", Ratio(static_cast<double>(c.supersteps), runs),
              "count");
  result->Add("bsp.messages", Ratio(c.messages, runs), "count");
  result->Add("bsp.remote_bytes", Ratio(c.remote_bytes, runs), "bytes");

  const double sample_calls = static_cast<double>(c.sample_calls);
  result->Add("sampling.sample_ms", 1e3 * mean_self("sampling.sample"), "ms");
  result->Add("sampling.dirty_ms", 1e3 * mean_self("sampling.dirty"), "ms");
  result->Add("sampling.retain_ms", 1e3 * mean_self("sampling.retain"), "ms");
  result->Add("sampling.segments_reused_ratio",
              Ratio(static_cast<double>(c.segments_reused),
                    static_cast<double>(c.segments_total)),
              "ratio");
  result->Add("sampling.full_resample_share",
              Ratio(static_cast<double>(c.full_resamples), sample_calls),
              "ratio");
  result->Add("sampling.sample_vertices",
              Ratio(static_cast<double>(c.sample_vertices), sample_calls),
              "count");
  result->Add("sampling.sample_reused_round_share",
              Ratio(static_cast<double>(c.rounds_sample_reused), rounds),
              "ratio");

  result->Add("graph.apply_ms", 1e3 * mean_self("graph.apply"), "ms");
  result->Add("graph.materialize_ms", 1e3 * mean_self("graph.materialize"),
              "ms");
  result->Add("graph.fingerprint_ms", 1e3 * mean_self("graph.fingerprint"),
              "ms");
  result->Add("graph.edges_changed",
              Ratio(static_cast<double>(c.edges_changed), rounds), "count");

  const double extrapolate = mean_self("core.extrapolate");
  const double fit = mean_self("core.fit");
  result->Add("pipeline.transform_us", 1e6 * mean_self("pipeline.transform"),
              "us");
  result->Add("core.extrapolate_us", 1e6 * extrapolate, "us");
  result->Add("core.fit_us", 1e6 * fit, "us");
  result->Add("core.bootstrap_us",
              1e6 * std::max(0.0, mean_self("core.assemble") - extrapolate -
                                      fit),
              "us");
  result->Add("core.history_rows",
              Ratio(static_cast<double>(c.history_rows),
                    static_cast<double>(c.fits)),
              "count");

  const ServiceCacheStats& s = service.stats;
  result->Add("service.predict_hit_us", service.predict_hit_us, "us");
  result->Add("service.parallel_efficiency", service.parallel_efficiency,
              "ratio");
  result->Add("service.sample_hit_ratio",
              Ratio(static_cast<double>(s.sample_hits),
                    static_cast<double>(s.sample_hits + s.sample_misses)),
              "ratio");
  result->Add("service.profile_hit_ratio",
              Ratio(static_cast<double>(s.profile_hits),
                    static_cast<double>(s.profile_hits + s.profile_misses)),
              "ratio");
  result->Add("service.stages_reused_share",
              Ratio(static_cast<double>(service.stages_reused),
                    5.0 * static_cast<double>(service.reports)),
              "ratio");
  result->Add("service.lookup_us", 1e6 * mean_self("service.lookup"), "us");

  result->Add("datasets.generate_s", generate_s, "s");

  // Each layer's share of the self time below the roots (summed over
  // threads, so the shares add up to 1 even where predictions overlap).
  double attributed = 0.0;
  std::map<std::string, double> layer_self;
  for (const auto& [name, t] : totals) {
    const std::string layer = name.substr(0, name.find('.'));
    if (layer == "bench") continue;
    layer_self[layer] += t.self_s;
    attributed += t.self_s;
  }
  for (const char* layer :
       {"bsp", "sampling", "graph", "pipeline", "core", "service"}) {
    result->Add(std::string(layer) + ".self_share",
                Ratio(layer_self[layer], attributed), "ratio");
  }
  result->Add("trace.attributed_share", tracer.AttributedShare(), "ratio");
  result->Add("trace.overhead_ratio",
              Ratio(traced.P50(), service.timing.P50()) - 1.0, "ratio");
}

void WriteTrace(const Tracer& tracer, const Args& args) {
  constexpr size_t kMaxWrittenSpans = 100000;  // about 15 MB of JSON
  if (!args.trace_file.empty() &&
      !tracer.WriteChromeTrace(args.trace_file, kMaxWrittenSpans)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.trace_file.c_str());
  }
}

// Moves the calling thread to the next allowed CPU on every Next() and
// restores its CPU mask when destroyed. A busy thread otherwise stays on
// one CPU for a whole run, and on a shared host a CPU can run slower than
// the others for seconds at a time while its core serves other machines'
// work; rotating makes every run sample all CPUs alike.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t mask_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Closed-loop driver: runs units until `seconds` of timed work are done
// and the unit count is a multiple of `granularity`, or `max_units` ran.
// `unit(i)` returns the unit's timed seconds.
template <typename Fn>
void RunUnits(double seconds, size_t max_units, size_t granularity,
              Fn&& unit) {
  CpuRotation rotation;
  double timed = 0.0;
  for (size_t i = 0;
       i < max_units && (timed < seconds || i % granularity != 0); ++i) {
    rotation.Next();
    timed += unit(i);
  }
}

double MedianSetup(std::vector<double> setups) {
  return Percentile(std::move(setups), 0.5);
}

// ============================================================ cold_mix

RunResult ColdMix(const Args& args) {
  const double scale = args.smoke ? 0.05 : 1.0;
  const std::vector<std::string> datasets = {"wiki", "lj"};

  struct Setup {
    std::vector<Graph> graphs;
    std::unique_ptr<PredictionService> service;
  };
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Setup> owned;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();  // the previous set-up's memory goes first
    owned = std::make_unique<Setup>();
    Setup& setup = *owned;
    double gen = 0.0;
    const Clock::time_point start = Clock::now();
    for (const std::string& d : datasets) {
      setup.graphs.push_back(Dataset(d, scale, &gen));
    }
    PredictionServiceOptions options;
    options.predictor = BaseOptions();
    options.num_threads = 0;
    setup.service = std::make_unique<PredictionService>(options);
    setup_s.push_back(Since(start));
    generate_s.push_back(gen);
  }
  Setup& setup = *owned;

  // The 12 keys, and each key's reference from a fresh service.
  std::vector<PredictionRequest> keys;
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (const std::string& a : kAlgorithms) {
      keys.push_back(Request(a, setup.graphs[d], datasets[d]));
    }
  }
  std::vector<std::string> reference;
  std::vector<std::pair<const Graph*, PredictionReport>> accuracy_reports;
  for (const PredictionRequest& key : keys) {
    PredictionServiceOptions options;
    options.predictor = BaseOptions();
    options.num_threads = 0;
    PredictionService fresh(options);
    const Result<PredictionReport> report = fresh.Predict(key);
    reference.push_back(Canonical(report));
    if (report.ok() && IsAccuracyAlgorithm(key.algorithm)) {
      accuracy_reports.emplace_back(key.graph, *report);
    }
  }

  // Load: whole cycles, each a seeded permutation of the 12 keys, so
  // every run serves the same mix in a different order.
  Rng rng(args.seed);
  std::vector<size_t> order;
  for (int cycle = 0; cycle < 256; ++cycle) {
    std::vector<size_t> perm(keys.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }

  Checker checker;
  PredictionService& service = *setup.service;
  // Runs whole cycles through the service until `seconds` of timed work.
  auto service_pass = [&](double seconds, ServicePass* pass) {
    const ServiceCacheStats before = service.cache_stats();
    RunUnits(seconds, order.size(), keys.size(), [&](size_t i) {
      service.ClearCaches();  // keeps the stats
      const Clock::time_point start = Clock::now();
      Result<PredictionReport> report = service.Predict(keys[order[i]]);
      const double elapsed = Since(start);
      pass->timing.Add(elapsed, 1);
      pass->Count({report});
      checker.Compare(report, reference[order[i]], "cold_mix");
      return elapsed;
    });
    pass->stats = Delta(service.cache_stats(), before);
  };

  RunResult result;
  const double gen_median = MedianSetup(generate_s);
  if (!args.trace) {
    ServicePass pass;
    service_pass(args.seconds, &pass);
    const double mape =
        RuntimeMapePercent(accuracy_reports, BaseOptions().engine);
    AddEndToEnd(pass.timing, MedianSetup(setup_s), checker, mape, &result);
  } else {
    ServicePass pass;
    service_pass(args.seconds / 2, &pass);
    Tracer tracer;
    LayerCounts counts;
    const Composer composer(BaseOptions(), &tracer, &counts);
    Timing traced;
    RunUnits(args.seconds / 2, order.size(), keys.size(), [&](size_t i) {
      const Clock::time_point start = Clock::now();
      Result<PredictionReport> report = [&] {
        const ScopedSpan unit(&tracer, "bench.unit", -1, i);
        return composer.Predict(keys[order[i]], nullptr, unit.index(), i);
      }();
      const double elapsed = Since(start);
      traced.Add(elapsed, 1);
      checker.Compare(report, reference[order[i]], "cold_mix traced");
      return elapsed;
    });
    AddPerLayer(tracer, counts, pass, traced, gen_median, &result);
    WriteTrace(tracer, args);
  }
  result.attempted = checker.attempted;
  result.failed = checker.failed;
  return result;
}

// ============================================================ whatif_warm

RunResult WhatIfWarm(const Args& args) {
  const double scale = args.smoke ? 0.02 : 0.25;
  const double history_scale = args.smoke ? 0.01 : 0.05;
  const std::vector<std::string> datasets = {"lj", "wiki", "tw", "uk"};
  const std::vector<bsp::ClusterScenario>& scenarios =
      bsp::BuiltinScenarios();

  // A question asks for the 6 algorithms on one dataset (the first 4
  // questions) or for one (algorithm, dataset) under each of the 5
  // built-in scenarios (the other 24): what PredictBatch and
  // PredictScenarios answer.
  const size_t num_batch = datasets.size();
  const size_t num_questions = num_batch + kAlgorithms.size() * datasets.size();

  struct Setup {
    std::vector<Graph> graphs;
    HistoryStore history;
    std::unique_ptr<PredictionService> service;
    // Every question's requests, one per report it answers.
    std::vector<std::vector<PredictionRequest>> questions;
  };

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<std::vector<std::string>> reference(num_questions);
  std::unique_ptr<Setup> owned;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();
    owned = std::make_unique<Setup>();
    Setup& setup = *owned;
    double gen = 0.0;
    const Clock::time_point start = Clock::now();
    for (const std::string& d : datasets) {
      setup.graphs.push_back(Dataset(d, scale, &gen));
    }
    // History: small-scale actual runs under two deployments, so the fit
    // trains on sample plus history rows and the zoo selector has
    // worker counts to choose from.
    for (const std::string& d : datasets) {
      const Graph small = Dataset(d, history_scale, &gen);
      for (const std::string& a : kAccuracyAlgorithms) {
        for (const char* scenario : {"giraph-29", "giraph-10"}) {
          RunOptions options;
          options.engine = ScenarioNamed(scenario).ToEngineOptions(0);
          options.config_overrides = Overrides(a, small);
          const AlgorithmRunResult run =
              Must(RunAlgorithmByName(a, small, options), "history run");
          setup.history.Add(ProfileFromRunStats(a, d, small.num_vertices(),
                                                small.num_edges(), run.stats));
        }
      }
    }
    PredictionServiceOptions options;
    options.predictor = BaseOptions();
    options.predictor.history = &setup.history;
    options.num_threads = kPoolThreads;
    setup.service = std::make_unique<PredictionService>(options);
    for (size_t d = 0; d < datasets.size(); ++d) {
      setup.questions.push_back(AllAlgorithms(setup.graphs[d], datasets[d]));
    }
    for (size_t d = 0; d < datasets.size(); ++d) {
      for (const std::string& a : kAlgorithms) {
        std::vector<PredictionRequest> sweep;
        for (const bsp::ClusterScenario& scenario : scenarios) {
          sweep.push_back(Request(a, setup.graphs[d], datasets[d]));
          sweep.back().scenario = scenario;
        }
        setup.questions.push_back(std::move(sweep));
      }
    }
    // Warm every key in one batch over the service's pool. The first
    // set-up's service is never timed: its cold answers are the reference
    // for every timed report.
    const std::vector<Result<PredictionReport>> out =
        setup.service->PredictBatch(Flatten(setup.questions));
    if (i == 0) {
      size_t next = 0;
      for (size_t q = 0; q < num_questions; ++q) {
        for (size_t k = 0; k < setup.questions[q].size(); ++k) {
          reference[q].push_back(Canonical(out[next++]));
        }
      }
    }
    setup_s.push_back(Since(start));
    generate_s.push_back(gen);
  }
  Setup& setup = *owned;

  // Load: Zipf(1.0) popularity over the questions, ranked in a fixed
  // order that interleaves batches and sweeps (stride 11 is coprime with
  // the 28 questions); the seed draws the trace from it.
  std::vector<size_t> by_rank;
  for (size_t r = 0; r < num_questions; ++r) {
    by_rank.push_back(r * 11 % num_questions);
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < num_questions; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  Rng rng(args.seed);
  constexpr size_t kMaxQuestions = 400000;
  std::vector<uint8_t> load;
  load.reserve(kMaxQuestions);
  for (size_t i = 0; i < kMaxQuestions; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    load.push_back(
        static_cast<uint8_t>(by_rank[std::min(rank, num_questions - 1)]));
  }

  Checker checker;
  auto service_pass = [&](double seconds, ServicePass* pass) {
    const ServiceCacheStats before = setup.service->cache_stats();
    RunUnits(seconds, load.size(), 1, [&](size_t i) {
      const size_t q = load[i];
      const Clock::time_point start = Clock::now();
      std::vector<Result<PredictionReport>> out;
      for (const PredictionRequest& r : setup.questions[q]) {
        out.push_back(setup.service->Predict(r));
      }
      const double elapsed = Since(start);
      pass->timing.Add(elapsed, out.size());
      pass->Count(out);
      for (size_t k = 0; k < out.size(); ++k) {
        checker.Compare(out[k], reference[q][k], "whatif_warm");
      }
      return elapsed;
    });
    pass->stats = Delta(setup.service->cache_stats(), before);
  };

  RunResult result;
  if (!args.trace) {
    ServicePass pass;
    service_pass(args.seconds, &pass);
    // Accuracy on the baseline deployment's cheap cells.
    std::vector<std::pair<const Graph*, PredictionReport>> accuracy_reports;
    for (size_t d = 0; d < num_batch; ++d) {
      for (const PredictionRequest& r : setup.questions[d]) {
        if (!IsAccuracyAlgorithm(r.algorithm)) continue;
        accuracy_reports.emplace_back(
            r.graph, Must(setup.service->Predict(r), "accuracy predict"));
      }
    }
    const double mape =
        RuntimeMapePercent(accuracy_reports, BaseOptions().engine);
    AddEndToEnd(pass.timing, MedianSetup(setup_s), checker, mape, &result);
    result.attempted = checker.attempted;
    result.failed = checker.failed;
    return result;
  }

  ServicePass pass;
  service_pass(args.seconds / 2, &pass);
  // Warm hit: one key at a time on the client thread, then the same keys
  // as 4-thread batches; efficiency = batch rate / (4 x single rate).
  {
    std::vector<PredictionRequest> all;
    std::vector<const std::string*> want;
    for (size_t d = 0; d < num_batch; ++d) {
      for (size_t k = 0; k < kAlgorithms.size(); ++k) {
        all.push_back(setup.questions[d][k]);
        want.push_back(&reference[d][k]);
      }
    }
    std::vector<double> single;
    double single_total = 0.0;
    for (int rep = 0; rep < 40; ++rep) {
      for (size_t k = 0; k < all.size(); ++k) {
        const Clock::time_point start = Clock::now();
        const Result<PredictionReport> report = setup.service->Predict(all[k]);
        const double s = Since(start);
        checker.Compare(report, *want[k], "whatif_warm single");
        single.push_back(s);
        single_total += s;
      }
    }
    double batch_total = 0.0;
    uint64_t batch_predictions = 0;
    for (int rep = 0; rep < 40; ++rep) {
      const Clock::time_point start = Clock::now();
      const std::vector<Result<PredictionReport>> out =
          setup.service->PredictBatch(all);
      batch_total += Since(start);
      batch_predictions += out.size();
    }
    pass.predict_hit_us = 1e6 * Percentile(single, 0.5);
    const double single_rate =
        static_cast<double>(single.size()) / single_total;
    const double batch_rate =
        static_cast<double>(batch_predictions) / batch_total;
    pass.parallel_efficiency =
        batch_rate / ((kPoolThreads + 1) * single_rate);
  }

  // Composed pass: the artifact store holds what the service's caches
  // hold after warm-up, computed here through the same stage calls.
  Tracer tracer;
  LayerCounts counts;
  PredictorOptions options = BaseOptions();
  options.history = &setup.history;
  const Composer composer(options, &tracer, &counts);
  ArtifactStore store;
  {
    LayerCounts warm_counts;
    const Composer warm(options, nullptr, &warm_counts);
    bsp::ThreadPool pool(kPoolThreads);
    for (size_t d = 0; d < datasets.size(); ++d) {
      const Graph& g = setup.graphs[d];
      store.samples.emplace(
          pipeline::SampleKey::For(g, options.sampler).ToString(),
          std::make_shared<const pipeline::SampleArtifact>(
              Must(warm.with_history.sample.Run(g), "SampleStage::Run")));
    }
    for (const auto& r :
         warm.PredictAll(Flatten(setup.questions), &store, &pool, -1, 0)) {
      if (!r.ok()) Fail("composed warm-up: " + r.status().ToString());
    }
  }
  Timing traced;
  RunUnits(args.seconds / 2, load.size(), 1, [&](size_t i) {
    const size_t q = load[i];
    const Clock::time_point start = Clock::now();
    const std::vector<Result<PredictionReport>> out = [&] {
      const ScopedSpan unit(&tracer, "bench.unit", -1, i);
      return composer.PredictAll(setup.questions[q], &store, nullptr,
                                unit.index(), i);
    }();
    const double elapsed = Since(start);
    traced.Add(elapsed, out.size());
    for (size_t k = 0; k < out.size(); ++k) {
      checker.Compare(out[k], reference[q][k], "whatif_warm traced");
    }
    return elapsed;
  });
  AddPerLayer(tracer, counts, pass, traced, MedianSetup(generate_s), &result);
  WriteTrace(tracer, args);
  result.attempted = checker.attempted;
  result.failed = checker.failed;
  return result;
}

// ============================================================ churn

// Churn schedule: every round deletes half and inserts half of 1% of
// |E|, touching only vertices the recorded base walk never touched, so
// the sample (and with it every profile) stays valid. Round r < kLife
// deletes base edges; later rounds delete the edges inserted kLife
// rounds earlier. Inserted edges are fresh and distinct, so no version
// ever repeats. Built from one pass over the base edge set.
std::vector<EdgeDeltaBatch> ChurnSchedule(const Graph& base,
                                          const std::vector<uint8_t>& touched,
                                          size_t rounds, uint64_t seed) {
  constexpr size_t kLife = 8;
  const size_t per_round = std::max<uint64_t>(2, base.num_edges() / 100);
  const size_t deletes = per_round / 2;
  const size_t inserts = per_round - deletes;
  Rng rng(seed);

  std::vector<VertexId> free_vertices;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (touched[v] == 0) free_vertices.push_back(v);
  }
  // The one pass over the edge set: the base edges churn may delete.
  std::vector<std::pair<VertexId, VertexId>> deletable;
  for (const VertexId u : free_vertices) {
    for (const VertexId v : base.out_neighbors(u)) {
      if (touched[v] == 0) deletable.emplace_back(u, v);
    }
  }
  const size_t want = rounds * inserts;
  const double pairs = static_cast<double>(free_vertices.size()) *
                       static_cast<double>(free_vertices.size());
  if (deletable.size() < kLife * deletes || pairs < 4.0 * want) {
    Fail("graph too small for the churn schedule");
  }
  for (size_t i = 0; i < kLife * deletes; ++i) {  // partial Fisher-Yates
    std::swap(deletable[i], deletable[i + rng.Uniform(deletable.size() - i)]);
  }

  // Fresh edges between free vertices, absent from the base (its
  // out-lists are sorted) and distinct from each other.
  std::vector<uint64_t> fresh;
  while (fresh.size() < want) {
    const size_t missing = want - fresh.size();
    for (size_t i = 0; i < missing + missing / 8 + 16; ++i) {
      const VertexId u = free_vertices[rng.Uniform(free_vertices.size())];
      const VertexId v = free_vertices[rng.Uniform(free_vertices.size())];
      const auto row = base.out_neighbors(u);
      if (u == v || std::binary_search(row.begin(), row.end(), v)) continue;
      fresh.push_back(static_cast<uint64_t>(u) << 32 | v);
    }
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  }
  for (size_t i = fresh.size(); i > 1; --i) {
    std::swap(fresh[i - 1], fresh[rng.Uniform(i)]);
  }
  fresh.resize(want);

  auto edge = [&](size_t index) {
    return std::pair<VertexId, VertexId>(
        static_cast<VertexId>(fresh[index] >> 32),
        static_cast<VertexId>(fresh[index] & 0xffffffffu));
  };
  std::vector<EdgeDeltaBatch> batches(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    EdgeDeltaBatch& batch = batches[r];
    batch.reserve(per_round);
    for (size_t k = 0; k < deletes; ++k) {
      const auto [u, v] = r < kLife ? deletable[r * deletes + k]
                                    : edge((r - kLife) * inserts + k);
      batch.push_back(EdgeDelta::Delete(u, v));
    }
    for (size_t k = 0; k < inserts; ++k) {
      const auto [u, v] = edge(r * inserts + k);
      batch.push_back(EdgeDelta::Insert(u, v));
    }
  }
  return batches;
}

RunResult ChurnRepredict(const Args& args) {
  const double scale = args.smoke ? 0.05 : 1.0;
  // Rounds of one run stop at --seconds of timed work or at this cap
  // (the load is generated up front).
  const size_t max_rounds = 480;

  PredictorOptions predictor = BaseOptions();
  // RJ with a segmented walk: the one sampler whose sample survives
  // churn (BRJ's top-degree seed set shifts, so it re-predicts cold).
  predictor.sampler.kind = SamplerKind::kRandomJump;
  predictor.sampler.walk_segment_steps = 512;

  struct Setup {
    Graph base;
    std::unique_ptr<EvolvingGraph> evolving;
    std::unique_ptr<PredictionService> service;
  };
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Setup> owned;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();
    owned = std::make_unique<Setup>();
    Setup& setup = *owned;
    double gen = 0.0;
    const Clock::time_point start = Clock::now();
    setup.base =
        EvolvingGraph::Canonicalize(Dataset("wiki", scale, &gen));
    setup.evolving = std::make_unique<EvolvingGraph>(setup.base);
    PredictionServiceOptions options;
    options.predictor = predictor;
    options.num_threads = kPoolThreads;
    setup.service = std::make_unique<PredictionService>(options);
    for (const auto& r :
         setup.service->PredictBatch(AllAlgorithms(setup.base, "wiki"))) {
      if (!r.ok()) Fail("churn prime: " + r.status().ToString());
    }
    setup_s.push_back(Since(start));
    generate_s.push_back(gen);
  }
  Setup& setup = *owned;
  const Graph& base = setup.base;

  // Load: the avoid mask from the recorded base walk, then every batch.
  SampleWalkRecord base_record;
  const pipeline::SampleArtifact base_sample = Must(
      pipeline::SampleStage(predictor.sampler).RunRecorded(base, &base_record),
      "recorded base sample");
  const std::vector<EdgeDeltaBatch> batches =
      ChurnSchedule(base, base_record.touched, max_rounds, args.seed);

  // Reference: the uncached stage composition (Predictor's path) on a
  // sample drawn from scratch for every version, reusing a profile only
  // for byte-identical sample content. A fresh service per version would
  // re-run the six profiles (about 1 s) every round, and one long-lived
  // service would keep every version's sample in its cache.
  LayerCounts ref_counts;
  const Composer ref_composer(predictor, nullptr, &ref_counts);
  ArtifactStore ref_store;
  auto reference = [&](const Graph& version) {
    ref_store.samples.clear();
    auto sample = std::make_shared<const pipeline::SampleArtifact>(Must(
        ref_composer.with_history.sample.Run(version), "reference sample"));
    ref_store.samples.emplace(sample->key.ToString(), sample);
    return ref_composer.PredictAll(AllAlgorithms(version, "wiki"), &ref_store,
                                   nullptr, -1, 0);
  };
  reference(base);  // the six reference profile runs happen here, untimed
  Checker checker;
  auto check = [&](const Graph& version,
                   const std::vector<Result<PredictionReport>>& got,
                   const char* where) {
    const std::vector<Result<PredictionReport>> want = reference(version);
    for (size_t k = 0; k < got.size(); ++k) {
      checker.Compare(got[k], Canonical(want[k]), where);
    }
  };

  auto service_pass = [&](EvolvingGraph& evolving, double seconds,
                          ServicePass* pass) {
    const ServiceCacheStats before = setup.service->cache_stats();
    RunUnits(seconds, batches.size(), 1, [&](size_t r) {
      const Clock::time_point start = Clock::now();
      if (!evolving.Apply(batches[r]).ok()) Fail("Apply");
      const Graph& version = *Must(evolving.Current(), "Current");
      std::vector<Result<PredictionReport>> out;
      for (const PredictionRequest& request : AllAlgorithms(version, "wiki")) {
        out.push_back(setup.service->Predict(request));
      }
      const double elapsed = Since(start);
      pass->timing.Add(elapsed, out.size());
      pass->Count(out);
      check(version, out, "churn_repredict");
      return elapsed;
    });
    pass->stats = Delta(setup.service->cache_stats(), before);
  };

  RunResult result;
  if (!args.trace) {
    ServicePass pass;
    service_pass(*setup.evolving, args.seconds, &pass);
    // Accuracy on the version after the first round.
    EvolvingGraph first(base);
    if (!first.Apply(batches[0]).ok()) Fail("Apply");
    const Graph& version = *Must(first.Current(), "Current");
    std::vector<std::pair<const Graph*, PredictionReport>> accuracy_reports;
    for (Result<PredictionReport>& report : reference(version)) {
      PredictionReport r = Must(std::move(report), "accuracy predict");
      if (IsAccuracyAlgorithm(r.algorithm)) {
        accuracy_reports.emplace_back(&version, std::move(r));
      }
    }
    const double mape = RuntimeMapePercent(accuracy_reports, predictor.engine);
    AddEndToEnd(pass.timing, MedianSetup(setup_s), checker, mape, &result);
    result.attempted = checker.attempted;
    result.failed = checker.failed;
    return result;
  }

  ServicePass pass;
  service_pass(*setup.evolving, args.seconds / 2, &pass);

  // Composed pass from the base version again: the incremental sampling
  // the service does on a sample-cache miss, then the six predictions.
  Tracer tracer;
  LayerCounts counts;
  const Composer composer(predictor, &tracer, &counts);
  ArtifactStore store;
  const std::string base_content = base_sample.ContentKey();
  {
    store.samples.emplace(base_sample.key.ToString(),
                          std::make_shared<const pipeline::SampleArtifact>(
                              base_sample));
    LayerCounts warm_counts;
    const Composer warm(predictor, nullptr, &warm_counts);
    bsp::ThreadPool pool(kPoolThreads);
    for (const auto& r :
         warm.PredictAll(AllAlgorithms(base, "wiki"), &store, &pool, -1, 0)) {
      if (!r.ok()) Fail("composed prime: " + r.status().ToString());
    }
  }
  EvolvingGraph evolving(base);
  Graph previous = base;
  SampleWalkRecord record = base_record;
  Timing traced;
  RunUnits(args.seconds / 2, batches.size(), 1, [&](size_t r) {
    const Clock::time_point start = Clock::now();
    std::vector<Result<PredictionReport>> out;
    const Graph* version = nullptr;
    {
      const ScopedSpan unit(&tracer, "bench.unit", -1, r);
      const int64_t p = unit.index();
      {
        const ScopedSpan span(&tracer, "graph.apply", p, r);
        if (!evolving.Apply(batches[r]).ok()) Fail("Apply");
      }
      {
        const ScopedSpan span(&tracer, "graph.materialize", p, r);
        version = Must(evolving.Current(), "Current");
      }
      {
        const ScopedSpan span(&tracer, "graph.fingerprint", p, r);
        version->Fingerprint();
      }
      std::vector<VertexId> dirty;
      {
        const ScopedSpan span(&tracer, "sampling.dirty", p, r);
        dirty = DirtyOutVertices(previous, *version);
      }
      SampleWalkRecord updated;
      pipeline::SampleStage::IncrementalStats stats;
      std::optional<pipeline::SampleArtifact> sample;
      {
        const ScopedSpan span(&tracer, "sampling.sample", p, r);
        // The service's rule: past 25% dirty vertices, walk from scratch.
        if (dirty.size() * 4 <= version->num_vertices()) {
          sample = Must(composer.with_history.sample.RunIncremental(
                            *version, dirty, record, &updated, &stats),
                        "RunIncremental");
        } else {
          stats.full_resample = true;
          sample = Must(
              composer.with_history.sample.RunRecorded(*version, &updated),
              "RunRecorded");
        }
      }
      {
        const ScopedSpan span(&tracer, "sampling.retain", p, r);
        previous = *version;
        record = std::move(updated);
      }
      {
        std::lock_guard<std::mutex> lock(counts.mutex);
        ++counts.rounds;
        counts.edges_changed += batches[r].size();
        counts.segments_total += stats.segments_total;
        counts.segments_reused += stats.segments_reused;
        if (sample->ContentKey() == base_content) ++counts.rounds_sample_reused;
      }
      counts.Sampled(*sample, stats.full_resample);
      store.samples.clear();
      store.samples.emplace(sample->key.ToString(),
                            std::make_shared<const pipeline::SampleArtifact>(
                                std::move(*sample)));
      out = composer.PredictAll(AllAlgorithms(*version, "wiki"), &store,
                                nullptr, p, r);
    }
    const double elapsed = Since(start);
    traced.Add(elapsed, out.size());
    check(*version, out, "churn_repredict traced");
    return elapsed;
  });
  AddPerLayer(tracer, counts, pass, traced, MedianSetup(generate_s), &result);
  WriteTrace(tracer, args);
  result.attempted = checker.attempted;
  result.failed = checker.failed;
  return result;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_mix|whatif_warm|"
                 "churn_repredict --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--smoke]\n");
    return 2;
  }
  RunResult result;
  if (args.workload == "cold_mix") {
    result = ColdMix(args);
  } else if (args.workload == "whatif_warm") {
    result = WhatIfWarm(args);
  } else if (args.workload == "churn_repredict") {
    result = ChurnRepredict(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  result.correct = result.failed == 0 && result.attempted > 0;
  PrintResult(result);
  return 0;
}
