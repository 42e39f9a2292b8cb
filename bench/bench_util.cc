#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

namespace predict::benchutil {

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("PREDICT_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double parsed = std::atof(env);
    if (parsed <= 0.0 || parsed > 1.0) {
      std::fprintf(stderr,
                   "PREDICT_BENCH_SCALE=%s out of (0,1]; using 1.0\n", env);
      return 1.0;
    }
    return parsed;
  }();
  return scale;
}

const Graph& GetDataset(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Graph>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto graph = MakeDataset(name, BenchScale());
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset '%s' failed: %s\n", name.c_str(),
                   graph.status().ToString().c_str());
      std::exit(1);
    }
    it = cache.emplace(name, std::make_unique<Graph>(std::move(graph).MoveValue()))
             .first;
  }
  return *it->second;
}

bsp::EngineOptions BenchEngine() {
  bsp::EngineOptions options = PaperClusterOptions();
  options.memory_budget_bytes = static_cast<uint64_t>(
      static_cast<double>(options.memory_budget_bytes) * BenchScale());
  return options;
}

const std::vector<double>& SamplingRatios() {
  static const std::vector<double> ratios = {0.01, 0.05, 0.10,
                                             0.15, 0.20, 0.25};
  return ratios;
}

AlgorithmConfig PageRankConfig(const Graph& graph, double epsilon) {
  return {{"tau", epsilon / static_cast<double>(graph.num_vertices())}};
}

const AlgorithmRunResult* GetActualRun(const std::string& algorithm,
                                       const std::string& dataset,
                                       const AlgorithmConfig& overrides) {
  struct CacheEntry {
    bool oom = false;
    AlgorithmRunResult result;
  };
  static std::map<std::string, CacheEntry> cache;
  std::string key = algorithm + "|" + dataset;
  for (const auto& [k, v] : overrides) {
    // Full precision: PageRank taus differ only at the 8th decimal, and a
    // truncated key would collide distinct configurations.
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", v);
    key += "|" + k + "=" + value;
  }
  auto it = cache.find(key);
  if (it == cache.end()) {
    RunOptions options;
    options.engine = BenchEngine();
    options.config_overrides = overrides;
    auto run = RunAlgorithmByName(algorithm, GetDataset(dataset), options);
    CacheEntry entry;
    if (run.ok()) {
      entry.result = std::move(run).MoveValue();
    } else if (run.status().IsResourceExhausted()) {
      entry.oom = true;
    } else {
      std::fprintf(stderr, "actual run %s failed: %s\n", key.c_str(),
                   run.status().ToString().c_str());
      std::exit(1);
    }
    it = cache.emplace(key, std::move(entry)).first;
  }
  return it->second.oom ? nullptr : &it->second.result;
}

PredictorOptions MakePredictorOptions(double ratio, uint64_t seed) {
  PredictorOptions options;
  options.sampler.kind = SamplerKind::kBiasedRandomJump;
  options.sampler.sampling_ratio = ratio;
  options.sampler.seed = seed;
  options.engine = BenchEngine();
  return options;
}

double SignedError(double predicted, double actual) {
  if (actual == 0.0) return 0.0;
  return (predicted - actual) / actual;
}

std::string ErrorCell(double error) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+6.2f", error);
  return buf;
}

std::string CanonicalReport(const Result<PredictionReport>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  const PredictionReport& r = *result;
  char buf[96];
  std::string out = r.algorithm + "|" + r.dataset + "|" + r.scenario + "|";
  out += DegradationRungName(r.degradation.rung);
  out += "|" + r.degradation.cause + "|";
  out += std::to_string(r.predicted_iterations) + "|";
  for (const double s : r.per_iteration_seconds) {
    std::snprintf(buf, sizeof(buf), "%.17g,", s);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g",
                r.predicted_superstep_seconds, r.distribution.p50_seconds,
                r.distribution.p95_seconds);
  out += buf;
  out += "|" + r.runtime_model_description + "|" + r.transform_description;
  return out;
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  if (BenchScale() != 1.0) {
    std::printf("NOTE: PREDICT_BENCH_SCALE=%.3f (reduced datasets)\n",
                BenchScale());
  }
  std::printf("================================================================\n");
}

}  // namespace predict::benchutil
