// An independent expected value for prediction tests: the methodology
// composed straight from the pipeline stages, with no cache, no
// degradation ladder and no service. Predictor and PredictionService
// share one composition, so comparing them alone would not catch a
// fault in it; comparing both against this does.

#ifndef PREDICT_TESTS_UNCACHED_REFERENCE_H_
#define PREDICT_TESTS_UNCACHED_REFERENCE_H_

#include <optional>
#include <string>

#include "bsp/scenario.h"
#include "core/predictor.h"

namespace predict::uncached_reference {

inline Result<PredictionReport> Predict(
    const PredictorOptions& options, const std::string& algorithm,
    const Graph& graph, const std::string& dataset,
    const AlgorithmConfig& overrides,
    const std::optional<bsp::ClusterScenario>& scenario = std::nullopt) {
  const PredictionPipeline stages(options);
  PREDICT_RETURN_NOT_OK(stages.transform.Validate(algorithm, overrides));
  PREDICT_ASSIGN_OR_RETURN(pipeline::SampleArtifact sample,
                           stages.sample.Run(graph));
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::TransformArtifact transform,
      stages.transform.Run(algorithm, overrides, sample.realized_ratio()));
  const bsp::EngineOptions engine =
      scenario.has_value() ? scenario->ToEngineOptions(0) : options.engine;
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::ProfileArtifact profile,
      stages.profile.RunWithEngine(algorithm, dataset, sample, transform,
                                   engine));
  // History rows belong to the configured engine only.
  PredictorOptions history_free = options;
  history_free.history = nullptr;
  const bool same_engine =
      bsp::EngineOptionsKey(engine) == bsp::EngineOptionsKey(options.engine);
  PREDICT_ASSIGN_OR_RETURN(
      PredictionReport report,
      AssemblePredictionReport(
          same_engine ? stages : PredictionPipeline(history_free), graph,
          algorithm, dataset, sample, transform, profile));
  if (scenario.has_value()) report.scenario = scenario->name;
  return report;
}

}  // namespace predict::uncached_reference

#endif  // PREDICT_TESTS_UNCACHED_REFERENCE_H_
