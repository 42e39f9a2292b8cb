// Data-density-driven model selection (Ellis-style).
//
// Which zoo member to trust is a function of how much *actual-run*
// history exists and how many distinct cluster configurations it spans:
//
//   unique worker configurations in history   selected tier
//   ----------------------------------------  -------------------------
//   <= 1 (incl. no history)                   paper (OLS over features)
//   <= 2                                      mean
//   <= 5                                      ernest
//   otherwise                                 interpolation
//
// The paper tier at <= 1 configuration keeps the default flows (no
// history, or history gathered on a single deployment) bit-identical to
// the pre-zoo predictor. Every selection records *why* in
// ModelSelection::reason so reports and the CLI can surface it.

#ifndef PREDICT_CORE_MODELS_MODEL_SELECTOR_H_
#define PREDICT_CORE_MODELS_MODEL_SELECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cost_model.h"
#include "core/features.h"
#include "core/models/runtime_model.h"

namespace predict::models {

/// Zoo configuration. The density thresholds are Ellis' and fixed.
struct ModelZooOptions {
  /// Off = always select the paper model (ablation / strict-paper mode).
  bool enable_zoo = true;
};

/// Why a fit ended up with the model it did.
struct ModelSelection {
  ModelTier tier = ModelTier::kPaper;
  /// Distinct worker configurations among the history rows.
  int unique_configurations = 0;
  size_t sample_rows = 0;
  size_t history_rows = 0;
  /// Human-readable selection rationale, e.g.
  /// "4 unique worker configurations in history (> 2, <= 5) -> ernest".
  std::string reason;

  std::string ToString() const;
};

/// A fitted zoo member plus its selection rationale and training
/// residuals (observed - predicted, one per training row of the selected
/// model) for residual bootstrapping.
struct ModelZooFit {
  std::shared_ptr<const RuntimeModel> model;
  ModelSelection selection;
  std::vector<double> residuals;
};

/// The density rule alone (no fitting): which tier `unique_configurations`
/// maps to under `options`.
ModelTier TierForConfigs(int unique_configurations,
                         const ModelZooOptions& options);

/// Fits the zoo member the density rule selects.
///
/// `sample_rows` come from the (scaled-down) sample run, `history_rows`
/// from HistoryStore actual runs — each history row's TrainingRow::scale_out
/// holds the worker count of the run it came from (0 = unknown, treated
/// as a single legacy configuration). The paper tier trains on
/// sample + history concatenated, exactly as the pre-zoo FitStage did;
/// scale-out tiers train on history rows only, because sample-run
/// iterations are an order of magnitude cheaper than the full-scale
/// iterations they stand in for and would poison a runtime-vs-workers
/// fit. If a scale-out fit degenerates, the selector falls back to the
/// paper model and says so in the reason.
Result<ModelZooFit> FitModelZoo(const std::vector<TrainingRow>& sample_rows,
                                const std::vector<TrainingRow>& history_rows,
                                const CostModelOptions& cost_options,
                                const ModelZooOptions& zoo_options = {});

}  // namespace predict::models

#endif  // PREDICT_CORE_MODELS_MODEL_SELECTOR_H_
