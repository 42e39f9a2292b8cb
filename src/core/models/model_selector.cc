#include "core/models/model_selector.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "core/models/paper_model.h"
#include "core/models/scaleout_models.h"

namespace predict::models {

namespace {

// Ellis' density thresholds: the densest history (unique worker
// configurations) the mean and Ernest tiers still cover.
constexpr int kMeanMaxConfigs = 2;
constexpr int kErnestMaxConfigs = 5;

std::vector<ScaleOutObservation> Observations(
    const std::vector<TrainingRow>& history_rows) {
  std::vector<ScaleOutObservation> points;
  points.reserve(history_rows.size());
  for (const auto& row : history_rows) {
    points.push_back({row.scale_out, row.runtime_seconds});
  }
  return points;
}

std::vector<double> Residuals(const RuntimeModel& model,
                              const std::vector<TrainingRow>& rows) {
  std::vector<double> residuals;
  residuals.reserve(rows.size());
  for (const auto& row : rows) {
    residuals.push_back(
        row.runtime_seconds -
        model.PredictIterationSeconds(row.features, row.scale_out));
  }
  return residuals;
}

Result<ModelZooFit> FitPaper(const std::vector<TrainingRow>& sample_rows,
                             const std::vector<TrainingRow>& history_rows,
                             const CostModelOptions& cost_options,
                             ModelSelection selection) {
  // Same training set, in the same order, as the pre-zoo FitStage:
  // sample rows first, then history rows.
  std::vector<TrainingRow> combined = sample_rows;
  combined.insert(combined.end(), history_rows.begin(), history_rows.end());
  PREDICT_ASSIGN_OR_RETURN(CostModel cost,
                           CostModel::Train(combined, cost_options));
  ModelZooFit fit;
  fit.model = std::make_shared<PaperModel>(std::move(cost));
  fit.selection = std::move(selection);
  fit.selection.tier = ModelTier::kPaper;
  fit.residuals = Residuals(*fit.model, combined);
  return fit;
}

}  // namespace

const char* ModelTierName(ModelTier tier) {
  switch (tier) {
    case ModelTier::kPaper:
      return "paper";
    case ModelTier::kMean:
      return "mean";
    case ModelTier::kErnest:
      return "ernest";
    case ModelTier::kInterpolation:
      return "interpolation";
  }
  return "unknown";
}

std::string ModelSelection::ToString() const {
  std::ostringstream out;
  out << "tier=" << ModelTierName(tier)
      << " unique_configs=" << unique_configurations
      << " sample_rows=" << sample_rows << " history_rows=" << history_rows
      << " reason=\"" << reason << "\"";
  return out.str();
}

ModelTier TierForConfigs(int unique_configurations,
                         const ModelZooOptions& options) {
  if (!options.enable_zoo || unique_configurations <= 1) {
    return ModelTier::kPaper;
  }
  if (unique_configurations <= kMeanMaxConfigs) {
    return ModelTier::kMean;
  }
  if (unique_configurations <= kErnestMaxConfigs) {
    return ModelTier::kErnest;
  }
  return ModelTier::kInterpolation;
}

Result<ModelZooFit> FitModelZoo(const std::vector<TrainingRow>& sample_rows,
                                const std::vector<TrainingRow>& history_rows,
                                const CostModelOptions& cost_options,
                                const ModelZooOptions& zoo_options) {
  // Rows with scale_out == 0 predate configuration tracking; they count
  // as one legacy configuration so sparse/unknown history stays on the
  // paper path.
  std::set<double> configs;
  for (const auto& row : history_rows) {
    configs.insert(std::max(row.scale_out, 0.0));
  }
  ModelSelection selection;
  selection.unique_configurations = static_cast<int>(configs.size());
  selection.sample_rows = sample_rows.size();
  selection.history_rows = history_rows.size();
  selection.tier = TierForConfigs(selection.unique_configurations, zoo_options);

  std::ostringstream reason;
  if (!zoo_options.enable_zoo) {
    reason << "zoo disabled -> paper";
  } else if (selection.unique_configurations <= 1) {
    reason << selection.unique_configurations
           << " unique worker configurations in history (<= 1) -> paper";
  } else if (selection.tier == ModelTier::kMean) {
    reason << selection.unique_configurations
           << " unique worker configurations in history (<= "
           << kMeanMaxConfigs << ") -> mean";
  } else if (selection.tier == ModelTier::kErnest) {
    reason << selection.unique_configurations
           << " unique worker configurations in history (> "
           << kMeanMaxConfigs << ", <= " << kErnestMaxConfigs
           << ") -> ernest";
  } else {
    reason << selection.unique_configurations
           << " unique worker configurations in history (> "
           << kErnestMaxConfigs << ") -> interpolation";
  }
  selection.reason = reason.str();

  if (selection.tier == ModelTier::kPaper) {
    return FitPaper(sample_rows, history_rows, cost_options,
                    std::move(selection));
  }

  // Scale-out tiers train on actual-run history only: sample-run
  // iterations are an order of magnitude cheaper than full-scale ones
  // and would poison a runtime-vs-workers fit.
  const std::vector<ScaleOutObservation> points = Observations(history_rows);
  Result<ModelZooFit> fit = [&]() -> Result<ModelZooFit> {
    ModelZooFit out;
    out.selection = selection;
    switch (selection.tier) {
      case ModelTier::kMean: {
        PREDICT_ASSIGN_OR_RETURN(MeanModel model, MeanModel::Fit(points));
        out.model = std::make_shared<MeanModel>(std::move(model));
        break;
      }
      case ModelTier::kErnest: {
        PREDICT_ASSIGN_OR_RETURN(ErnestModel model, ErnestModel::Fit(points));
        out.model = std::make_shared<ErnestModel>(std::move(model));
        break;
      }
      default: {
        PREDICT_ASSIGN_OR_RETURN(InterpolationModel model,
                                 InterpolationModel::Fit(points));
        out.model = std::make_shared<InterpolationModel>(std::move(model));
        break;
      }
    }
    out.residuals = Residuals(*out.model, history_rows);
    return out;
  }();
  if (fit.ok()) return fit;

  // Degenerate scale-out fit (e.g. non-finite runtimes): fall back to
  // the paper model rather than failing the whole prediction.
  selection.reason += "; scale-out fit failed (" +
                      fit.status().message() + ") -> paper fallback";
  return FitPaper(sample_rows, history_rows, cost_options,
                  std::move(selection));
}

}  // namespace predict::models
