// Tests for the runtime-model zoo (core/models/), the variance-aware
// prediction distribution (core/distribution.h), the NNLS solver behind
// the Ernest member, and the hardened degenerate-input contracts of
// core/regression.h.

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/distribution.h"
#include "core/features.h"
#include "core/models/model_selector.h"
#include "core/models/paper_model.h"
#include "core/models/scaleout_models.h"
#include "core/regression.h"

namespace predict {
namespace {

// ------------------------------------------------------------------- nnls

TEST(NnlsTest, RecoversNonNegativeSolution) {
  // y = 2*a + 3*b, both coefficients positive: NNLS == OLS here.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 8; ++i) {
    const double a = 1.0 + i;
    const double b = 5.0 + 2.0 * i;
    rows.push_back({a, b});
    y.push_back(2.0 * a + 3.0 * b);
  }
  auto x = FitNnls(rows, y);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  ASSERT_EQ(x->size(), 2u);
  EXPECT_NEAR((*x)[0], 2.0, 1e-8);
  EXPECT_NEAR((*x)[1], 3.0, 1e-8);
}

TEST(NnlsTest, ClampsNegativeComponentToZero) {
  // y = 5*a - 2*b: the unconstrained solution has a negative coefficient,
  // so NNLS must pin b's coefficient at exactly zero and refit a.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    const double a = 1.0 + i;
    const double b = 0.1 * i * i;  // not collinear with a, small enough
    rows.push_back({a, b});       // that y stays positive and a-driven
    y.push_back(5.0 * a - 2.0 * b);
  }
  auto x = FitNnls(rows, y);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_EQ((*x)[1], 0.0);
  EXPECT_GT((*x)[0], 0.0);
}

TEST(NnlsTest, DeterministicAcrossCalls) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 12; ++i) {
    const double w = 2.0 + i;
    rows.push_back({1.0, 1.0 / w, std::log(w), w});
    y.push_back(0.4 + 30.0 / w + 0.05 * std::log(w));
  }
  auto a = FitNnls(rows, y);
  auto b = FitNnls(rows, y);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);  // bit-identical, not just close
}

TEST(NnlsTest, RejectsDegenerateInput) {
  EXPECT_FALSE(FitNnls({}, {}).ok());
  EXPECT_FALSE(FitNnls({{1.0, 2.0}}, {1.0, 2.0}).ok());  // size mismatch
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FitNnls({{1.0}, {nan}}, {1.0, 2.0}).ok());
}

// ------------------------------------------------- regression hardening

TEST(RegressionHardeningTest, NonFiniteInputIsInvalidArgument) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  EXPECT_TRUE(FitOls(rows, {1.0, inf, 3.0}, {0}).status().IsInvalidArgument());
  rows[1][0] = inf;
  EXPECT_TRUE(FitOls(rows, {1.0, 2.0, 3.0}, {0}).status().IsInvalidArgument());
}

TEST(RegressionHardeningTest, UnderdeterminedIsInvalidArgument) {
  // Two coefficients (one feature + intercept) need at least two rows.
  EXPECT_TRUE(FitOls({{1.0, 2.0}}, {1.0}, {0, 1}).status().IsInvalidArgument());
}

TEST(RegressionHardeningTest, ZeroVarianceTargetsWithFeaturesFail) {
  const std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> constant = {4.0, 4.0, 4.0};
  EXPECT_TRUE(FitOls(rows, constant, {0}).status().IsFailedPrecondition());
  // An intercept-only fit of a constant is still legitimate.
  auto intercept_only = FitOls(rows, constant, {});
  ASSERT_TRUE(intercept_only.ok());
  EXPECT_DOUBLE_EQ(intercept_only->intercept, 4.0);
}

TEST(RegressionHardeningTest, AllIdenticalRowsFail) {
  const std::vector<std::vector<double>> rows = {{2.0, 5.0}, {2.0, 5.0},
                                                 {2.0, 5.0}};
  EXPECT_TRUE(
      FitOls(rows, {1.0, 2.0, 3.0}, {0, 1}).status().IsFailedPrecondition());
}

TEST(RegressionHardeningTest, ForwardSelectSkipsDegenerateCandidates) {
  // Candidate 0 is constant (degenerate alone); candidate 1 carries the
  // signal. Selection must land on candidate 1 without erroring out.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({7.0, static_cast<double>(i)});
    y.push_back(3.0 * i + 1.0);
  }
  auto model = ForwardSelect(rows, y, 2);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_EQ(model->feature_indices.size(), 1u);
  EXPECT_EQ(model->feature_indices[0], 1);
}

// ---------------------------------------------------------- zoo members

std::vector<models::ScaleOutObservation> ErnestCurve(
    const std::vector<double>& workers) {
  std::vector<models::ScaleOutObservation> points;
  for (const double w : workers) {
    points.push_back({w, 0.5 + 24.0 / w + 0.1 * std::log(w) + 0.01 * w});
  }
  return points;
}

TEST(MeanModelTest, PredictsTheMeanEverywhere) {
  auto model = models::MeanModel::Fit({{8, 2.0}, {16, 4.0}, {32, 6.0}});
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->mean_seconds(), 4.0);
  FeatureVector features{};
  EXPECT_DOUBLE_EQ(model->PredictIterationSeconds(features, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(model->PredictIterationSeconds(features, 1000.0), 4.0);
  EXPECT_FALSE(models::MeanModel::Fit({}).ok());
}

TEST(ErnestModelTest, RecoversTheCurveAndExtrapolates) {
  auto model = models::ErnestModel::Fit(ErnestCurve({4, 8, 16, 32}));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  FeatureVector features{};
  for (const double w : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double expected = 0.5 + 24.0 / w + 0.1 * std::log(w) + 0.01 * w;
    EXPECT_NEAR(model->PredictIterationSeconds(features, w), expected,
                0.02 * expected)
        << "w=" << w;
  }
  for (const double c : model->coefficients()) EXPECT_GE(c, 0.0);
}

TEST(ErnestModelTest, NeedsTwoDistinctWorkerCounts) {
  EXPECT_FALSE(models::ErnestModel::Fit({{8, 1.0}}).ok());
  EXPECT_FALSE(models::ErnestModel::Fit({{8, 1.0}, {8, 1.1}}).ok());
  EXPECT_TRUE(models::ErnestModel::Fit({{8, 2.0}, {16, 1.0}}).ok());
}

TEST(InterpolationModelTest, InterpolatesInRangeErnestOutOfRange) {
  auto model = models::InterpolationModel::Fit(
      {{8, 4.0}, {8, 6.0}, {16, 3.0}, {32, 2.0}});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Duplicate observations at w=8 collapse to their mean knot.
  ASSERT_EQ(model->knots().size(), 3u);
  EXPECT_DOUBLE_EQ(model->knots()[0].runtime_seconds, 5.0);
  FeatureVector features{};
  // Exact at the knots, linear between them.
  EXPECT_DOUBLE_EQ(model->PredictIterationSeconds(features, 16.0), 3.0);
  EXPECT_DOUBLE_EQ(model->PredictIterationSeconds(features, 12.0), 4.0);
  EXPECT_DOUBLE_EQ(model->PredictIterationSeconds(features, 24.0), 2.5);
  // Out of range: the embedded Ernest extrapolator takes over (only
  // sanity-check it, the fit is the Ernest member's own test's job).
  EXPECT_GE(model->PredictIterationSeconds(features, 64.0), 0.0);
  EXPECT_GE(model->PredictIterationSeconds(features, 2.0), 0.0);
}

// ------------------------------------------------------------- selection

TEST(ModelSelectorTest, TierAtEachDensityThreshold) {
  const models::ModelZooOptions zoo;  // mean<=2, ernest<=5
  EXPECT_EQ(models::TierForConfigs(0, zoo), models::ModelTier::kPaper);
  EXPECT_EQ(models::TierForConfigs(1, zoo), models::ModelTier::kPaper);
  EXPECT_EQ(models::TierForConfigs(2, zoo), models::ModelTier::kMean);
  EXPECT_EQ(models::TierForConfigs(3, zoo), models::ModelTier::kErnest);
  EXPECT_EQ(models::TierForConfigs(5, zoo), models::ModelTier::kErnest);
  EXPECT_EQ(models::TierForConfigs(6, zoo), models::ModelTier::kInterpolation);

  models::ModelZooOptions off;
  off.enable_zoo = false;
  EXPECT_EQ(models::TierForConfigs(100, off), models::ModelTier::kPaper);
}

// History rows spanning `configs` distinct worker counts, with a clean
// linear feature -> runtime relationship so the paper OLS always fits.
std::vector<TrainingRow> HistoryRows(int configs, int rows_per_config) {
  std::vector<TrainingRow> rows;
  for (int c = 0; c < configs; ++c) {
    const double workers = 8.0 + 4.0 * c;
    for (int i = 0; i < rows_per_config; ++i) {
      TrainingRow row;
      row.features[static_cast<int>(Feature::kRemMsg)] = 100.0 * (i + 1);
      row.features[static_cast<int>(Feature::kRemMsgSize)] = 900.0 * (i + 1);
      row.runtime_seconds =
          (0.01 * row.features[static_cast<int>(Feature::kRemMsg)] + 0.5) *
          (8.0 / workers);
      row.scale_out = workers;
      rows.push_back(row);
    }
  }
  return rows;
}

TEST(ModelSelectorTest, FitWalksTheDensityLadder) {
  const models::ModelZooOptions zoo;
  const std::vector<models::ModelTier> expected = {
      models::ModelTier::kPaper,  models::ModelTier::kMean,
      models::ModelTier::kErnest, models::ModelTier::kErnest,
      models::ModelTier::kErnest, models::ModelTier::kInterpolation};
  for (int configs = 1; configs <= 6; ++configs) {
    auto fit =
        models::FitModelZoo({}, HistoryRows(configs, 6), CostModelOptions{}, zoo);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    EXPECT_EQ(fit->selection.tier, expected[configs - 1]) << configs;
    EXPECT_EQ(fit->selection.unique_configurations, configs);
    EXPECT_FALSE(fit->selection.reason.empty());
    // Residuals: one per training row of the selected member.
    const size_t rows = static_cast<size_t>(configs) * 6u;
    EXPECT_EQ(fit->residuals.size(), rows);
  }
}

TEST(ModelSelectorTest, SingleConfigMatchesZooDisabledBitForBit) {
  // The bit-identity contract: with <= 1 unique configuration the zoo
  // selects the paper member trained exactly as the pre-zoo FitStage
  // trained its CostModel, so enabling the zoo must not move a single
  // coefficient or prediction.
  const std::vector<TrainingRow> sample = HistoryRows(1, 5);
  const std::vector<TrainingRow> history = HistoryRows(1, 7);
  models::ModelZooOptions off;
  off.enable_zoo = false;
  auto with_zoo = models::FitModelZoo(sample, history, CostModelOptions{}, {});
  auto without = models::FitModelZoo(sample, history, CostModelOptions{}, off);
  ASSERT_TRUE(with_zoo.ok() && without.ok());
  EXPECT_EQ(with_zoo->selection.tier, models::ModelTier::kPaper);
  const auto& a =
      static_cast<const models::PaperModel&>(*with_zoo->model).cost_model();
  const auto& b =
      static_cast<const models::PaperModel&>(*without->model).cost_model();
  EXPECT_EQ(a.model().feature_indices, b.model().feature_indices);
  EXPECT_EQ(a.model().coefficients, b.model().coefficients);
  EXPECT_EQ(a.model().intercept, b.model().intercept);
  FeatureVector features{};
  features[static_cast<int>(Feature::kRemMsg)] = 450.0;
  EXPECT_EQ(with_zoo->model->PredictIterationSeconds(features, 29.0),
            b.PredictIterationSeconds(features));
}

TEST(ModelSelectorTest, ScaleOutTiersIgnoreSampleRows) {
  // Sample rows are 10x cheaper than actual-run rows; a scale-out fit
  // that ingested them would learn garbage. The mean tier makes the
  // leak observable: the mean must cover history rows only.
  std::vector<TrainingRow> sample(4);
  for (auto& row : sample) row.runtime_seconds = 0.001;
  std::vector<TrainingRow> history;
  for (const double w : {8.0, 16.0}) {
    TrainingRow row;
    row.runtime_seconds = 10.0;
    row.scale_out = w;
    history.push_back(row);
  }
  auto fit = models::FitModelZoo(sample, history, CostModelOptions{}, {});
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_EQ(fit->selection.tier, models::ModelTier::kMean);
  FeatureVector features{};
  EXPECT_DOUBLE_EQ(fit->model->PredictIterationSeconds(features, 12.0), 10.0);
  EXPECT_EQ(fit->residuals.size(), history.size());
}

TEST(ModelSelectorTest, DegenerateScaleOutFitFallsBackToPaper) {
  // Three distinct configs select Ernest, but every runtime is NaN-free
  // zero-variance... make Ernest itself fail: one row per config is fine
  // for Ernest, so poison it with a non-finite runtime instead.
  std::vector<TrainingRow> history = HistoryRows(3, 4);
  history[0].runtime_seconds = std::numeric_limits<double>::quiet_NaN();
  // Keep the paper fallback trainable: drop the poisoned row's influence
  // by overwriting it with a clean duplicate of another row *after* the
  // scale-out observations are extracted — not possible from outside, so
  // instead poison only the scale-out axis via an infinite worker count.
  history[0].runtime_seconds = 1.0;
  history[0].scale_out = std::numeric_limits<double>::infinity();
  auto fit = models::FitModelZoo({}, history, CostModelOptions{}, {});
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->selection.tier, models::ModelTier::kPaper);
  EXPECT_NE(fit->selection.reason.find("fallback"), std::string::npos)
      << fit->selection.reason;
}

// ----------------------------------------------------------- distribution

TEST(DistributionTest, DeterministicForFixedSeed) {
  const std::vector<double> per_iteration = {1.0, 2.0, 3.0};
  const std::vector<double> residuals = {-0.2, 0.0, 0.1, 0.3};
  BootstrapOptions options;
  const PredictionDistribution a =
      BootstrapDistribution(per_iteration, residuals, 0.2, options);
  const PredictionDistribution b =
      BootstrapDistribution(per_iteration, residuals, 0.2, options);
  ASSERT_EQ(a.samples.size(), static_cast<size_t>(options.num_samples));
  EXPECT_EQ(a.samples, b.samples);
  options.seed += 1;
  const PredictionDistribution c =
      BootstrapDistribution(per_iteration, residuals, 0.2, options);
  EXPECT_NE(a.samples, c.samples);
}

TEST(DistributionTest, SamplesSortedAndQuantilesOrdered) {
  const PredictionDistribution d = BootstrapDistribution(
      {1.0, 2.0, 3.0}, {-0.5, -0.1, 0.2, 0.4, 0.9}, 0.3, {});
  EXPECT_TRUE(std::is_sorted(d.samples.begin(), d.samples.end()));
  EXPECT_DOUBLE_EQ(d.point_seconds, 6.0);
  EXPECT_LE(d.QuantileSeconds(0.05), d.p50_seconds);
  EXPECT_LE(d.p50_seconds, d.p95_seconds);
  EXPECT_DOUBLE_EQ(d.QuantileSeconds(0.0), d.samples.front());
  EXPECT_DOUBLE_EQ(d.QuantileSeconds(1.0), d.samples.back());
  for (const double s : d.samples) EXPECT_GE(s, 0.0);
}

TEST(DistributionTest, DisabledOrResidualFreeDegeneratesToPoint) {
  BootstrapOptions off;
  off.enabled = false;
  const PredictionDistribution disabled =
      BootstrapDistribution({1.0, 2.0}, {0.5}, 0.1, off);
  EXPECT_TRUE(disabled.samples.empty());
  EXPECT_DOUBLE_EQ(disabled.p50_seconds, 3.0);
  EXPECT_DOUBLE_EQ(disabled.p95_seconds, 3.0);
  EXPECT_DOUBLE_EQ(disabled.QuantileSeconds(0.95), 3.0);

  const PredictionDistribution no_residuals =
      BootstrapDistribution({1.0, 2.0}, {}, 0.1, {});
  EXPECT_TRUE(no_residuals.samples.empty());
  EXPECT_DOUBLE_EQ(no_residuals.p95_seconds, 3.0);
}

TEST(DistributionTest, ConfidenceIsMonotoneAndNeverBelowPoint) {
  // The SLA contract: PredictedAtConfidence can only tighten a decision.
  // A job admitted at confidence c is admitted at every c' < c, and
  // confidence <= 0.5 reproduces the point-estimate path exactly.
  const PredictionDistribution d = BootstrapDistribution(
      {1.0, 2.0, 3.0}, {-0.8, -0.3, 0.1, 0.4, 1.0}, 0.25, {});
  EXPECT_DOUBLE_EQ(d.PredictedAtConfidence(0.0), d.point_seconds);
  EXPECT_DOUBLE_EQ(d.PredictedAtConfidence(0.5), d.point_seconds);
  double previous = 0.0;
  for (const double c : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    const double bound = d.PredictedAtConfidence(c);
    EXPECT_GE(bound, d.point_seconds) << c;
    EXPECT_GE(bound, previous) << c;
    previous = bound;
  }
  // Degenerate distributions answer the point estimate at any confidence.
  PredictionDistribution empty;
  empty.point_seconds = empty.p50_seconds = empty.p95_seconds = 7.0;
  EXPECT_DOUBLE_EQ(empty.PredictedAtConfidence(0.99), 7.0);
}

TEST(DistributionTest, StragglerSpreadWidensTheTail) {
  const std::vector<double> per_iteration = {2.0, 2.0, 2.0};
  const std::vector<double> residuals = {-0.1, 0.0, 0.1};
  const PredictionDistribution uniform =
      BootstrapDistribution(per_iteration, residuals, 0.0, {});
  const PredictionDistribution skewed =
      BootstrapDistribution(per_iteration, residuals, 0.5, {});
  EXPECT_GT(skewed.p95_seconds, uniform.p95_seconds);
}

}  // namespace
}  // namespace predict
