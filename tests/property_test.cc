// Property-style parameterized sweeps over the whole stack: counter
// conservation laws in the engine, extrapolation identities, transform
// round-trips, and predictor invariants across sampling ratios, worker
// counts and seeds.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/pagerank.h"
#include "algorithms/runner.h"
#include "core/predictor.h"
#include "core/transform.h"
#include "common/rng.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "service/prediction_service.h"
#include "tests/csr_equal.h"

namespace predict {
namespace {

// ----------------------------- engine counter conservation across workers

class WorkerSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WorkerSweep, CounterConservationLaws) {
  const uint32_t workers = GetParam();
  const Graph g = GeneratePreferentialAttachment({4000, 6, 0.3, 17}).MoveValue();
  bsp::EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;
  options.max_supersteps = 4;
  PageRankProgram program(ResolveConfig(PageRankSpec(), {}).MoveValue());
  bsp::Engine<PageRankValue, double> engine(options);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  for (const auto& step : stats->supersteps) {
    const bsp::WorkerCounters totals = step.Totals();
    // Every vertex is assigned exactly once.
    EXPECT_EQ(totals.total_vertices, g.num_vertices());
    // PageRank: every vertex computes every superstep; every edge carries
    // exactly one message (no dangling vertices in PA graphs).
    EXPECT_EQ(totals.active_vertices, g.num_vertices());
    EXPECT_EQ(totals.total_messages(), g.num_edges());
    // Bytes = 12 per message (the program's MessageBytes).
    EXPECT_EQ(totals.total_message_bytes(), 12 * g.num_edges());
    // With one worker nothing is remote; with W workers the expected
    // remote fraction is (W-1)/W, so for W >= 4 remote dominates.
    if (workers == 1) {
      EXPECT_EQ(totals.remote_messages, 0u);
    } else {
      EXPECT_GT(totals.remote_messages, 0u);
      if (workers >= 4) {
        EXPECT_GT(totals.remote_messages, totals.local_messages);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep,
                         ::testing::Values(1u, 2u, 7u, 29u, 64u));

// --------------------------------------- extrapolation identity at sr = 1

TEST(PropertyTest, FullSampleExtrapolationIsIdentity) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.3, 19}).MoveValue();
  auto factors = ComputeExtrapolationFactors(g, g);
  ASSERT_TRUE(factors.ok());
  EXPECT_DOUBLE_EQ(factors->vertex_factor, 1.0);
  EXPECT_DOUBLE_EQ(factors->edge_factor, 1.0);
  FeatureVector features{};
  for (int i = 0; i < kNumFeatures; ++i) features[i] = i * 3.7;
  const FeatureVector scaled = ExtrapolateFeatures(features, *factors);
  for (int i = 0; i < kNumFeatures; ++i) {
    EXPECT_DOUBLE_EQ(scaled[i], features[i]);
  }
}

// ----------------------------- transform scaling is multiplicative in sr

class TransformSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransformSweep, TauScalesExactlyByInverseRatio) {
  const double ratio = GetParam();
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 3e-9}};
  auto sample = DefaultTransform::Instance().Apply(PageRankSpec(), config, ratio);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 3e-9 / ratio);
  // Applying the inverse recovers the original.
  EXPECT_NEAR(sample->at("tau") * ratio, 3e-9, 1e-24);
}

INSTANTIATE_TEST_SUITE_P(Ratios, TransformSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5, 1.0));

// --------------------------------------------- predictor invariant sweeps

struct PredictorCase {
  double ratio;
  uint64_t seed;
};

class PredictorSweep : public ::testing::TestWithParam<PredictorCase> {};

TEST_P(PredictorSweep, ReportsAreWellFormed) {
  const PredictorCase& c = GetParam();
  const Graph g = GeneratePreferentialAttachment({12000, 6, 0.3, 23}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = c.ratio;
  options.sampler.seed = c.seed;
  options.engine.num_workers = 8;
  Predictor predictor(options);
  const AlgorithmConfig config = {
      {"tau", 0.001 / static_cast<double>(g.num_vertices())}};
  auto report = predictor.PredictRuntime("pagerank", g, "sweep", config);
  ASSERT_TRUE(report.ok());

  // Invariants that must hold at every ratio and seed:
  EXPECT_GT(report->predicted_iterations, 0);
  EXPECT_EQ(report->per_iteration_seconds.size(),
            static_cast<size_t>(report->predicted_iterations));
  for (const double s : report->per_iteration_seconds) EXPECT_GE(s, 0.0);
  EXPECT_NEAR(report->realized_sampling_ratio, c.ratio, 0.01);
  EXPECT_NEAR(report->factors.vertex_factor, 1.0 / c.ratio, 0.15 / c.ratio);
  EXPECT_GE(report->factors.edge_factor, report->factors.vertex_factor);
  // Extrapolated TotVert of iteration 0 equals the full graph's
  // per-worker share (TotVert_S * eV = (V_S/W) * (V_G/V_S) = V_G/W).
  const double tot_vert =
      report->extrapolated_profile.iterations[0]
          .critical_features[static_cast<int>(Feature::kTotVert)];
  EXPECT_NEAR(tot_vert, static_cast<double>(g.num_vertices()) / 8.0,
              static_cast<double>(g.num_vertices()) / 8.0 * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndSeeds, PredictorSweep,
    ::testing::Values(PredictorCase{0.05, 1}, PredictorCase{0.05, 2},
                      PredictorCase{0.10, 1}, PredictorCase{0.10, 2},
                      PredictorCase{0.20, 1}, PredictorCase{0.25, 3}));

// ------------------------------------------ sample run respects transform

class SampleTauSweep : public ::testing::TestWithParam<double> {};

TEST_P(SampleTauSweep, SampleRunUsesScaledThreshold) {
  const double ratio = GetParam();
  const Graph g = GeneratePreferentialAttachment({10000, 6, 0.3, 29}).MoveValue();
  const double tau = 0.001 / static_cast<double>(g.num_vertices());
  PredictorOptions options;
  options.sampler.sampling_ratio = ratio;
  options.engine.num_workers = 4;
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("pagerank", g, "", {{"tau", tau}});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->sample_config.at("tau"),
              tau / report->realized_sampling_ratio, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Ratios, SampleTauSweep,
                         ::testing::Values(0.05, 0.1, 0.2));

// -------------------------------- per-iteration runtimes are predictions
// for the *matching* iteration (variable-runtime algorithms)

TEST(PropertyTest, PerIterationPredictionsTrackActualShape) {
  // Connected components: first iterations heavy, tail light. The
  // prediction vector must reproduce that decaying shape, not just the
  // total (the paper's core claim for variable-runtime algorithms).
  const Graph g = GeneratePreferentialAttachment({30000, 6, 0.3, 31}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.15;
  options.engine.num_workers = 8;
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("connected_components", g, "", {});
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->per_iteration_seconds.size(), 3u);
  // Superstep 0 floods all edges: it must be predicted as the (or near
  // the) most expensive iteration; the last must be cheaper.
  const double first = report->per_iteration_seconds.front();
  const double last = report->per_iteration_seconds.back();
  EXPECT_GT(first, last);
}

// ------------------------------------- delta versioning soundness sweep

// The version-fingerprint contract: across ANY interleaving of insert
// batches, delete batches and reads, two reached states have equal
// VersionFingerprints iff their edge multisets are equal. Each random
// walk snapshots (canonical edge list, fingerprint) after every batch,
// read off a copy, then all snapshots from all walks are cross-compared.
TEST(DeltaVersioningProperty, FingerprintEqualsEdgeSetAcrossInterleavings) {
  const Graph base =
      GeneratePreferentialAttachment({120, 4, 0.3, 71}).MoveValue();
  struct Snapshot {
    std::vector<Edge> edges;  // canonical (sorted) — multiset identity
    uint64_t fp = 0;
  };
  std::vector<Snapshot> snapshots;

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EvolvingGraph g(base);
    Rng rng(seed * 977);
    for (int step = 0; step < 25; ++step) {
      const uint64_t kind = rng.Uniform(10);
      if (kind == 0) {
        ASSERT_TRUE(g.Current().ok());
      } else {
        EdgeDeltaBatch batch;
        const uint64_t batch_size = 1 + rng.Uniform(4);
        for (uint64_t i = 0; i < batch_size; ++i) {
          if (kind < 6 || g.num_edges() == 0) {
            batch.push_back(EdgeDelta::Insert(
                static_cast<VertexId>(rng.Uniform(g.num_vertices())),
                static_cast<VertexId>(rng.Uniform(g.num_vertices()))));
          } else {
            // Delete a random currently-present edge (sampled off a
            // compacted copy so the pick is valid for the live graph).
            EvolvingGraph copy = g;
            auto current = copy.Current();
            ASSERT_TRUE(current.ok());
            const std::vector<Edge> edges = (*current)->ToEdgeList();
            const Edge& victim = edges[rng.Uniform(edges.size())];
            batch.push_back(EdgeDelta::Delete(victim.src, victim.dst));
          }
          // One mutation per batch when deleting: a second delete of the
          // same pick could over-delete and invalidate the batch.
          if (kind >= 6) break;
        }
        ASSERT_TRUE(g.Apply(batch).ok());
      }
      EvolvingGraph copy = g;
      auto current = copy.Current();
      ASSERT_TRUE(current.ok());
      Snapshot snap;
      snap.edges = (*current)->ToEdgeList();
      snap.fp = g.VersionFingerprint();
      // Compaction preserves the version, and the version always equals
      // the compacted edge set's hash.
      EXPECT_EQ(copy.VersionFingerprint(), snap.fp);
      EXPECT_EQ((*current)->EdgeSetHash(), snap.fp);
      // Both compacted CSR directions equal a cold canonical build.
      auto cold = Graph::FromEdges(
          static_cast<VertexId>(base.num_vertices()), snap.edges);
      ASSERT_TRUE(cold.ok());
      EXPECT_TRUE(testing::SameCsr(
          **current, EvolvingGraph::Canonicalize(cold.MoveValue())))
          << "seed " << seed << " step " << step;
      snapshots.push_back(std::move(snap));
    }
  }

  int equal_pairs = 0;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    for (size_t j = i + 1; j < snapshots.size(); ++j) {
      const bool same_edges = snapshots[i].edges == snapshots[j].edges;
      const bool same_fp = snapshots[i].fp == snapshots[j].fp;
      EXPECT_EQ(same_edges, same_fp)
          << "snapshot " << i << " vs " << j << ": edge sets "
          << (same_edges ? "equal" : "differ") << " but fingerprints "
          << (same_fp ? "equal" : "differ");
      equal_pairs += same_edges ? 1 : 0;
    }
  }
  // The walks share a base and revisit states (insert then delete), so
  // the iff has to have been exercised in both directions.
  EXPECT_GT(equal_pairs, 0);
}

// Insert-then-delete of the same edge is a version no-op even when the
// two mutations land in separate batches (separate versions).
TEST(DeltaVersioningProperty, CancellationSurvivesInterposedCompaction) {
  const Graph base =
      GeneratePreferentialAttachment({80, 3, 0.3, 73}).MoveValue();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EvolvingGraph g(base);
    Rng rng(seed);
    const auto src = static_cast<VertexId>(rng.Uniform(80));
    const auto dst = static_cast<VertexId>(rng.Uniform(80));
    const uint64_t fp0 = g.VersionFingerprint();
    ASSERT_TRUE(g.Apply({EdgeDelta::Insert(src, dst)}).ok());
    ASSERT_TRUE(g.Apply({EdgeDelta::Delete(src, dst)}).ok());
    EXPECT_EQ(g.VersionFingerprint(), fp0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace predict
