// Tests for graph/delta.h: batch application, versioned fingerprints,
// canonicalization, the patched CSR, churn generation, and the dirty set
// backing incremental re-prediction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/transforms.h"
#include "tests/csr_equal.h"

namespace predict {
namespace {

Graph MakeChain(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1.0f});
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

Graph RandomGraph(VertexId n, uint64_t num_edges, uint64_t seed,
                  bool weighted = false) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    Edge e;
    e.src = static_cast<VertexId>(rng.Uniform(n));
    e.dst = static_cast<VertexId>(rng.Uniform(n));
    e.weight = weighted ? 1.0f + static_cast<float>(rng.Uniform(7)) : 1.0f;
    edges.push_back(e);
  }
  auto g = Graph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

Graph ColdCanonical(VertexId n, std::vector<Edge> edges) {
  auto cold = Graph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(cold.ok());
  return EvolvingGraph::Canonicalize(cold.MoveValue());
}

// ------------------------------------------------------------ canonical

TEST(DeltaCanonicalizeTest, SortsRowsAndPreservesEdgeSet) {
  std::vector<Edge> edges = {{0, 3, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f},
                             {2, 1, 1.0f}, {2, 0, 1.0f}};
  auto g = Graph::FromEdges(4, edges);
  ASSERT_TRUE(g.ok());
  const uint64_t edge_hash = g->EdgeSetHash();
  const Graph canon = EvolvingGraph::Canonicalize(g.MoveValue());
  EXPECT_EQ(canon.EdgeSetHash(), edge_hash);
  for (VertexId v = 0; v < canon.num_vertices(); ++v) {
    const auto row = canon.out_neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
  // Canonical form is a fixed point.
  const Graph again = EvolvingGraph::Canonicalize(canon);
  EXPECT_EQ(again.Fingerprint(), canon.Fingerprint());
}

TEST(DeltaCanonicalizeTest, EqualEdgeSetsCanonicalizeIdentically) {
  std::vector<Edge> a = {{1, 0, 1.0f}, {0, 2, 1.0f}, {0, 1, 1.0f}};
  std::vector<Edge> b = {{0, 1, 1.0f}, {1, 0, 1.0f}, {0, 2, 1.0f}};
  auto ga = Graph::FromEdges(3, a);
  auto gb = Graph::FromEdges(3, b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(EvolvingGraph::Canonicalize(ga.MoveValue()).Fingerprint(),
            EvolvingGraph::Canonicalize(gb.MoveValue()).Fingerprint());
}

// --------------------------------------------------------------- apply

TEST(DeltaOverlayTest, InsertShowsUpInMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  EXPECT_EQ(g.num_edges(), 4u);
  const Graph& current = **g.Current();
  EXPECT_EQ(current.out_degree(0), 2u);
  const auto row = current.out_neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()),
            (std::vector<VertexId>{1, 3}));
}

TEST(DeltaOverlayTest, DeleteRemovesFromMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ((*g.Current())->out_degree(1), 0u);
  EXPECT_TRUE((*g.Current())->out_neighbors(1).empty());
}

TEST(DeltaOverlayTest, DeleteCancelsPendingInsert) {
  EvolvingGraph g(MakeChain(3));
  const uint64_t fp0 = g.VersionFingerprint();
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  // The insert/delete pair restores the previous version's identity.
  EXPECT_EQ(g.VersionFingerprint(), fp0);
}

TEST(DeltaOverlayTest, ParallelEdgeDeleteConsumesOneOccurrence) {
  auto base = Graph::FromEdges(2, {{0, 1, 1.0f}, {0, 1, 1.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ((*g.Current())->out_degree(0), 1u);
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ((*g.Current())->out_degree(0), 0u);
}

TEST(DeltaApplyTest, VersionMatchesColdBuildOfBasePlusBatch) {
  Graph base = RandomGraph(40, 200, 7);
  std::vector<Edge> edges = base.ToEdgeList();
  EvolvingGraph g(std::move(base));
  Rng rng(11);
  EdgeDeltaBatch batch;
  for (int i = 0; i < 30; ++i) {
    const Edge e = {static_cast<VertexId>(rng.Uniform(40)),
                    static_cast<VertexId>(rng.Uniform(40)), 1.0f};
    batch.push_back(EdgeDelta::Insert(e.src, e.dst));
    edges.push_back(e);
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  const Graph cold = ColdCanonical(40, std::move(edges));
  EXPECT_TRUE(testing::SameCsr(**current, cold));
  EXPECT_EQ(g.VersionFingerprint(), cold.EdgeSetHash());
  EXPECT_EQ((*current)->EdgeSetHash(), g.VersionFingerprint());
}

// A delete never reaches back into an earlier batch: the second batch's
// delete consumes the canonical-first occurrence of the version the first
// batch produced, whereas inside one batch it cancels the pending insert.
TEST(DeltaApplyTest, DeleteInALaterBatchConsumesTheCanonicalFirstOccurrence) {
  auto base = Graph::FromEdges(2, {{0, 1, 1.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(*base);
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 1, 2.0f)}).ok());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  const Graph two_batches = ColdCanonical(2, {{0, 1, 2.0f}});
  EXPECT_TRUE(testing::SameCsr(**g.Current(), two_batches));
  EXPECT_EQ(g.VersionFingerprint(), two_batches.EdgeSetHash());

  EvolvingGraph h(*base);
  ASSERT_TRUE(
      h.Apply({EdgeDelta::Insert(0, 1, 2.0f), EdgeDelta::Delete(0, 1)}).ok());
  const Graph one_batch = ColdCanonical(2, {{0, 1, 1.0f}});
  EXPECT_TRUE(testing::SameCsr(**h.Current(), one_batch));
  EXPECT_EQ(h.VersionFingerprint(), one_batch.EdgeSetHash());

  // Of several pending inserts, a delete cancels the canonical-first one.
  EvolvingGraph k(*base);
  ASSERT_TRUE(k.Apply({EdgeDelta::Insert(0, 1, 3.0f),
                       EdgeDelta::Insert(0, 1, 0.5f), EdgeDelta::Delete(0, 1)})
                  .ok());
  const Graph cancelled_lowest = ColdCanonical(2, {{0, 1, 1.0f}, {0, 1, 3.0f}});
  EXPECT_TRUE(testing::SameCsr(**k.Current(), cancelled_lowest));
  EXPECT_EQ(k.VersionFingerprint(), cancelled_lowest.EdgeSetHash());
}

TEST(DeltaOverlayTest, WeightedInsertsMergeInCanonicalOrder) {
  auto base = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 1, 1.0f),
                       EdgeDelta::Insert(0, 1, 3.0f)}).ok());
  const auto weights = (*g.Current())->out_weights(0);
  EXPECT_EQ(std::vector<float>(weights.begin(), weights.end()),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));

  // Deleting every non-1.0 edge of a weighted base leaves it unweighted.
  {
    auto weighted = Graph::FromEdges(
        4, {{0, 1, 2.0f}, {0, 1, 1.0f}, {1, 2, 1.0f}, {2, 3, 0.5f},
            {3, 0, 1.0f}, {2, 1, 1.0f}});
    ASSERT_TRUE(weighted.ok());
    EvolvingGraph h(weighted.MoveValue());
    // Both (0, 1) occurrences go and a 1.0 one comes back.
    ASSERT_TRUE(h.Apply({EdgeDelta::Delete(0, 1), EdgeDelta::Delete(0, 1),
                         EdgeDelta::Insert(0, 1), EdgeDelta::Delete(2, 3)})
                    .ok());
    auto compacted = h.Current();
    ASSERT_TRUE(compacted.ok());
    EXPECT_FALSE((*compacted)->is_weighted());
    EXPECT_TRUE((*compacted)->out_weights().empty());
    EXPECT_TRUE(testing::SameCsr(
        **compacted,
        ColdCanonical(4, {{0, 1, 1.0f}, {1, 2, 1.0f}, {3, 0, 1.0f},
                           {2, 1, 1.0f}})));
  }
  // One non-1.0 insert makes an unweighted base weighted.
  {
    EvolvingGraph h(MakeChain(4));
    ASSERT_TRUE(h.Apply({EdgeDelta::Insert(3, 1, 2.5f)}).ok());
    auto compacted = h.Current();
    ASSERT_TRUE(compacted.ok());
    EXPECT_TRUE((*compacted)->is_weighted());
    EXPECT_TRUE(testing::SameCsr(
        **compacted, ColdCanonical(4, {{0, 1, 1.0f}, {1, 2, 1.0f},
                                       {2, 3, 1.0f}, {3, 1, 2.5f}})));
  }
}

// ---------------------------------------------------------- validation

TEST(DeltaValidationTest, RejectsUnknownVertex) {
  EvolvingGraph g(MakeChain(3));
  const Status s = g.Apply({EdgeDelta::Insert(0, 9)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(0 -> 9)"), std::string::npos) << s.message();
}

TEST(DeltaValidationTest, RejectsDeleteOfMissingEdge) {
  EvolvingGraph g(MakeChain(3));
  const Status s = g.Apply({EdgeDelta::Delete(2, 0)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(2 -> 0)"), std::string::npos) << s.message();
}

TEST(DeltaValidationTest, RejectsOverDeleteWithinOneBatch) {
  EvolvingGraph g(MakeChain(3));
  // One (0 -> 1) edge exists; deleting it twice in one batch must fail.
  const Status s = g.Apply({EdgeDelta::Delete(0, 1), EdgeDelta::Delete(0, 1)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(0 -> 1)"), std::string::npos) << s.message();
}

TEST(DeltaValidationTest, FailedBatchLeavesGraphUnchanged) {
  EvolvingGraph g(MakeChain(3));
  const uint64_t fp = g.VersionFingerprint();
  // Valid prefix, invalid tail: nothing may stick.
  const Status s =
      g.Apply({EdgeDelta::Insert(0, 2), EdgeDelta::Delete(2, 1)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(g.VersionFingerprint(), fp);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DeltaValidationTest, NetDeltaValidationAllowsDeleteOfBatchInsert) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(
      g.Apply({EdgeDelta::Insert(2, 0), EdgeDelta::Delete(2, 0)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
}

// ---------------------------------------------------------- versioning

TEST(DeltaFingerprintTest, NeverZeroAndStableAcrossCompaction) {
  EvolvingGraph g(RandomGraph(30, 120, 3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(1, 2)}).ok());
  const uint64_t fp = g.VersionFingerprint();
  EXPECT_NE(fp, 0u);
  EXPECT_EQ((*g.Current())->EdgeSetHash(), fp);
}

TEST(DeltaFingerprintTest, OrderOfBatchesDoesNotMatter) {
  EvolvingGraph a(MakeChain(5));
  EvolvingGraph b(MakeChain(5));
  ASSERT_TRUE(a.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(a.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Insert(0, 2)}).ok());
  EXPECT_EQ(a.VersionFingerprint(), b.VersionFingerprint());
  // And both equal a cold graph built on the final edge set.
  auto cold = Graph::FromEdges(
      5, {{0, 1, 1.0f}, {1, 2, 1.0f}, {3, 4, 1.0f}, {0, 2, 1.0f}});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(a.VersionFingerprint(), cold->EdgeSetHash());
}

TEST(DeltaFingerprintTest, DistinctEdgeSetsGetDistinctVersions) {
  EvolvingGraph g(MakeChain(6));
  std::vector<uint64_t> seen = {g.VersionFingerprint()};
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  seen.push_back(g.VersionFingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(5, 0)}).ok());
  seen.push_back(g.VersionFingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  seen.push_back(g.VersionFingerprint());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(DeltaFingerprintTest, WeightChangesTheVersion) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(2, 0, 2.0f)}).ok());
  const uint64_t heavy = g.VersionFingerprint();
  EvolvingGraph h(MakeChain(3));
  ASSERT_TRUE(h.Apply({EdgeDelta::Insert(2, 0, 1.0f)}).ok());
  EXPECT_NE(heavy, h.VersionFingerprint());
}

// ---------------------------------------------------------- compaction

TEST(DeltaApplyTest, LargeBatchLandsInOneVersion) {
  EvolvingGraph g(RandomGraph(50, 400, 5));
  Rng rng(9);
  // A batch of well over 25% of the 400 base edges.
  EdgeDeltaBatch batch;
  for (int i = 0; i < 150; ++i) {
    batch.push_back(EdgeDelta::Insert(static_cast<VertexId>(rng.Uniform(50)),
                                      static_cast<VertexId>(rng.Uniform(50))));
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  EXPECT_EQ((*g.Current())->num_edges(), 550u);
  EXPECT_EQ((*g.Current())->EdgeSetHash(), g.VersionFingerprint());
}

TEST(DeltaCompactionTest, CompactedBytesMatchColdCanonicalBuild) {
  Graph base = RandomGraph(32, 160, 13, /*weighted=*/true);
  std::vector<Edge> edges = base.ToEdgeList();
  EvolvingGraph g(std::move(base));
  Rng rng(17);
  EdgeDeltaBatch batch;
  // A delete consumes the lowest-weight surviving occurrence of (src, dst).
  const auto delete_edge = [&](VertexId src, VertexId dst) {
    auto victim = edges.end();
    for (auto it = edges.begin(); it != edges.end(); ++it) {
      if (it->src == src && it->dst == dst &&
          (victim == edges.end() || it->weight < victim->weight)) {
        victim = it;
      }
    }
    ASSERT_NE(victim, edges.end());
    edges.erase(victim);
    batch.push_back(EdgeDelta::Delete(src, dst));
  };
  // One occurrence of a parallel edge, then a spread of plain deletes.
  std::vector<Edge> by_pair = edges;
  std::sort(by_pair.begin(), by_pair.end(), [](const Edge& a, const Edge& b) {
    return std::pair(a.src, a.dst) < std::pair(b.src, b.dst);
  });
  const auto parallel = std::adjacent_find(
      by_pair.begin(), by_pair.end(), [](const Edge& a, const Edge& b) {
        return a.src == b.src && a.dst == b.dst;
      });
  ASSERT_NE(parallel, by_pair.end());
  delete_edge(parallel->src, parallel->dst);
  for (int i = 0; i < 12; ++i) {
    const Edge victim = edges[rng.Uniform(edges.size())];
    delete_edge(victim.src, victim.dst);
  }
  for (int i = 0; i < 20; ++i) {
    const Edge e = {static_cast<VertexId>(rng.Uniform(32)),
                    static_cast<VertexId>(rng.Uniform(32)),
                    1.0f + static_cast<float>(rng.Uniform(5))};
    batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight));
    edges.push_back(e);
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  auto cold = Graph::FromEdges(32, std::move(edges));
  ASSERT_TRUE(cold.ok());
  const Graph canon = EvolvingGraph::Canonicalize(cold.MoveValue());
  EXPECT_EQ((*current)->Fingerprint(), canon.Fingerprint());
  EXPECT_EQ((*current)->ToEdgeList(), canon.ToEdgeList());
  EXPECT_TRUE(testing::SameCsr(**current, canon));
}

TEST(DeltaCompactionTest, CurrentIsStableWhenClean) {
  EvolvingGraph g(MakeChain(4));
  auto a = g.Current();
  ASSERT_TRUE(a.ok());
  auto b = g.Current();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // same pointer: Current() does no work
}

// ----------------------------------------------------------- dirty set

TEST(DeltaDirtyTest, DirtyOutVerticesFindsChangedRows) {
  Graph before = MakeChain(6);
  EvolvingGraph g(before);
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 5), EdgeDelta::Delete(3, 4)}).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  const std::vector<VertexId> dirty =
      DirtyOutVertices(EvolvingGraph::Canonicalize(before), **current);
  EXPECT_EQ(dirty, (std::vector<VertexId>{0, 3}));
}

TEST(DeltaDirtyTest, IdenticalGraphsHaveNoDirtyVertices) {
  const Graph g = EvolvingGraph::Canonicalize(RandomGraph(20, 80, 21));
  EXPECT_TRUE(DirtyOutVertices(g, g).empty());
}

TEST(DeltaDirtyTest, VertexCountMismatchDirtiesEverything) {
  const Graph a = MakeChain(3);
  const Graph b = MakeChain(5);
  EXPECT_EQ(DirtyOutVertices(a, b).size(), 5u);
}

TEST(DeltaDirtyTest, WeightOnlyChangeIsDirty) {
  auto a = Graph::FromEdges(2, {{0, 1, 1.0f}});
  auto b = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(DirtyOutVertices(EvolvingGraph::Canonicalize(a.MoveValue()),
                             EvolvingGraph::Canonicalize(b.MoveValue())),
            (std::vector<VertexId>{0}));
}

// --------------------------------------------------------------- churn

TEST(DeltaChurnTest, GeneratedBatchAppliesCleanly) {
  Graph base = RandomGraph(60, 600, 31);
  ChurnOptions churn;
  churn.fraction = 0.05;
  churn.seed = 4;
  auto batch = GenerateChurn(base, churn);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->empty());
  EvolvingGraph g(std::move(base));
  EXPECT_TRUE(g.Apply(*batch).ok());
  EXPECT_EQ(g.num_edges(), 600u);  // half deletes, half inserts
}

TEST(DeltaChurnTest, DeterministicForASeed) {
  const Graph base = RandomGraph(40, 300, 33);
  ChurnOptions churn;
  churn.fraction = 0.1;
  churn.seed = 12;
  auto a = GenerateChurn(base, churn);
  auto b = GenerateChurn(base, churn);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  churn.seed = 13;
  auto c = GenerateChurn(base, churn);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST(DeltaChurnTest, AvoidMaskProtectsMarkedVertices) {
  const Graph base = RandomGraph(50, 500, 35);
  std::vector<uint8_t> avoid(50, 0);
  for (VertexId v = 0; v < 25; ++v) avoid[v] = 1;
  ChurnOptions churn;
  churn.fraction = 0.08;
  churn.seed = 2;
  churn.avoid = avoid;
  auto batch = GenerateChurn(base, churn);
  ASSERT_TRUE(batch.ok());
  for (const EdgeDelta& d : *batch) {
    EXPECT_GE(d.src, 25u) << "touched avoided vertex";
    EXPECT_GE(d.dst, 25u) << "touched avoided vertex";
  }
}

TEST(DeltaChurnTest, RejectsBadOptions) {
  const Graph base = RandomGraph(10, 40, 1);
  ChurnOptions churn;
  churn.fraction = 1.5;
  EXPECT_TRUE(GenerateChurn(base, churn).status().IsInvalidArgument());
  churn.fraction = 0.1;
  std::vector<uint8_t> avoid(3, 0);  // wrong size
  churn.avoid = avoid;
  EXPECT_TRUE(GenerateChurn(base, churn).status().IsInvalidArgument());
}

}  // namespace
}  // namespace predict
