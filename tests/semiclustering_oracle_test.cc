// Selection oracle for SemiClusteringProgram: the library program scores
// candidates and builds only the top s_max / c_max, the reference
// (tests/semiclustering_reference.h) builds and sorts every candidate.
// Both must produce bit-identical runs — the same RunStats fingerprint
// and the same final clusters, members and the bit patterns of I and B —
// across weighted and unweighted graphs with many score ties, every
// (s_max, c_max, v_max) in {1,2,3}^2 x {2,4,10}, and workers {1,5,29} x
// threads {0,3}.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "algorithms/semiclustering.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "tests/run_fingerprint.h"
#include "tests/semiclustering_reference.h"

namespace predict {
namespace {

using semiclustering_reference::RunReferenceSemiClustering;

bsp::EngineOptions Engine(uint32_t workers, int threads) {
  bsp::EngineOptions options;
  options.num_workers = workers;
  options.num_threads = threads;
  return options;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// `graph`'s edges with seeded weights from {0.25, 0.5, 0.75, 1} (few
// distinct values, so equal scores are common), each edge's reverse
// added with an independent weight (ToUndirected keeps each side's own).
Graph Reweighted(const Graph& graph, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (const Edge& e : graph.ToEdgeList()) {
    edges.push_back(
        {e.src, e.dst, 0.25f * static_cast<float>(1 + rng.Uniform(4))});
    edges.push_back(
        {e.dst, e.src, 0.25f * static_cast<float>(1 + rng.Uniform(4))});
  }
  return Graph::FromEdges(static_cast<VertexId>(graph.num_vertices()),
                          std::move(edges))
      .MoveValue();
}

// A complete graph whose every edge weighs 0.5: weighted, all ties.
Graph UniformWeightComplete(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v, 0.5f});
  }
  return Graph::FromEdges(n, std::move(edges)).MoveValue();
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

const std::vector<NamedGraph>& OracleGraphs() {
  static const std::vector<NamedGraph> graphs = [] {
    std::vector<NamedGraph> g;
    const Graph complete = GenerateComplete(14).MoveValue();
    const Graph pa =
        GeneratePreferentialAttachment({240, 4, 0.4, 11}).MoveValue();
    g.push_back({"complete14", complete});
    g.push_back({"pa240", pa});
    g.push_back({"complete14_w", Reweighted(complete, 5)});
    g.push_back({"pa240_w", Reweighted(pa, 6)});
    g.push_back({"complete12_uniform_w", UniformWeightComplete(12)});
    return g;
  }();
  return graphs;
}

void ExpectSameRun(const Graph& graph, const AlgorithmConfig& config,
                   const bsp::EngineOptions& engine) {
  auto actual = RunSemiClustering(graph, config, engine);
  auto expected = RunReferenceSemiClustering(graph, config, engine);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(testing::FingerprintRunStats(actual->stats),
            testing::FingerprintRunStats(expected->stats));
  ASSERT_EQ(actual->clusters.size(), expected->clusters.size());
  for (size_t v = 0; v < actual->clusters.size(); ++v) {
    const auto& a = actual->clusters[v].clusters;
    const auto& e = expected->clusters[v].clusters;
    ASSERT_EQ(a.size(), e.size()) << "vertex " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].members, e[i].members) << "vertex " << v << " #" << i;
      ASSERT_EQ(Bits(a[i].internal_weight), Bits(e[i].internal_weight))
          << "vertex " << v << " #" << i;
      ASSERT_EQ(Bits(a[i].boundary_weight), Bits(e[i].boundary_weight))
          << "vertex " << v << " #" << i;
    }
  }
}

TEST(SemiClusteringOracleTest, EveryConfigMatchesTheReference) {
  for (const NamedGraph& g : OracleGraphs()) {
    for (const double s_max : {1.0, 2.0, 3.0}) {
      for (const double c_max : {1.0, 2.0, 3.0}) {
        for (const double v_max : {2.0, 4.0, 10.0}) {
          SCOPED_TRACE(g.name + " s_max=" + std::to_string(s_max) +
                       " c_max=" + std::to_string(c_max) +
                       " v_max=" + std::to_string(v_max));
          ExpectSameRun(g.graph,
                        {{"s_max", s_max}, {"c_max", c_max}, {"v_max", v_max}},
                        Engine(5, 0));
        }
      }
    }
  }
}

TEST(SemiClusteringOracleTest, EveryEngineMatchesTheReference) {
  const std::vector<AlgorithmConfig> configs = {
      {},
      {{"s_max", 3.0}, {"c_max", 2.0}, {"v_max", 4.0}, {"f_b", 0.3}}};
  for (const NamedGraph& g : OracleGraphs()) {
    for (const uint32_t workers : {1u, 5u, 29u}) {
      for (const int threads : {0, 3}) {
        for (size_t c = 0; c < configs.size(); ++c) {
          SCOPED_TRACE(g.name + " workers=" + std::to_string(workers) +
                       " threads=" + std::to_string(threads) +
                       " config#" + std::to_string(c));
          ExpectSameRun(g.graph, configs[c], Engine(workers, threads));
        }
      }
    }
  }
}

}  // namespace
}  // namespace predict
