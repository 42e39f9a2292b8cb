// Frozen reference for SemiClusteringProgram's candidate selection: the
// original Compute, which copies every received cluster, builds every
// legal extension, sorts all candidates by (score desc, members asc),
// drops adjacent equal-member duplicates (std::unique), forwards the top
// s_max and keeps the top c_max of own + the survivors containing self
// after a second sort + unique. The library program scores candidates
// before it builds them and selects only the winners; it must stay
// bit-identical to this one (tests/semiclustering_oracle_test.cc).
//
// Everything except Compute mirrors the library program, so the run
// fingerprints of the two programs are directly comparable.

#ifndef PREDICT_TESTS_SEMICLUSTERING_REFERENCE_H_
#define PREDICT_TESTS_SEMICLUSTERING_REFERENCE_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "algorithms/semiclustering.h"
#include "bsp/engine.h"
#include "graph/transforms.h"

namespace predict::semiclustering_reference {

// Deterministic candidate ordering: score descending, then member list
// lexicographic.
struct ClusterOrder {
  double boundary_factor;
  bool operator()(const SemiCluster& a, const SemiCluster& b) const {
    const double sa = a.Score(boundary_factor);
    const double sb = b.Score(boundary_factor);
    if (sa != sb) return sa > sb;
    return a.members < b.members;
  }
};

// Sorted copy of a vertex's incident edges, built once per Compute call.
class IncidentEdges {
 public:
  explicit IncidentEdges(
      const bsp::VertexContext<SemiClusterValue, SemiClusterMessage>& ctx) {
    const auto neighbors = ctx.out_neighbors();
    const bool weighted = ctx.graph_is_weighted();
    const auto weights =
        weighted ? ctx.out_weights() : std::span<const float>{};
    adjacency_.reserve(neighbors.size());
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const float w = weighted ? weights[i] : 1.0f;
      adjacency_.emplace_back(neighbors[i], w);
      total_weight_ += w;
    }
    std::sort(adjacency_.begin(), adjacency_.end());
  }

  double total_weight() const { return total_weight_; }

  // Total edge weight from this vertex to `members`.
  double WeightTo(const std::vector<VertexId>& members) const {
    double sum = 0.0;
    for (const VertexId m : members) {
      auto it = std::lower_bound(
          adjacency_.begin(), adjacency_.end(), m,
          [](const auto& entry, VertexId v) { return entry.first < v; });
      while (it != adjacency_.end() && it->first == m) {
        sum += it->second;
        ++it;
      }
    }
    return sum;
  }

 private:
  std::vector<std::pair<VertexId, float>> adjacency_;
  double total_weight_ = 0.0;
};

class ReferenceSemiClusteringProgram final
    : public bsp::VertexProgram<SemiClusterValue, SemiClusterMessage> {
 public:
  explicit ReferenceSemiClusteringProgram(const AlgorithmConfig& config)
      : boundary_factor_(config.at("f_b")),
        v_max_(static_cast<size_t>(config.at("v_max"))),
        c_max_(static_cast<size_t>(config.at("c_max"))),
        s_max_(static_cast<size_t>(config.at("s_max"))),
        tau_(config.at("tau")) {}

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override {
    updated_agg_ = registry->Register(SemiClusteringProgram::kUpdatedAggregate,
                                      bsp::AggregatorOp::kSum);
    total_agg_ = registry->Register(SemiClusteringProgram::kTotalAggregate,
                                    bsp::AggregatorOp::kSum);
  }

  SemiClusterValue InitialValue(VertexId v, const Graph& graph) const override {
    SemiCluster cluster;
    cluster.members = {v};
    cluster.internal_weight = 0.0;
    double boundary = 0.0;
    if (graph.is_weighted()) {
      for (const float w : graph.out_weights(v)) boundary += w;
    } else {
      boundary = static_cast<double>(graph.out_degree(v));
    }
    cluster.boundary_weight = boundary;
    return {{std::move(cluster)}};
  }

  void Compute(bsp::VertexContext<SemiClusterValue, SemiClusterMessage>* ctx,
               std::span<const SemiClusterMessage> messages) override {
    const VertexId self = ctx->id();
    std::vector<SemiCluster>& own = ctx->value().clusters;
    const ClusterOrder order{boundary_factor_};

    if (ctx->superstep() == 0) {
      ctx->Aggregate(total_agg_, static_cast<double>(own.size()));
      if (ctx->out_degree() > 0) {
        ctx->SendMessageToAllNeighbors(SemiClusterMessage{
            std::make_shared<const std::vector<SemiCluster>>(own)});
      }
      return;
    }

    const IncidentEdges incident(*ctx);
    std::vector<SemiCluster> candidates;
    for (const SemiClusterMessage& msg : messages) {
      for (const SemiCluster& cluster : *msg.clusters) {
        candidates.push_back(cluster);
        if (!cluster.ContainsVertex(self) && cluster.members.size() < v_max_) {
          const double to_members = incident.WeightTo(cluster.members);
          const double total = incident.total_weight();
          SemiCluster extended = cluster;
          extended.members.insert(
              std::lower_bound(extended.members.begin(),
                               extended.members.end(), self),
              self);
          extended.internal_weight += to_members;
          extended.boundary_weight += (total - to_members) - to_members;
          candidates.push_back(std::move(extended));
        }
      }
    }

    std::sort(candidates.begin(), candidates.end(), order);
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    if (!candidates.empty() && ctx->out_degree() > 0) {
      auto forwarded = std::make_shared<std::vector<SemiCluster>>(
          candidates.begin(),
          candidates.begin() + std::min(s_max_, candidates.size()));
      ctx->SendMessageToAllNeighbors(SemiClusterMessage{std::move(forwarded)});
    }

    std::vector<SemiCluster> containing = own;
    for (const SemiCluster& cluster : candidates) {
      if (cluster.ContainsVertex(self)) containing.push_back(cluster);
    }
    std::sort(containing.begin(), containing.end(), order);
    containing.erase(std::unique(containing.begin(), containing.end()),
                     containing.end());
    if (containing.size() > c_max_) containing.resize(c_max_);

    uint64_t updated = 0;
    for (const SemiCluster& cluster : containing) {
      if (std::find(own.begin(), own.end(), cluster) == own.end()) ++updated;
    }
    ctx->Aggregate(updated_agg_, static_cast<double>(updated));
    ctx->Aggregate(total_agg_, static_cast<double>(containing.size()));
    own = std::move(containing);
  }

  void MasterCompute(bsp::MasterContext* ctx) override {
    if (ctx->superstep() == 0) return;
    const double total = ctx->GetAggregate(total_agg_);
    if (total <= 0.0) return;
    const double ratio = ctx->GetAggregate(updated_agg_) / total;
    if (ratio < tau_) ctx->HaltComputation();
  }

  uint64_t MessageBytes(const SemiClusterMessage& message) const override {
    uint64_t bytes = 8;
    for (const SemiCluster& cluster : *message.clusters) {
      bytes += 24 + 4 * cluster.members.size();
    }
    return bytes;
  }

  uint64_t VertexStateBytes(const SemiClusterValue& value) const override {
    uint64_t bytes = 16;
    for (const SemiCluster& cluster : value.clusters) {
      bytes += 24 + 4 * cluster.members.size();
    }
    return bytes;
  }

 private:
  double boundary_factor_;
  size_t v_max_;
  size_t c_max_;
  size_t s_max_;
  double tau_;
  bsp::AggregatorId updated_agg_ = 0;
  bsp::AggregatorId total_agg_ = 0;
};

/// RunSemiClustering with the reference program (config assumed valid).
inline Result<SemiClusteringResult> RunReferenceSemiClustering(
    const Graph& graph, const AlgorithmConfig& overrides,
    const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(SemiClusteringSpec(), overrides));
  PREDICT_ASSIGN_OR_RETURN(Graph undirected, ToUndirected(graph));
  ReferenceSemiClusteringProgram program(config);
  bsp::Engine<SemiClusterValue, SemiClusterMessage> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats,
                           engine.Run(undirected, &program));
  SemiClusteringResult result;
  result.stats = std::move(stats);
  result.clusters = std::move(engine.mutable_vertex_values());
  return result;
}

}  // namespace predict::semiclustering_reference

#endif  // PREDICT_TESTS_SEMICLUSTERING_REFERENCE_H_
