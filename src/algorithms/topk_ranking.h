// Top-k ranking for PageRank (§4.3 of the paper, after Khayyat et al.).
//
// Each vertex maintains the k highest PageRank values among the vertices
// that can reach it (including itself), together with their origins. In
// the first superstep every vertex sends its own rank to its out-
// neighbors; afterwards, a vertex that improved its list forwards the
// updated list, and a vertex with no update sends nothing — so both the
// number of messages and the bytes per message vary across supersteps
// (the paper's category ii.b: variable runtime via message *count*).
//
// Convergence: activeVertices/totalVertices < tau (a *relative ratio* —
// the identity transform rule applies, §4.3).
//
// Config keys:
//   "k"    list capacity, default 10
//   "tau"  active-ratio threshold, default 0.001
//   "rank_iterations"  supersteps of the internal fixed-iteration
//          PageRank used to produce input ranks when none are supplied
// ResolveConfig (TopKRankingSpec's check) rejects a k that is not a whole
// number in [1, 2^32) and a rank_iterations that is not one in [0, 2^31)
// with InvalidArgument.

#ifndef PREDICT_ALGORITHMS_TOPK_RANKING_H_
#define PREDICT_ALGORITHMS_TOPK_RANKING_H_

#include <memory>
#include <span>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& TopKRankingSpec();

/// One (rank, origin) entry of a top-k list.
struct RankEntry {
  double rank = 0.0;
  VertexId origin = 0;

  bool operator==(const RankEntry& other) const {
    return rank == other.rank && origin == other.origin;
  }
};

/// Per-vertex state: a descending-sorted list of at most k entries.
struct TopKValue {
  std::vector<RankEntry> entries;
};

/// Message: the sender's current list. The payload is shared between the
/// copies fanned out to each neighbor (one allocation per send, not per
/// edge); MessageBytes still reports the full serialized size per copy.
struct TopKMessage {
  std::shared_ptr<const std::vector<RankEntry>> entries;
};

class TopKRankingProgram final
    : public bsp::VertexProgram<TopKValue, TopKMessage> {
 public:
  /// `ranks` are the input PageRank values, one per vertex.
  TopKRankingProgram(const AlgorithmConfig& config,
                     std::span<const double> ranks);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  TopKValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<TopKValue, TopKMessage>* ctx,
               std::span<const TopKMessage> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  /// 8-byte header + 12 bytes per (rank, origin) entry.
  uint64_t MessageBytes(const TopKMessage& message) const override {
    return 8 + 12 * message.entries->size();
  }
  uint64_t VertexStateBytes(const TopKValue& value) const override {
    return 16 + 12 * value.entries.size();
  }

  static constexpr const char* kUpdatesAggregate = "topk_updated_vertices";

 private:
  size_t k_;
  double tau_;
  std::span<const double> ranks_;
  bsp::AggregatorId updates_agg_ = 0;
};

/// Result of a standalone top-k run.
struct TopKResult {
  std::vector<TopKValue> lists;
  bsp::RunStats stats;
};

/// Runs top-k ranking over `graph`. If `ranks` is empty, a fixed-
/// iteration PageRank is executed first to produce them (not included in
/// the returned stats, mirroring the paper's treatment of top-k as its
/// own algorithm operating on PageRank output).
Result<TopKResult> RunTopKRanking(const Graph& graph,
                                  const AlgorithmConfig& overrides = {},
                                  const bsp::EngineOptions& engine = {},
                                  std::vector<double> ranks = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_TOPK_RANKING_H_
