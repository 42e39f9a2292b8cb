#include "algorithms/semiclustering.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string>
#include <tuple>
#include <utility>

#include "graph/transforms.h"

namespace predict {

namespace {

using Context = bsp::VertexContext<SemiClusterValue, SemiClusterMessage>;

// S_c for a cluster of `size` members with weights (I_c, B_c).
double ClusterScore(double internal_weight, double boundary_weight,
                    size_t size, double boundary_factor) {
  const double vc = static_cast<double>(size);
  const double denom = std::max(1.0, vc * (vc - 1.0) / 2.0);
  return (internal_weight - boundary_factor * boundary_weight) / denom;
}

// This vertex's incident edges, read in place from its CSR row.
// RunSemiClustering runs on ToUndirected output, whose rows are sorted
// and duplicate-free, so a member has at most one edge and a binary
// search finds it.
class IncidentEdges {
 public:
  explicit IncidentEdges(const Context& ctx)
      : neighbors_(ctx.out_neighbors()),
        weights_(ctx.graph_is_weighted() ? ctx.out_weights()
                                         : std::span<const float>{}) {
    assert(std::adjacent_find(neighbors_.begin(), neighbors_.end(),
                              std::greater_equal<>()) == neighbors_.end());
    if (weights_.empty()) {
      total_weight_ = static_cast<double>(neighbors_.size());
    } else {
      for (const float w : weights_) total_weight_ += w;
    }
  }

  // (I_c, B_c) of `cluster` extended by this vertex: edges from this
  // vertex to members become internal; members' boundary edges towards
  // this vertex stop being boundary; this vertex's other incident edges
  // become new boundary edges.
  std::pair<double, double> ExtendedWeights(const SemiCluster& cluster) const {
    const double to_members = WeightTo(cluster.members);
    return {cluster.internal_weight + to_members,
            cluster.boundary_weight +
                ((total_weight_ - to_members) - to_members)};
  }

 private:
  // Total edge weight from this vertex to `members` (sorted ascending).
  double WeightTo(const std::vector<VertexId>& members) const {
    double sum = 0.0;
    auto it = neighbors_.begin();
    for (const VertexId m : members) {
      it = std::lower_bound(it, neighbors_.end(), m);
      if (it == neighbors_.end()) break;
      if (*it == m) {
        sum += weights_.empty() ? 1.0 : weights_[it - neighbors_.begin()];
      }
    }
    return sum;
  }

  std::span<const VertexId> neighbors_;
  std::span<const float> weights_;  // empty: every edge weighs 1
  double total_weight_ = 0.0;
};

// A cluster this vertex could forward or keep, scored but not built: a
// received cluster as it came, or its extension by this vertex (the
// source's members with `self` inserted at `self_pos`).
struct Candidate {
  double score;
  const SemiCluster* source;
  uint32_t self_pos;  // lower_bound of self in source->members
  bool extended;

  size_t size() const { return source->members.size() + extended; }
  VertexId member(size_t i, VertexId self) const {
    if (!extended || i < self_pos) return source->members[i];
    return i == self_pos ? self : source->members[i - 1];
  }
};

// Lexicographic comparison of two candidates' member lists: <0, 0, >0.
int CompareMembers(const Candidate& a, const Candidate& b, VertexId self) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const VertexId x = a.member(i, self);
    const VertexId y = b.member(i, self);
    if (x != y) return x < y ? -1 : 1;
  }
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

// Candidate order: score descending, then member list ascending.
struct CandidateOrder {
  VertexId self;
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.score != b.score) return a.score > b.score;
    return CompareMembers(a, b, self) < 0;
  }
};

// Candidates in CandidateOrder, sorted on demand: At(i) partial-sorts
// just far enough to place position i, at least doubling the sorted
// prefix, so a walk that stops after m positions costs O(n log m).
// Positions below the sorted prefix never move again.
class LazySorted {
 public:
  LazySorted(std::vector<Candidate>& entries, CandidateOrder order)
      : entries_(entries), order_(order) {}

  const Candidate* At(size_t i) {
    if (i >= entries_.size()) return nullptr;
    if (i >= sorted_) {
      const size_t end =
          std::min(entries_.size(), std::max(i + 1, 2 * sorted_));
      std::partial_sort(entries_.begin() + sorted_, entries_.begin() + end,
                        entries_.end(), order_);
      sorted_ = end;
    }
    return &entries_[i];
  }

  // Whether any entry sorts strictly between a and b, which are not
  // entries and a precedes b: the first entry after a decides.
  bool AnyBetween(const Candidate& a, const Candidate& b) {
    size_t i = std::upper_bound(entries_.begin(), entries_.begin() + sorted_,
                                a, order_) -
               entries_.begin();
    while (i < entries_.size() && !order_(a, *At(i))) ++i;
    const Candidate* after_a = At(i);
    return after_a != nullptr && order_(*after_a, b);
  }

 private:
  std::vector<Candidate>& entries_;
  CandidateOrder order_;
  size_t sorted_ = 0;
};

// Selection buffers, one set per engine thread, reused across Compute
// calls so that a warm thread selects without allocating. A thread keeps
// the capacity of the most candidates one vertex has had (24 bytes each).
struct Scratch {
  std::vector<Candidate> with_self;
  std::vector<Candidate> without_self;
  std::vector<Candidate> previous;  // this vertex's own clusters
  std::vector<const Candidate*> forward;
  std::vector<const Candidate*> keep;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  scratch.with_self.clear();
  scratch.without_self.clear();
  scratch.previous.clear();
  scratch.forward.clear();
  scratch.keep.clear();
  return scratch;
}

}  // namespace

bool SemiCluster::ContainsVertex(VertexId v) const {
  return std::binary_search(members.begin(), members.end(), v);
}

double SemiCluster::Score(double boundary_factor) const {
  return ClusterScore(internal_weight, boundary_weight, members.size(),
                      boundary_factor);
}

const AlgorithmSpec& SemiClusteringSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "semiclustering";
    s.convergence = ConvergenceKind::kRelativeRatio;
    s.default_config = {{"f_b", 0.1},  {"v_max", 10}, {"c_max", 1},
                        {"s_max", 1},  {"tau", 0.001}};
    s.requires_undirected = true;
    s.convergence_keys = {"tau"};
    // The program casts the sizes to size_t and selects by them.
    s.check_config = [](const AlgorithmConfig& config) {
      for (const char* key : {"v_max", "c_max", "s_max"}) {
        PREDICT_RETURN_NOT_OK(CheckWholeInRange(config, key, 1, 4294967296.0));
      }
      for (const char* key : {"f_b", "tau"}) {
        PREDICT_RETURN_NOT_OK(CheckFinite(config, key));
      }
      return Status::OK();
    };
    return s;
  }();
  return spec;
}

SemiClusteringProgram::SemiClusteringProgram(const AlgorithmConfig& config) {
  boundary_factor_ = config.at("f_b");
  v_max_ = static_cast<size_t>(config.at("v_max"));
  c_max_ = static_cast<size_t>(config.at("c_max"));
  s_max_ = static_cast<size_t>(config.at("s_max"));
  tau_ = config.at("tau");
}

void SemiClusteringProgram::RegisterAggregators(
    bsp::AggregatorRegistry* registry) {
  updated_agg_ = registry->Register(kUpdatedAggregate, bsp::AggregatorOp::kSum);
  total_agg_ = registry->Register(kTotalAggregate, bsp::AggregatorOp::kSum);
}

SemiClusterValue SemiClusteringProgram::InitialValue(VertexId v,
                                                     const Graph& graph) const {
  // The singleton cluster {v}: no internal edges; every incident edge is
  // a boundary edge.
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

void SemiClusteringProgram::Compute(
    Context* ctx, std::span<const SemiClusterMessage> messages) {
  const VertexId self = ctx->id();
  std::vector<SemiCluster>& own = ctx->value().clusters;

  if (ctx->superstep() == 0) {
    // Send the singleton cluster to all neighbors.
    ctx->Aggregate(total_agg_, static_cast<double>(own.size()));
    if (ctx->out_degree() > 0) {
      ctx->SendMessageToAllNeighbors(SemiClusterMessage{
          std::make_shared<const std::vector<SemiCluster>>(own)});
    }
    return;
  }

  // Score every candidate without building it: each received cluster,
  // plus its extension by this vertex when legal. One lower_bound per
  // received cluster gives both where `self` would go and whether the
  // cluster already contains it.
  const IncidentEdges incident(*ctx);
  const CandidateOrder order{self};
  Scratch& scratch = ThreadScratch();
  std::vector<Candidate>& with_self = scratch.with_self;
  std::vector<Candidate>& without_self = scratch.without_self;
  for (const SemiClusterMessage& msg : messages) {
    for (const SemiCluster& cluster : *msg.clusters) {
      const std::vector<VertexId>& members = cluster.members;
      const auto pos = std::lower_bound(members.begin(), members.end(), self);
      const bool has_self = pos != members.end() && *pos == self;
      const auto self_pos = static_cast<uint32_t>(pos - members.begin());
      (has_self ? with_self : without_self)
          .push_back({cluster.Score(boundary_factor_), &cluster, self_pos,
                      false});
      if (!has_self && members.size() < v_max_) {
        const auto [internal, boundary] = incident.ExtendedWeights(cluster);
        with_self.push_back({ClusterScore(internal, boundary,
                                          members.size() + 1,
                                          boundary_factor_),
                             &cluster, self_pos, true});
      }
    }
  }

  // The selection below picks exactly what sorting all candidates and
  // dropping each one whose members equal its predecessor's (std::unique)
  // would: whether a candidate survives depends only on the one just
  // before it, so walking a sorted prefix suffices. Equal keys imply
  // equal members, so they never straddle the two lists.
  LazySorted sorted_with_self(with_self, order);
  LazySorted sorted_without_self(without_self, order);

  // The s_max best candidates, to forward.
  std::vector<const Candidate*>& forward = scratch.forward;
  {
    size_t a = 0;
    size_t b = 0;
    const Candidate* prev = nullptr;
    while (forward.size() < s_max_) {
      const Candidate* x = sorted_with_self.At(a);
      const Candidate* y = sorted_without_self.At(b);
      if (x == nullptr && y == nullptr) break;
      const bool take_x = y == nullptr || (x != nullptr && order(*x, *y));
      const Candidate* next = take_x ? (++a, x) : (++b, y);
      if (prev == nullptr || CompareMembers(*prev, *next, self) != 0) {
        forward.push_back(next);
      }
      prev = next;
    }
  }

  // The c_max best of this vertex's own clusters plus the surviving
  // candidates that contain it, by the same sort + unique rule. A
  // candidate with self can equal only another with self: it survives
  // the first unique unless the with-self candidate before it has the
  // same members and no without-self candidate sorts between the two.
  std::vector<Candidate>& previous = scratch.previous;
  for (const SemiCluster& cluster : own) {
    previous.push_back({cluster.Score(boundary_factor_), &cluster, 0, false});
  }
  std::sort(previous.begin(), previous.end(), order);
  std::vector<const Candidate*>& keep = scratch.keep;
  {
    size_t q = 0;
    size_t j = 0;
    const Candidate* prev = nullptr;
    while (keep.size() < c_max_) {
      const Candidate* x = sorted_with_self.At(q);
      while (x != nullptr && q > 0) {
        const Candidate& before = *sorted_with_self.At(q - 1);
        if (CompareMembers(before, *x, self) != 0 ||
            (before.score != x->score &&
             sorted_without_self.AnyBetween(before, *x))) {
          break;
        }
        x = sorted_with_self.At(++q);
      }
      const Candidate* o = j < previous.size() ? &previous[j] : nullptr;
      if (x == nullptr && o == nullptr) break;
      // On a tie the own cluster comes first, as in the reference's
      // (insertion-)sort of own + candidates.
      const bool take_own = o != nullptr && (x == nullptr || !order(*x, *o));
      const Candidate* next = take_own ? (++j, o) : (++q, x);
      if (prev == nullptr || CompareMembers(*prev, *next, self) != 0) {
        keep.push_back(next);
      }
      prev = next;
    }
  }

  // Build only the winners.
  const auto build = [&](const Candidate& c) {
    if (!c.extended) return *c.source;
    const std::vector<VertexId>& members = c.source->members;
    SemiCluster cluster;
    cluster.members.reserve(members.size() + 1);
    cluster.members.assign(members.begin(), members.begin() + c.self_pos);
    cluster.members.push_back(self);
    cluster.members.insert(cluster.members.end(),
                           members.begin() + c.self_pos, members.end());
    std::tie(cluster.internal_weight, cluster.boundary_weight) =
        incident.ExtendedWeights(*c.source);
    return cluster;
  };
  if (!forward.empty() && ctx->out_degree() > 0) {
    auto forwarded = std::make_shared<std::vector<SemiCluster>>();
    forwarded->reserve(forward.size());
    for (const Candidate* c : forward) forwarded->push_back(build(*c));
    ctx->SendMessageToAllNeighbors(SemiClusterMessage{std::move(forwarded)});
  }
  std::vector<SemiCluster> containing;
  containing.reserve(keep.size());
  for (const Candidate* c : keep) containing.push_back(build(*c));

  // A cluster counts as updated if it was not in the previous list.
  uint64_t updated = 0;
  for (const SemiCluster& cluster : containing) {
    if (std::find(own.begin(), own.end(), cluster) == own.end()) ++updated;
  }
  ctx->Aggregate(updated_agg_, static_cast<double>(updated));
  ctx->Aggregate(total_agg_, static_cast<double>(containing.size()));
  own = std::move(containing);
  // Vertices stay active; the master's update-ratio check stops the run.
}

void SemiClusteringProgram::MasterCompute(bsp::MasterContext* ctx) {
  if (ctx->superstep() == 0) return;
  const double total = ctx->GetAggregate(total_agg_);
  if (total <= 0.0) return;
  const double ratio = ctx->GetAggregate(updated_agg_) / total;
  if (ratio < tau_) ctx->HaltComputation();
}

uint64_t SemiClusteringProgram::MessageBytes(
    const SemiClusterMessage& message) const {
  uint64_t bytes = 8;
  for (const SemiCluster& cluster : *message.clusters) {
    bytes += 24 + 4 * cluster.members.size();
  }
  return bytes;
}

uint64_t SemiClusteringProgram::VertexStateBytes(
    const SemiClusterValue& value) const {
  uint64_t bytes = 16;
  for (const SemiCluster& cluster : value.clusters) {
    bytes += 24 + 4 * cluster.members.size();
  }
  return bytes;
}

Result<SemiClusteringResult> RunSemiClustering(
    const Graph& graph, const AlgorithmConfig& overrides,
    const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(SemiClusteringSpec(), overrides));
  PREDICT_ASSIGN_OR_RETURN(Graph undirected, ToUndirected(graph));
  SemiClusteringProgram program(config);
  bsp::Engine<SemiClusterValue, SemiClusterMessage> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(undirected, &program));
  SemiClusteringResult result;
  result.stats = std::move(stats);
  result.clusters = std::move(engine.mutable_vertex_values());
  return result;
}

}  // namespace predict
