#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.h"

namespace predict {

namespace {

// Common state for the random-walk family: tracks picked vertices in
// insertion order, stops when the target count is reached. Vertex ids
// are compact [0, |V|), so membership is a dense byte bitmap — every
// walk step costs a branch + store instead of a hash probe.
class PickSet {
 public:
  PickSet(uint64_t num_vertices, uint64_t target)
      : target_(target), in_set_(num_vertices, 0) {
    order_.reserve(target);
  }

  // Returns true if v was newly added.
  bool Add(VertexId v) {
    if (in_set_[v]) return false;
    in_set_[v] = 1;
    order_.push_back(v);
    return true;
  }

  bool Contains(VertexId v) const { return in_set_[v] != 0; }
  bool Done() const { return order_.size() >= target_; }
  std::vector<VertexId>& order() { return order_; }

 private:
  uint64_t target_;
  std::vector<uint8_t> in_set_;
  std::vector<VertexId> order_;
};

// One random-walk step along an outgoing edge; returns false if the
// current vertex has no outgoing edges (walk must restart). `scratch`
// backs the adjacency decode on compressed graphs (unused on plain).
bool Step(const Graph& graph, Rng& rng, std::vector<VertexId>& scratch,
          VertexId& current) {
  const auto targets = graph.OutNeighborsInto(current, &scratch);
  if (targets.empty()) return false;
  current = targets[rng.Uniform(targets.size())];
  return true;
}

std::vector<VertexId> TopOutDegreeSeeds(const Graph& graph, uint64_t k) {
  std::vector<VertexId> vertices(graph.num_vertices());
  std::iota(vertices.begin(), vertices.end(), 0);
  k = std::min<uint64_t>(k, vertices.size());
  std::partial_sort(vertices.begin(), vertices.begin() + k, vertices.end(),
                    [&](VertexId a, VertexId b) {
                      const uint64_t da = graph.out_degree(a);
                      const uint64_t db = graph.out_degree(b);
                      return da != db ? da > db : a < b;  // deterministic ties
                    });
  vertices.resize(k);
  return vertices;
}

bool IsSegmented(const SamplerOptions& options) {
  return options.walk_segment_steps != 0;
}

// Everything a walk needs besides the graph, validated once: the target
// count, the RJ/BRJ step cap, and the restart rule.
struct WalkPlan {
  SamplerOptions options;
  uint64_t num_vertices = 0;
  uint64_t target = 0;
  // Guard against pathological graphs (e.g. no outgoing edges anywhere):
  // an RJ/BRJ walk takes at most this many steps.
  uint64_t max_steps = 0;
  // BRJ: restarts draw from this top-out-degree seed set. Empty for every
  // other sampler, whose restarts draw uniformly from all vertices.
  std::vector<VertexId> brj_seeds;

  VertexId Restart(Rng& rng) const {
    return brj_seeds.empty()
               ? static_cast<VertexId>(rng.Uniform(num_vertices))
               : brj_seeds[rng.Uniform(brj_seeds.size())];
  }
};

Result<WalkPlan> PlanWalk(const Graph& graph, const SamplerOptions& options) {
  const uint64_t n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.sampling_ratio <= 0.0 || options.sampling_ratio > 1.0) {
    return Status::InvalidArgument("sampling_ratio must be in (0, 1]");
  }
  if (options.jump_probability < 0.0 || options.jump_probability > 1.0) {
    return Status::InvalidArgument("jump_probability must be in [0, 1]");
  }
  const bool jump_walk = options.kind == SamplerKind::kRandomJump ||
                         options.kind == SamplerKind::kBiasedRandomJump;
  if (IsSegmented(options) && !jump_walk) {
    return Status::InvalidArgument(
        "walk_segment_steps requires the RJ or BRJ sampler");
  }
  WalkPlan plan;
  plan.options = options;
  plan.num_vertices = n;
  plan.target = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.sampling_ratio * static_cast<double>(n))));
  plan.max_steps = 200 * plan.target + 1000;
  if (options.kind == SamplerKind::kBiasedRandomJump) {
    const uint64_t k = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(options.seed_fraction *
                                              static_cast<double>(n))));
    plan.brj_seeds = TopOutDegreeSeeds(graph, k);
  }
  return plan;
}

// The random-jump step loop behind every RJ/BRJ walk: start at a restart
// vertex, then for up to `max_steps` steps jump (with the jump
// probability, or at a vertex without out-edges) or follow a uniform
// out-edge. visit(v) sees the start and every step's vertex and returns
// false to stop the walk.
template <typename Visit>
void JumpWalk(const Graph& graph, const WalkPlan& plan, Rng& rng,
              uint64_t max_steps, Visit&& visit) {
  std::vector<VertexId> scratch;
  VertexId current = plan.Restart(rng);
  if (!visit(current)) return;
  for (uint64_t step = 0; step < max_steps; ++step) {
    if (rng.NextBool(plan.options.jump_probability) ||
        !Step(graph, rng, scratch, current)) {
      current = plan.Restart(rng);
    }
    if (!visit(current)) return;
  }
}

// A previous walk's record plus the vertices whose out-rows changed
// since: the source segments are spliced from.
struct SpliceSource {
  const SampleWalkRecord* record;
  std::vector<uint8_t> is_dirty;
  uint64_t segments_reused = 0;

  // Appends segment i's recorded trajectory to *visits if the record has
  // one and it touches no dirty vertex: no visited vertex's out-row
  // changed, so the segment walks identically on the mutated graph.
  bool Splice(uint64_t i, std::vector<VertexId>* visits) {
    const std::vector<uint64_t>& offsets = record->segment_offsets;
    if (i + 1 >= offsets.size()) return false;
    const auto first = record->visits.begin() + offsets[i];
    const auto last = record->visits.begin() + offsets[i + 1];
    for (auto it = first; it != last; ++it) {
      if (is_dirty[*it]) return false;
    }
    visits->insert(visits->end(), first, last);
    ++segments_reused;
    return true;
  }
};

// Stream id for the segmented walk's uniform remainder fill; far above
// any segment index.
constexpr uint64_t kFillStream = ~uint64_t{0};

// Segmented walks chop the walk into fixed-length segments, segment i
// drawing from the independent stream Rng(seed).Fork(i). A segment's
// trajectory then depends only on the out-rows of the vertices it visits
// — the invariant splicing rests on. Segments are composed in order,
// adding trajectory vertices to the pick set until the target is reached;
// segment i is generated only while the step cap allows. `splice` (may
// be null) lends clean segments from a previous walk.
void ComposeSegments(const Graph& graph, const WalkPlan& plan,
                     SpliceSource* splice, PickSet& picks,
                     std::vector<uint64_t>* offsets,
                     std::vector<VertexId>* visits) {
  const uint64_t segment_steps = plan.options.walk_segment_steps;
  offsets->assign(1, 0);
  for (uint64_t i = 0; !picks.Done() && i * segment_steps < plan.max_steps;
       ++i) {
    const size_t begin = visits->size();
    if (splice == nullptr || !splice->Splice(i, visits)) {
      Rng rng = Rng(plan.options.seed).Fork(i);
      JumpWalk(graph, plan, rng, segment_steps, [&](VertexId v) {
        visits->push_back(v);
        return true;
      });
    }
    offsets->push_back(visits->size());
    for (size_t p = begin; p < visits->size() && !picks.Done(); ++p) {
      picks.Add((*visits)[p]);
    }
  }
}

// Undirected degree used by MHRW's acceptance ratio.
uint64_t UndirectedDegree(const Graph& graph, VertexId v) {
  return graph.out_degree(v) + graph.in_degree(v);
}

// One undirected neighbor pick (walks ignore direction, as in Gjoka et al.).
bool UndirectedStep(const Graph& graph, Rng& rng,
                    std::vector<VertexId>& out_scratch,
                    std::vector<VertexId>& in_scratch, VertexId& current) {
  const uint64_t out_degree = graph.out_degree(current);
  const uint64_t degree = out_degree + graph.in_degree(current);
  if (degree == 0) return false;
  const uint64_t pick = rng.Uniform(degree);
  current = pick < out_degree
                ? graph.OutNeighborsInto(current, &out_scratch)[pick]
                : graph.InSourcesInto(current, &in_scratch)[pick - out_degree];
  return true;
}

// MHRW and FF (below) run on the caller's stream and pick set; Walk's
// remainder fill continues the same stream.
void MetropolisHastingsWalk(const Graph& graph, const WalkPlan& plan,
                            Rng& rng, PickSet& picks) {
  const uint64_t n = plan.num_vertices;
  std::vector<VertexId> out_scratch, in_scratch;
  VertexId current = static_cast<VertexId>(rng.Uniform(n));
  picks.Add(current);
  const uint64_t max_steps = 400 * plan.target + 1000;
  uint64_t steps = 0;
  while (!picks.Done() && steps < max_steps) {
    ++steps;
    if (rng.NextBool(plan.options.jump_probability)) {
      current = static_cast<VertexId>(rng.Uniform(n));
      picks.Add(current);
      continue;
    }
    VertexId proposal = current;
    if (!UndirectedStep(graph, rng, out_scratch, in_scratch, proposal)) {
      current = static_cast<VertexId>(rng.Uniform(n));
      picks.Add(current);
      continue;
    }
    // MH acceptance removes the walk's bias towards high-degree vertices:
    // accept with probability min(1, deg(current)/deg(proposal)).
    const double ratio = static_cast<double>(UndirectedDegree(graph, current)) /
                         static_cast<double>(UndirectedDegree(graph, proposal));
    if (ratio >= 1.0 || rng.NextDouble() < ratio) current = proposal;
    picks.Add(current);
  }
}

void ForestFire(const Graph& graph, const WalkPlan& plan, Rng& rng,
                PickSet& picks) {
  std::vector<VertexId> frontier;
  std::vector<VertexId> scratch;
  while (!picks.Done()) {
    // Ignite at a random unvisited vertex.
    VertexId seed = static_cast<VertexId>(rng.Uniform(plan.num_vertices));
    picks.Add(seed);
    frontier.assign(1, seed);
    while (!frontier.empty() && !picks.Done()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      // Burn a geometric number of untouched out-neighbors.
      for (const VertexId u : graph.OutNeighborsInto(v, &scratch)) {
        if (picks.Done()) break;
        if (!rng.NextBool(plan.options.forward_burning_p)) continue;
        if (picks.Add(u)) frontier.push_back(u);
      }
    }
  }
}

}  // namespace

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kRandomJump:
      return "RJ";
    case SamplerKind::kBiasedRandomJump:
      return "BRJ";
    case SamplerKind::kMetropolisHastingsRW:
      return "MHRW";
    case SamplerKind::kForestFire:
      return "FF";
  }
  return "unknown";
}

std::string SamplerOptionsKey(const SamplerOptions& options) {
  // Cache keys must never truncate: two distinct options differing only
  // past a fixed buffer's end would silently collide. snprintf reports
  // the full untruncated length, so retry with an exact-sized buffer if
  // the stack buffer ever proves too small.
  const auto format = [&](char* out, size_t size) {
    return std::snprintf(
        out, size,
        "%s;ratio=%.17g;jump=%.17g;seedfrac=%.17g;burn=%.17g;seed=%llu",
        SamplerKindName(options.kind), options.sampling_ratio,
        options.jump_probability, options.seed_fraction,
        options.forward_burning_p,
        static_cast<unsigned long long>(options.seed));
  };
  char buf[192];
  const int len = format(buf, sizeof(buf));
  if (len < 0) return SamplerKindName(options.kind);  // cannot happen
  std::string key;
  if (static_cast<size_t>(len) < sizeof(buf)) {
    key.assign(buf, static_cast<size_t>(len));
  } else {
    key.assign(static_cast<size_t>(len) + 1, '\0');
    format(key.data(), key.size());
    key.resize(static_cast<size_t>(len));
  }
  // Segmented walks sample a different (equally valid) vertex set, so
  // the segment length is part of the key; the suffix is appended only
  // when the feature is on, keeping classic keys byte-identical.
  if (options.walk_segment_steps != 0) {
    key += ";seg=" + std::to_string(options.walk_segment_steps);
  }
  return key;
}

namespace {

// The one sampling path behind SampleVertices, SampleGraph,
// SampleGraphRecorded and ResampleIncremental. `splice` (may be null)
// lends clean segments from a previous walk; `record` (may be null)
// receives this walk's record.
Result<std::vector<VertexId>> Walk(const Graph& graph, const WalkPlan& plan,
                                   SpliceSource* splice,
                                   SampleWalkRecord* record) {
  const SamplerOptions& options = plan.options;
  PickSet picks(plan.num_vertices, plan.target);
  std::vector<uint64_t> offsets;
  std::vector<VertexId> visits;
  // The stream the remainder fill draws from once the walk stops short.
  Rng rng(options.seed);
  if (IsSegmented(options)) {
    ComposeSegments(graph, plan, splice, picks, &offsets, &visits);
    rng = Rng(options.seed).Fork(kFillStream);
  } else {
    switch (options.kind) {
      case SamplerKind::kRandomJump:
      case SamplerKind::kBiasedRandomJump:
        // The classic walk: one Rng(seed) stream for the whole walk and
        // the fill. It exists only to keep today's default samples and the
        // frozen seed sampler (tests/coldpath_reference.h) bit-identical;
        // deleting it in favour of segmented walks waits on the accuracy
        // ledger showing the two sample equally well.
        JumpWalk(graph, plan, rng, plan.max_steps, [&](VertexId v) {
          picks.Add(v);
          return !picks.Done();
        });
        break;
      case SamplerKind::kMetropolisHastingsRW:
        MetropolisHastingsWalk(graph, plan, rng, picks);
        break;
      case SamplerKind::kForestFire:
        ForestFire(graph, plan, rng, picks);
        break;
      default:
        return Status::InvalidArgument("unknown sampler kind");
    }
  }
  // Degenerate structures may starve the walk (§3.5 limitations); fill the
  // remainder uniformly so the requested ratio is honored.
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(rng.Uniform(plan.num_vertices)));
  }
  if (record != nullptr) {
    *record = SampleWalkRecord{};
    record->options = options;
    record->num_vertices = plan.num_vertices;
    if (IsSegmented(options)) {
      record->brj_seeds = plan.brj_seeds;
      record->segment_offsets = std::move(offsets);
      record->touched.assign(plan.num_vertices, 0);
      for (const VertexId v : visits) record->touched[v] = 1;
      record->visits = std::move(visits);
    }
  }
  return std::move(picks.order());
}

Result<Sample> SampleGraphWith(const Graph& graph, const WalkPlan& plan,
                               SpliceSource* splice,
                               SampleWalkRecord* record) {
  PREDICT_ASSIGN_OR_RETURN(std::vector<VertexId> vertices,
                           Walk(graph, plan, splice, record));
  PREDICT_ASSIGN_OR_RETURN(SubgraphResult sub, InducedSubgraph(graph, vertices));
  Sample sample;
  sample.vertices = std::move(sub.original_id);
  sample.subgraph = std::move(sub.graph);
  sample.original_num_vertices = graph.num_vertices();
  sample.realized_ratio = static_cast<double>(sample.vertices.size()) /
                          static_cast<double>(sample.original_num_vertices);
  return sample;
}

}  // namespace

Result<std::vector<VertexId>> SampleVertices(const Graph& graph,
                                             const SamplerOptions& options) {
  PREDICT_ASSIGN_OR_RETURN(const WalkPlan plan, PlanWalk(graph, options));
  return Walk(graph, plan, nullptr, nullptr);
}

Result<Sample> SampleGraph(const Graph& graph, const SamplerOptions& options) {
  PREDICT_ASSIGN_OR_RETURN(const WalkPlan plan, PlanWalk(graph, options));
  return SampleGraphWith(graph, plan, nullptr, nullptr);
}

Result<Sample> SampleGraphRecorded(const Graph& graph,
                                   const SamplerOptions& options,
                                   SampleWalkRecord* record) {
  PREDICT_ASSIGN_OR_RETURN(const WalkPlan plan, PlanWalk(graph, options));
  return SampleGraphWith(graph, plan, nullptr, record);
}

Result<IncrementalSampleResult> ResampleIncremental(
    const Graph& graph, const std::vector<VertexId>& dirty,
    const SampleWalkRecord& record, SampleWalkRecord* updated) {
  const uint64_t n = graph.num_vertices();
  PREDICT_ASSIGN_OR_RETURN(const WalkPlan plan,
                           PlanWalk(graph, record.options));
  IncrementalSampleResult result;
  // Splicing needs a segmented record of a graph with the same |V| whose
  // BRJ seed set the mutated graph reproduces exactly (every segment's
  // restarts would shift otherwise). Past 25% dirty vertices the splice
  // check itself stops paying.
  result.full_resample = !IsSegmented(record.options) ||
                         record.num_vertices != n ||
                         plan.brj_seeds != record.brj_seeds ||
                         dirty.size() * 4 > n;
  SpliceSource splice{&record, {}};
  if (!result.full_resample) {
    splice.is_dirty.assign(n, 0);
    for (const VertexId v : dirty) {
      if (v >= n) return Status::InvalidArgument("dirty vertex out of range");
      splice.is_dirty[v] = 1;
    }
  }
  PREDICT_ASSIGN_OR_RETURN(
      result.sample,
      SampleGraphWith(graph, plan, result.full_resample ? nullptr : &splice,
                      updated));
  result.segments_total = updated->segment_offsets.empty()
                              ? 0
                              : updated->segment_offsets.size() - 1;
  result.segments_reused = splice.segments_reused;
  return result;
}

}  // namespace predict
