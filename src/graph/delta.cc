#include "graph/delta.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/rng.h"

namespace predict {

namespace {

inline uint32_t WeightBits(float w) {
  uint32_t bits;
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

// Canonical out-row order: (dst, weight bits).
inline bool CanonicalLess(const std::pair<VertexId, float>& a,
                          const std::pair<VertexId, float>& b) {
  if (a.first != b.first) return a.first < b.first;
  return WeightBits(a.second) < WeightBits(b.second);
}

Status OffendingEdge(const char* what, VertexId src, VertexId dst) {
  return Status::InvalidArgument(std::string(what) + " (" +
                                 std::to_string(src) + " -> " +
                                 std::to_string(dst) + ")");
}

// Assembles a canonical Graph from per-vertex (dst, weight) rows already
// in canonical order: builds the out CSR, derives the in CSR by a
// counting sort over targets in (src asc, slot) order — the same
// convention GraphBuilder and the CSR-native transforms use.
Graph GraphFromCanonicalRows(uint64_t v_count,
                             std::vector<uint64_t> out_offsets,
                             std::vector<VertexId> out_targets,
                             std::vector<float> out_weights) {
  const uint64_t e_count = out_targets.size();
  const bool weighted =
      std::any_of(out_weights.begin(), out_weights.end(),
                  [](float w) { return w != 1.0f; });
  if (!weighted) out_weights.clear();

  std::vector<uint64_t> in_offsets(v_count + 1, 0);
  for (const VertexId t : out_targets) in_offsets[t + 1]++;
  for (uint64_t v = 0; v < v_count; ++v) in_offsets[v + 1] += in_offsets[v];
  std::vector<VertexId> in_sources(e_count);
  std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (uint64_t v = 0; v < v_count; ++v) {
    for (uint64_t s = out_offsets[v]; s < out_offsets[v + 1]; ++s) {
      in_sources[cursor[out_targets[s]]++] = static_cast<VertexId>(v);
    }
  }
  return Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                        std::move(out_weights), std::move(in_offsets),
                        std::move(in_sources));
}

// Every in-row lists its sources in ascending order (a source appears
// once per parallel edge). Canonicalize and Compact both produce this
// order, and Compact's in-row merge relies on it.
[[maybe_unused]] bool InRowsAscending(const Graph& g) {
  for (uint64_t v = 0; v < g.num_vertices(); ++v) {
    const auto row = g.in_neighbors(static_cast<VertexId>(v));
    if (!std::is_sorted(row.begin(), row.end())) return false;
  }
  return true;
}

// One overlay entry seen from its target: `src` gains (add) or loses
// one in-edge occurrence into `dst`.
struct InDelta {
  VertexId dst;
  VertexId src;
  bool add;
};

// An InDelta once bucketed by target.
struct SourceDelta {
  VertexId src;
  bool add;
};

// Builds one CSR direction by patching the base's: each row in `dirty`
// (ascending) is rewritten by write_row(k, slot), which stores the k-th
// dirty row's new ids from `slot` on and returns their count. Every run
// of clean rows between two dirty ones is copied in bulk, ids and (when
// `base_weights` is non-empty) weights, with its offsets shifted by the
// size change so far.
template <typename WriteRow>
void PatchRows(std::span<const uint64_t> base_offsets,
               std::span<const VertexId> base_ids,
               std::span<const float> base_weights,
               std::span<const VertexId> dirty, uint64_t* offsets,
               VertexId* ids, float* weights, WriteRow&& write_row) {
  int64_t shift = 0;  // new minus base offset past the last row written
  uint64_t run = 0;   // first row of the pending clean run
  const auto copy_run = [&](uint64_t end) {
    if (end == run) return;
    const uint64_t from = base_offsets[run];
    const uint64_t count = base_offsets[end] - from;
    std::copy_n(base_ids.data() + from, count, ids + offsets[run]);
    if (!base_weights.empty()) {
      std::copy_n(base_weights.data() + from, count, weights + offsets[run]);
    }
    for (uint64_t v = run; v < end; ++v) {
      offsets[v + 1] = base_offsets[v + 1] + static_cast<uint64_t>(shift);
    }
  };
  offsets[0] = 0;
  for (size_t k = 0; k < dirty.size(); ++k) {
    const uint64_t v = dirty[k];
    copy_run(v);
    offsets[v + 1] = offsets[v] + write_row(k, offsets[v]);
    shift = static_cast<int64_t>(offsets[v + 1] - base_offsets[v + 1]);
    run = v + 1;
  }
  copy_run(base_offsets.size() - 1);
}

}  // namespace

Graph EvolvingGraph::Canonicalize(Graph g) {
  g = Graph::WithPlainEdges(std::move(g));
  const uint64_t v_count = g.num_vertices();
  if (v_count == 0) return g;

  std::vector<uint64_t> out_offsets(g.out_offsets().begin(),
                                    g.out_offsets().end());
  std::vector<VertexId> out_targets(g.num_edges());
  std::vector<float> out_weights(g.num_edges(), 1.0f);
  std::vector<std::pair<VertexId, float>> row;
  for (uint64_t v = 0; v < v_count; ++v) {
    const auto targets = g.out_neighbors(static_cast<VertexId>(v));
    row.clear();
    for (size_t i = 0; i < targets.size(); ++i) {
      row.emplace_back(targets[i],
                       g.is_weighted()
                           ? g.out_weights(static_cast<VertexId>(v))[i]
                           : 1.0f);
    }
    std::sort(row.begin(), row.end(), CanonicalLess);
    uint64_t slot = out_offsets[v];
    for (const auto& [dst, w] : row) {
      out_targets[slot] = dst;
      out_weights[slot] = w;
      ++slot;
    }
  }
  return GraphFromCanonicalRows(v_count, std::move(out_offsets),
                                std::move(out_targets),
                                std::move(out_weights));
}

EvolvingGraph::EvolvingGraph(Graph base)
    : base_(Canonicalize(std::move(base))) {
  assert(InRowsAscending(base_));
  version_fp_ = base_.EdgeSetHash();
}

uint64_t EvolvingGraph::SurvivingBaseCount(VertexId v, VertexId dst) const {
  const auto targets = base_.out_neighbors(v);
  const auto [lo, hi] = std::equal_range(targets.begin(), targets.end(), dst);
  uint64_t count = static_cast<uint64_t>(hi - lo);
  const auto it = overlay_.find(v);
  if (it != overlay_.end()) {
    const auto& removes = it->second.removes;
    const auto [rlo, rhi] =
        std::equal_range(removes.begin(), removes.end(), dst);
    count -= static_cast<uint64_t>(rhi - rlo);
  }
  return count;
}

uint64_t EvolvingGraph::out_degree(VertexId v) const {
  uint64_t degree = base_.out_degree(v);
  const auto it = overlay_.find(v);
  if (it != overlay_.end()) {
    degree += it->second.adds.size();
    degree -= it->second.removes.size();
  }
  return degree;
}

Status EvolvingGraph::Apply(const EdgeDeltaBatch& batch) {
  const uint64_t v_count = num_vertices();

  // Validate the whole batch against the current version before touching
  // anything: replay it against per-vertex occurrence counters so a
  // delete may consume an insert earlier in the same batch, and a batch
  // over-deleting an edge (duplicate removal) is caught here.
  {
    // (src, dst) -> net occurrence delta within this batch.
    std::unordered_map<uint64_t, int64_t> net;
    const auto pack = [](VertexId s, VertexId d) {
      return (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(d);
    };
    for (const EdgeDelta& delta : batch) {
      if (delta.src >= v_count || delta.dst >= v_count) {
        return OffendingEdge(delta.op == EdgeDelta::Op::kInsert
                                 ? "edge insert references an unknown vertex"
                                 : "edge delete references an unknown vertex",
                             delta.src, delta.dst);
      }
      int64_t& n = net[pack(delta.src, delta.dst)];
      if (delta.op == EdgeDelta::Op::kInsert) {
        ++n;
        continue;
      }
      --n;
      const uint64_t existing =
          SurvivingBaseCount(delta.src, delta.dst) +
          [&]() -> uint64_t {
        const auto it = overlay_.find(delta.src);
        if (it == overlay_.end()) return 0;
        const auto& adds = it->second.adds;
        const auto lo = std::lower_bound(
            adds.begin(), adds.end(), delta.dst,
            [](const auto& a, VertexId d) { return a.first < d; });
        const auto hi = std::upper_bound(
            adds.begin(), adds.end(), delta.dst,
            [](VertexId d, const auto& a) { return d < a.first; });
        return static_cast<uint64_t>(hi - lo);
      }();
      if (static_cast<int64_t>(existing) + n < 0) {
        return OffendingEdge("delete of a non-existent edge", delta.src,
                             delta.dst);
      }
    }
  }

  // Apply. Deletes cancel a pending add for the same (src, dst) first
  // (most recent state), else consume a base occurrence.
  for (const EdgeDelta& delta : batch) {
    VertexDelta& vd = overlay_[delta.src];
    if (delta.op == EdgeDelta::Op::kInsert) {
      const std::pair<VertexId, float> entry{delta.dst, delta.weight};
      vd.adds.insert(std::upper_bound(vd.adds.begin(), vd.adds.end(), entry,
                                      CanonicalLess),
                     entry);
      ++overlay_entries_;
      ++edge_count_delta_;
      version_fp_ += Graph::EdgeHash(delta.src, delta.dst, delta.weight);
      continue;
    }
    // Delete: prefer cancelling a pending add (first add with this dst).
    const auto add_it = std::lower_bound(
        vd.adds.begin(), vd.adds.end(), delta.dst,
        [](const auto& a, VertexId d) { return a.first < d; });
    float removed_weight;
    if (add_it != vd.adds.end() && add_it->first == delta.dst) {
      removed_weight = add_it->second;
      vd.adds.erase(add_it);
      --overlay_entries_;
    } else {
      // Consume the next surviving base occurrence: its weight is the
      // (removes-so-far)-th occurrence of dst in the sorted base row.
      const auto targets = base_.out_neighbors(delta.src);
      const auto lo =
          std::lower_bound(targets.begin(), targets.end(), delta.dst);
      const auto [rlo, rhi] = std::equal_range(vd.removes.begin(),
                                               vd.removes.end(), delta.dst);
      const uint64_t prior = static_cast<uint64_t>(rhi - rlo);
      const uint64_t slot =
          static_cast<uint64_t>(lo - targets.begin()) + prior;
      removed_weight = base_.is_weighted()
                           ? base_.out_weights(delta.src)[slot]
                           : 1.0f;
      vd.removes.insert(rhi, delta.dst);
      ++overlay_entries_;
    }
    --edge_count_delta_;
    version_fp_ -= Graph::EdgeHash(delta.src, delta.dst, removed_weight);
    if (vd.adds.empty() && vd.removes.empty()) overlay_.erase(delta.src);
  }

  const uint64_t threshold = std::max<uint64_t>(
      64, static_cast<uint64_t>(compaction_threshold_ *
                                static_cast<double>(base_.num_edges())));
  if (overlay_entries_ > threshold) return Compact();
  return Status::OK();
}

Graph EvolvingGraph::PatchedBase() const {
  const uint64_t v_count = num_vertices();
  const uint64_t e_count = num_edges();

  // Out-CSR. Weights exist only when the base has them or an add brings
  // a non-1.0 one (allocated on the first such add: every slot before it
  // holds 1.0 either way). The merge also lists each dirty row's changes
  // seen from their targets, in ascending source order, counted per
  // target.
  std::vector<uint64_t> out_offsets(v_count + 1);
  std::vector<VertexId> out_targets(e_count);
  std::vector<float> out_weights(base_.is_weighted() ? e_count : 0);
  std::vector<InDelta> in_deltas;
  in_deltas.reserve(overlay_entries_);
  std::vector<uint64_t> cursor(v_count + 1, 0);
  {
    // The overlay's rows in ascending source order, walked bucket by
    // bucket: each bucket is an independent load, whereas the node list
    // is one long chain of dependent ones.
    std::vector<const VertexDelta*> by_source(v_count, nullptr);
    for (size_t b = 0; b < overlay_.bucket_count(); ++b) {
      for (auto it = overlay_.cbegin(b); it != overlay_.cend(b); ++it) {
        by_source[it->first] = &it->second;
      }
    }
    std::vector<VertexId> dirty_sources;
    dirty_sources.reserve(overlay_.size());
    for (uint64_t v = 0; v < v_count; ++v) {
      if (by_source[v] != nullptr) {
        dirty_sources.push_back(static_cast<VertexId>(v));
      }
    }
    PatchRows(
        base_.out_offsets(), base_.out_targets(), base_.out_weights(),
        dirty_sources, out_offsets.data(), out_targets.data(),
        out_weights.data(), [&](size_t k, uint64_t slot) {
          const VertexId v = dirty_sources[k];
          const VertexDelta& delta = *by_source[v];
          const auto targets = base_.out_neighbors(v);
          const std::span<const float> weights =
              base_.is_weighted() ? base_.out_weights(v)
                                  : std::span<const float>{};
          uint64_t s = slot;
          MergeRow(targets, weights, delta, [&](VertexId dst, float w) {
            out_targets[s] = dst;
            if (w != 1.0f && out_weights.empty()) {
              out_weights.assign(e_count, 1.0f);
            }
            if (!out_weights.empty()) out_weights[s] = w;
            ++s;
          });
          for (const auto& add : delta.adds) {
            in_deltas.push_back({add.first, v, true});
            ++cursor[add.first + 1];
          }
          for (const VertexId dst : delta.removes) {
            in_deltas.push_back({dst, v, false});
            ++cursor[dst + 1];
          }
          assert(s - slot ==
                 targets.size() + delta.adds.size() - delta.removes.size());
          return s - slot;
        });
    assert(out_offsets[v_count] == e_count);
  }

  // In-CSR. A stable counting sort buckets the in-deltas by target, so
  // every bucket is ascending by source like the base in-rows it merges
  // into; no comparison sort is needed. Afterwards target t's bucket is
  // [cursor[t - 1], cursor[t]). Each scratch array is released once dead,
  // so its pages can back the next allocation.
  std::vector<VertexId> dirty_targets;
  for (uint64_t t = 0; t < v_count; ++t) {
    if (cursor[t + 1] != 0) dirty_targets.push_back(static_cast<VertexId>(t));
    cursor[t + 1] += cursor[t];
  }
  std::vector<SourceDelta> by_target(in_deltas.size());
  for (const InDelta& d : in_deltas) {
    by_target[cursor[d.dst]++] = {d.src, d.add};
  }
  in_deltas = std::vector<InDelta>();
  // A remove's store lands on the next slot, which the next row
  // overwrites; the spare slot covers the last row.
  std::vector<uint64_t> in_offsets(v_count + 1);
  std::vector<VertexId> in_sources(e_count + 1);
  PatchRows(base_.in_offsets(), base_.in_sources(), {}, dirty_targets,
            in_offsets.data(), in_sources.data(), nullptr,
            [&](size_t k, uint64_t slot) {
              const VertexId t = dirty_targets[k];
              const auto base_row = base_.in_neighbors(t);
              uint64_t s = slot;
              size_t b = 0;
              for (uint64_t i = t == 0 ? 0 : cursor[t - 1]; i < cursor[t];
                   ++i) {
                const SourceDelta d = by_target[i];
                while (b < base_row.size() && base_row[b] < d.src) {
                  in_sources[s++] = base_row[b++];
                }
                // An add emits its source; a remove consumes the
                // surviving base occurrence at b. Both store, so the
                // merge has no branch on the kind.
                assert(d.add || (b < base_row.size() && base_row[b] == d.src));
                in_sources[s] = d.src;
                s += d.add ? 1 : 0;
                b += d.add ? 0 : 1;
              }
              while (b < base_row.size()) in_sources[s++] = base_row[b++];
              return s - slot;
            });
  assert(in_offsets[v_count] == e_count);
  in_sources.pop_back();

  // Deleting the last non-1.0 edge makes the version unweighted.
  if (std::none_of(out_weights.begin(), out_weights.end(),
                   [](float w) { return w != 1.0f; })) {
    out_weights = std::vector<float>();
  }
  return Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                        std::move(out_weights), std::move(in_offsets),
                        std::move(in_sources));
}

Status EvolvingGraph::Compact() {
  if (!dirty()) return Status::OK();
  // Build the fresh CSR entirely off to the side; the members are not
  // touched until the very end (strong exception safety — a fault below
  // leaves the current version fully intact).
  Graph fresh = PatchedBase();

  // The fault point sits between building and installing: an injected
  // compaction fault can never leave a half-built CSR visible.
  {
    const Status faulted = [&]() -> Status {
      PREDICT_FAIL_POINT("graph.compact");
      return Status::OK();
    }();
    if (!faulted.ok()) return StatusAnnotate(faulted, "graph_compact");
  }

  assert(fresh.EdgeSetHash() == VersionFingerprint());
  assert(InRowsAscending(fresh));
  base_ = std::move(fresh);
  overlay_.clear();
  overlay_entries_ = 0;
  edge_count_delta_ = 0;
  return Status::OK();
}

Result<const Graph*> EvolvingGraph::Current() {
  if (dirty()) {
    const Status compacted = Compact();
    if (!compacted.ok()) return compacted;
  }
  return &base_;
}

std::vector<VertexId> DirtyOutVertices(const Graph& before,
                                       const Graph& after) {
  std::vector<VertexId> dirty;
  const uint64_t nb = before.num_vertices();
  const uint64_t na = after.num_vertices();
  if (nb != na) {
    const uint64_t n = std::max(nb, na);
    dirty.resize(n);
    for (uint64_t v = 0; v < n; ++v) dirty[v] = static_cast<VertexId>(v);
    return dirty;
  }
  std::vector<VertexId> scratch_b;
  std::vector<VertexId> scratch_a;
  for (uint64_t v = 0; v < nb; ++v) {
    const VertexId id = static_cast<VertexId>(v);
    const auto tb = before.OutNeighborsInto(id, &scratch_b);
    const auto ta = after.OutNeighborsInto(id, &scratch_a);
    bool differs = tb.size() != ta.size() ||
                   std::memcmp(tb.data(), ta.data(),
                               tb.size() * sizeof(VertexId)) != 0;
    if (!differs && (before.is_weighted() || after.is_weighted())) {
      if (before.is_weighted() != after.is_weighted()) {
        // A weightedness flip changes every non-empty row (all-1.0
        // weights vs explicit ones); empty rows cannot differ.
        differs = !tb.empty();
      } else {
        const auto wb = before.out_weights(id);
        const auto wa = after.out_weights(id);
        differs = std::memcmp(wb.data(), wa.data(),
                              wb.size() * sizeof(float)) != 0;
      }
    }
    if (differs) dirty.push_back(id);
  }
  return dirty;
}

Result<EdgeDeltaBatch> GenerateChurn(const Graph& graph,
                                     const ChurnOptions& options) {
  const uint64_t v_count = graph.num_vertices();
  const uint64_t e_count = graph.num_edges();
  if (v_count < 2 || e_count == 0) {
    return Status::InvalidArgument("churn needs a non-trivial graph");
  }
  if (options.fraction < 0.0 || options.fraction > 1.0) {
    return Status::InvalidArgument("churn fraction must be in [0, 1]");
  }
  if (!options.avoid.empty() && options.avoid.size() != v_count) {
    return Status::InvalidArgument("avoid mask must have |V| entries");
  }
  const auto avoided = [&](VertexId v) {
    return !options.avoid.empty() && options.avoid[v] != 0;
  };

  const uint64_t total = static_cast<uint64_t>(
      options.fraction * static_cast<double>(e_count) + 0.5);
  const uint64_t want_deletes = total / 2;
  const uint64_t want_inserts = total - want_deletes;
  Rng rng(options.seed);

  // Existing (src, dst) pairs, for insert-collision rejection. Multiset
  // multiplicity is irrelevant: an insert colliding with ANY existing
  // pair is skipped so the batch stays unambiguous.
  std::unordered_map<uint64_t, uint64_t> present;  // pair -> multiplicity
  const auto pack = [](VertexId s, VertexId d) {
    return (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(d);
  };
  std::vector<std::pair<VertexId, VertexId>> deletable;
  std::vector<VertexId> scratch;
  for (uint64_t v = 0; v < v_count; ++v) {
    const VertexId src = static_cast<VertexId>(v);
    for (const VertexId dst : graph.OutNeighborsInto(src, &scratch)) {
      present[pack(src, dst)]++;
      if (!avoided(src) && !avoided(dst)) deletable.emplace_back(src, dst);
    }
  }

  EdgeDeltaBatch batch;
  batch.reserve(total);
  const uint64_t n_deletes = std::min<uint64_t>(want_deletes, deletable.size());
  for (const uint64_t idx :
       rng.SampleWithoutReplacement(deletable.size(), n_deletes)) {
    const auto [src, dst] = deletable[idx];
    batch.push_back(EdgeDelta::Delete(src, dst));
    // A parallel edge may appear several times in `deletable`; deleting
    // each occurrence once is valid (multiplicity covers them).
  }

  uint64_t inserted = 0;
  uint64_t attempts = 0;
  const uint64_t max_attempts = 64 * want_inserts + 1024;
  while (inserted < want_inserts && attempts < max_attempts) {
    ++attempts;
    const VertexId src = static_cast<VertexId>(rng.Uniform(v_count));
    const VertexId dst = static_cast<VertexId>(rng.Uniform(v_count));
    if (src == dst || avoided(src) || avoided(dst)) continue;
    uint64_t& mult = present[pack(src, dst)];
    if (mult != 0) continue;
    mult = 1;
    batch.push_back(EdgeDelta::Insert(src, dst));
    ++inserted;
  }
  return batch;
}

}  // namespace predict
