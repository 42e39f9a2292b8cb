#include "graph/delta.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <unordered_map>
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
// once per parallel edge). Canonicalize and Apply both produce this
// order, and Apply's in-row merge relies on it.
[[maybe_unused]] bool InRowsAscending(const Graph& g) {
  for (uint64_t v = 0; v < g.num_vertices(); ++v) {
    const auto row = g.in_neighbors(static_cast<VertexId>(v));
    if (!std::is_sorted(row.begin(), row.end())) return false;
  }
  return true;
}

// A net change seen from its target: `src` gains (add) or loses one
// in-edge occurrence.
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

// The version `changes` makes of `base`, as a fresh canonical CSR.
// `changes` is a batch's net effect: sorted by (src, dst), each key's
// deletes (consuming its first surviving base occurrences) before its
// inserts, the inserts in weight-bits order. Weights exist only when the
// base has them or an insert brings a non-1.0 one (allocated on the
// first such insert: every slot before it holds 1.0 either way).
Graph PatchedGraph(const Graph& base, std::span<const EdgeDelta> changes) {
  const uint64_t v_count = base.num_vertices();
  uint64_t e_count = base.num_edges();
  // The dirty out-rows and where each one's changes start; `cursor`
  // counts the changes per target for the in-CSR below.
  std::vector<VertexId> dirty_sources;
  std::vector<size_t> row_begin;
  std::vector<uint64_t> cursor(v_count + 1, 0);
  for (size_t i = 0; i < changes.size(); ++i) {
    const EdgeDelta& c = changes[i];
    if (dirty_sources.empty() || dirty_sources.back() != c.src) {
      dirty_sources.push_back(c.src);
      row_begin.push_back(i);
    }
    e_count = c.op == EdgeDelta::Op::kInsert ? e_count + 1 : e_count - 1;
    ++cursor[c.dst + 1];
  }
  row_begin.push_back(changes.size());

  std::vector<uint64_t> out_offsets(v_count + 1);
  std::vector<VertexId> out_targets(e_count);
  std::vector<float> out_weights(base.is_weighted() ? e_count : 0);
  PatchRows(
      base.out_offsets(), base.out_targets(), base.out_weights(),
      dirty_sources, out_offsets.data(), out_targets.data(),
      out_weights.data(), [&](size_t k, uint64_t slot) {
        const VertexId v = dirty_sources[k];
        const auto targets = base.out_neighbors(v);
        const std::span<const float> weights =
            base.is_weighted() ? base.out_weights(v) : std::span<const float>{};
        const auto weight_at = [&](size_t i) {
          return weights.empty() ? 1.0f : weights[i];
        };
        uint64_t s = slot;
        const auto emit = [&](VertexId dst, float w) {
          out_targets[s] = dst;
          if (w != 1.0f && out_weights.empty()) {
            out_weights.assign(e_count, 1.0f);
          }
          if (!out_weights.empty()) out_weights[s] = w;
          ++s;
        };
        // Both sides are in canonical order; ties emit base first.
        size_t bi = 0;
        for (size_t i = row_begin[k]; i < row_begin[k + 1]; ++i) {
          const EdgeDelta& c = changes[i];
          const bool insert = c.op == EdgeDelta::Op::kInsert;
          for (; bi < targets.size() &&
                 (targets[bi] < c.dst ||
                  (insert && targets[bi] == c.dst &&
                   WeightBits(weight_at(bi)) <= WeightBits(c.weight)));
               ++bi) {
            emit(targets[bi], weight_at(bi));
          }
          if (insert) {
            emit(c.dst, c.weight);
          } else {
            assert(bi < targets.size() && targets[bi] == c.dst);
            ++bi;  // the canonical-first surviving occurrence
          }
        }
        for (; bi < targets.size(); ++bi) emit(targets[bi], weight_at(bi));
        return s - slot;
      });
  assert(out_offsets[v_count] == e_count);

  // In-CSR. A stable counting sort buckets the changes by target, so
  // every bucket is ascending by source like the base in-rows it merges
  // into; no comparison sort is needed. Afterwards target t's bucket is
  // [cursor[t - 1], cursor[t]).
  std::vector<VertexId> dirty_targets;
  for (uint64_t t = 0; t < v_count; ++t) {
    if (cursor[t + 1] != 0) dirty_targets.push_back(static_cast<VertexId>(t));
    cursor[t + 1] += cursor[t];
  }
  std::vector<SourceDelta> by_target(changes.size());
  for (const EdgeDelta& c : changes) {
    by_target[cursor[c.dst]++] = {c.src, c.op == EdgeDelta::Op::kInsert};
  }
  // A delete's store lands on the next slot, which the next row
  // overwrites; the spare slot covers the last row.
  std::vector<uint64_t> in_offsets(v_count + 1);
  std::vector<VertexId> in_sources(e_count + 1);
  PatchRows(base.in_offsets(), base.in_sources(), {}, dirty_targets,
            in_offsets.data(), in_sources.data(), nullptr,
            [&](size_t k, uint64_t slot) {
              const VertexId t = dirty_targets[k];
              const auto base_row = base.in_neighbors(t);
              uint64_t s = slot;
              size_t b = 0;
              for (uint64_t i = t == 0 ? 0 : cursor[t - 1]; i < cursor[t];
                   ++i) {
                const SourceDelta d = by_target[i];
                while (b < base_row.size() && base_row[b] < d.src) {
                  in_sources[s++] = base_row[b++];
                }
                // An add emits its source; a delete consumes the
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
    : graph_(Canonicalize(std::move(base))) {
  assert(InRowsAscending(graph_));
  version_fp_ = graph_.EdgeSetHash();
}

Status EvolvingGraph::Apply(const EdgeDeltaBatch& batch) {
  const uint64_t v_count = num_vertices();
  EdgeDeltaBatch changes;
  changes.reserve(batch.size());
  for (const EdgeDelta& delta : batch) {
    if (delta.src >= v_count || delta.dst >= v_count) {
      return OffendingEdge(delta.op == EdgeDelta::Op::kInsert
                               ? "edge insert references an unknown vertex"
                               : "edge delete references an unknown vertex",
                           delta.src, delta.dst);
    }
    changes.push_back(delta);
  }
  std::stable_sort(changes.begin(), changes.end(),
                   [](const EdgeDelta& a, const EdgeDelta& b) {
                     return std::pair(a.src, a.dst) < std::pair(b.src, b.dst);
                   });

  // Replays each (src, dst) key in batch order (see EdgeDelta for the
  // delete rule) and rewrites `changes` in place to the key's net effect:
  // its consumed base occurrences as deletes, then its uncancelled
  // inserts in canonical order. Never more entries than the key had.
  uint64_t fp = version_fp_;
  size_t net = 0;
  std::vector<float> pending;  // the key's uncancelled inserts, canonical
  for (size_t i = 0; i < changes.size();) {
    const VertexId src = changes[i].src;
    const VertexId dst = changes[i].dst;
    const auto row = graph_.out_neighbors(src);
    const auto [lo, hi] = std::equal_range(row.begin(), row.end(), dst);
    const uint64_t first = static_cast<uint64_t>(lo - row.begin());
    const uint64_t occurrences = static_cast<uint64_t>(hi - lo);
    uint64_t consumed = 0;
    pending.clear();
    for (; i < changes.size() && changes[i].src == src && changes[i].dst == dst;
         ++i) {
      const float w = changes[i].weight;
      if (changes[i].op == EdgeDelta::Op::kInsert) {
        pending.insert(std::upper_bound(pending.begin(), pending.end(), w,
                                        [](float a, float b) {
                                          return WeightBits(a) < WeightBits(b);
                                        }),
                       w);
        fp += Graph::EdgeHash(src, dst, w);
      } else if (!pending.empty()) {
        fp -= Graph::EdgeHash(src, dst, pending.front());
        pending.erase(pending.begin());
      } else if (consumed < occurrences) {
        const float base_w = graph_.is_weighted()
                                 ? graph_.out_weights(src)[first + consumed]
                                 : 1.0f;
        fp -= Graph::EdgeHash(src, dst, base_w);
        ++consumed;
      } else {
        return OffendingEdge("delete of a non-existent edge", src, dst);
      }
    }
    for (uint64_t k = 0; k < consumed; ++k) {
      changes[net++] = EdgeDelta::Delete(src, dst);
    }
    for (const float w : pending) changes[net++] = EdgeDelta::Insert(src, dst, w);
  }
  changes.resize(net);
  if (changes.empty()) return Status::OK();  // the batch cancelled out

  // Build the next version entirely off to the side; the members are not
  // touched until the very end.
  Graph next = PatchedGraph(graph_, changes);

  // The fault point sits between building and installing: an injected
  // fault can never leave a half-built CSR visible.
  {
    const Status faulted = [&]() -> Status {
      PREDICT_FAIL_POINT("graph.compact");
      return Status::OK();
    }();
    if (!faulted.ok()) return StatusAnnotate(faulted, "graph_compact");
  }

  graph_ = std::move(next);
  version_fp_ = fp;
  assert(graph_.EdgeSetHash() == VersionFingerprint());
  assert(InRowsAscending(graph_));
  return Status::OK();
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
