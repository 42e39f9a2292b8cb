// Evolving graphs: a canonical CSR that each delta batch patches into
// the next version.
//
// PREDIcT's pipeline assumes a frozen input graph, but production graphs
// churn between predictions. EvolvingGraph holds exactly one version: a
// canonical CSR plus its version fingerprint, with nothing pending.
// Apply(batch) builds the next version in one step and Current() returns
// it; algorithms, samplers and transforms read that CSR.
//
// Apply sorts a copy of the batch by (src, dst), keeping batch order
// within a key, and replays each key against the current CSR (EdgeDelta
// states the delete rule). The net changes then patch both CSR
// directions instead of rebuilding them: offsets come from one O(V)
// running-shift pass, every run of rows the batch does not touch is
// copied in bulk, and only the dirty out-rows (sources of a change) and
// dirty in-rows (its targets) are rewritten. The work beyond the O(V + E)
// copy scales with the batch, not with the graph.
//
// Versioned fingerprints. Every version of the edge set has a stable
// 64-bit identity maintained incrementally: the chain is anchored at the
// base CSR's order-independent Graph::EdgeSetHash() and each mutation
// adds (insert) or subtracts (delete) the edge's Graph::EdgeHash — a
// commutative multiset hash, so ANY sequence of batches reaching the same
// edge set reaches the same VersionFingerprint (and an insert cancelled
// by a delete restores the previous version's identity exactly). Debug
// builds re-derive it from every new CSR and assert.
//
// Canonical adjacency. The edge set alone must determine the CSR bytes
// (otherwise two routes to the same version could feed bit-different
// adjacency orders to the deterministic algorithms), so EvolvingGraph
// keeps every vertex's out-list sorted by (dst, weight bits). The base is
// normalized on construction (Canonicalize) and Apply preserves the
// order — a cold Canonicalize(Graph::FromEdges(mutated edge list)) is
// byte-identical to the evolved graph's CSR, in both directions. The
// in-CSR has a canonical order too: every in-row lists its sources
// ascending (once per parallel edge). Canonicalize and Apply both produce
// it, Apply's in-row merge relies on it, and debug builds assert it.
//
// Failure semantics: Apply is all-or-nothing. It validates the whole
// batch against the current version (unknown vertex, delete of a
// non-existent edge, duplicate removal — each an InvalidArgument carrying
// the offending (src, dst)) and builds the next CSR off to the side,
// installing it only at the very end. A fault injected between building
// and installing (fail point "graph.compact", annotated "graph_compact")
// leaves the CSR and the version untouched, and retrying the same batch
// reaches the unfaulted version; caches keyed on the version fingerprint
// can never observe a half-built graph.

#ifndef PREDICT_GRAPH_DELTA_H_
#define PREDICT_GRAPH_DELTA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace predict {

/// One edge mutation in a delta batch.
///
/// A delete matches on (src, dst) regardless of weight. Within a batch it
/// first cancels an earlier, not yet cancelled insert of the same
/// (src, dst) — the canonical-first one, lowest weight bits — and
/// otherwise removes the canonical-first surviving occurrence of
/// (src, dst) in the current version. Batches never cancel across each
/// other: a later batch's delete removes from the version the earlier
/// batch produced.
struct EdgeDelta {
  enum class Op : uint8_t {
    kInsert = 0,  ///< add (src, dst, weight)
    kDelete = 1,  ///< remove one edge matching (src, dst)
  };

  Op op = Op::kInsert;
  VertexId src = 0;
  VertexId dst = 0;
  /// Inserts only.
  float weight = 1.0f;

  static EdgeDelta Insert(VertexId src, VertexId dst, float weight = 1.0f) {
    return {Op::kInsert, src, dst, weight};
  }
  static EdgeDelta Delete(VertexId src, VertexId dst) {
    return {Op::kDelete, src, dst, 1.0f};
  }

  bool operator==(const EdgeDelta& other) const = default;
};

using EdgeDeltaBatch = std::vector<EdgeDelta>;

/// \brief A mutable graph: one canonical CSR version that Apply replaces
/// with the next.
///
/// Not thread-safe for mutation; Current() and the other const readers
/// may run concurrently with each other (like Graph).
class EvolvingGraph {
 public:
  /// Adopts `base`, normalizing it to canonical (sorted) adjacency and
  /// plain (uncompressed) edge storage — the mutation-friendly
  /// representation. O(V + E log deg).
  explicit EvolvingGraph(Graph base);

  /// |V| (fixed: delta batches mutate edges only).
  uint64_t num_vertices() const { return graph_.num_vertices(); }
  /// |E| of the current version.
  uint64_t num_edges() const { return graph_.num_edges(); }

  /// The current version's stable identity (see file comment). Never 0;
  /// equals Current()->EdgeSetHash() at all times.
  uint64_t VersionFingerprint() const { return version_fp_ == 0 ? 1 : version_fp_; }

  /// Validates `batch` and patches it into the next canonical CSR. O(V +
  /// E) bulk copies plus O(b log b + b log deg) for a batch of b. All or
  /// nothing: on a validation error (InvalidArgument carrying the
  /// offending (src, dst)) or a fault injected at "graph.compact" (the
  /// annotated error) the CSR and the version are unchanged. A weights
  /// array exists only if some edge of the new version has a weight !=
  /// 1.0.
  Status Apply(const EdgeDeltaBatch& batch);

  /// The current version's canonical CSR. Never fails; the pointer is
  /// valid until the next successful Apply.
  Result<const Graph*> Current() const { return &graph_; }

  /// Normalizes a graph to the canonical form EvolvingGraph uses: plain
  /// edge storage, every out-list sorted by (dst, weight bits), in-CSR
  /// rebuilt to match. Two graphs with equal edge multisets canonicalize
  /// to byte-identical CSRs (and hence equal Graph::Fingerprint()s).
  static Graph Canonicalize(Graph g);

 private:
  Graph graph_;  // canonical, plain edges
  uint64_t version_fp_ = 0;
};

/// Vertices whose out-row (targets or weights) differs between two
/// same-|V| graphs, ascending — the dirty set incremental re-sampling
/// re-walks from. O(V + E) span compares; graphs with different |V|
/// report every vertex of the larger one.
std::vector<VertexId> DirtyOutVertices(const Graph& before,
                                       const Graph& after);

/// Deterministic seeded churn: deletes `fraction/2` of the existing
/// edges and inserts an equal count of fresh (absent) edges, all drawn
/// from Rng(seed). The batch is always valid for Apply on `graph`.
struct ChurnOptions {
  /// Total mutations as a fraction of |E| (half deletes, half inserts).
  double fraction = 0.01;
  uint64_t seed = 1;
  /// Optional size-|V| byte mask: vertices marked nonzero are left
  /// untouched (no incident edge deleted, no new edge attached). Models
  /// periphery churn around a stable core; empty = unrestricted.
  std::span<const uint8_t> avoid = {};
};

Result<EdgeDeltaBatch> GenerateChurn(const Graph& graph,
                                     const ChurnOptions& options);

}  // namespace predict

#endif  // PREDICT_GRAPH_DELTA_H_
