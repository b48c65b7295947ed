/// \file csr.h
/// \brief Immutable compressed-sparse-row snapshot of a property graph,
/// stored as fixed-size immutable segments shared between generations.
///
/// `PropertyGraph` optimizes for append-only mutation (per-vertex edge-id
/// vectors); traversal-heavy analytics want contiguous neighbor arrays.
/// `CsrGraph` is a frozen topology snapshot in the style of
/// shared-memory graph frameworks (Ligra et al., which the paper's
/// related work surveys): O(1) neighbor slices and cache-friendly scans.
///
/// The snapshot is *type-partitioned*: within each vertex's neighbor
/// slice, edges are grouped by edge type, and a per-vertex type directory
/// maps an `EdgeTypeId` to its contiguous sub-slice. A typed expansion —
/// the MATCH hot path — is therefore an O(#types-at-vertex) directory
/// probe plus a contiguous scan, instead of a filter over every incident
/// edge. Base-graph `EdgeId` lineage arrays run parallel to the neighbor
/// arrays, so property access on a traversed edge goes straight back to
/// the source graph (vertex ids are shared with the source graph too).
///
/// Dead (tombstoned) vertices keep empty rows so base ids stay valid as
/// CSR indices; dead edges are dropped at build time.
///
/// **Segmented storage.** The vertex id space is cut into fixed-size
/// ranges of `kCsrSegmentVertices` ids; each range's slices, lineage and
/// type directories live in one immutable `CsrSegment` held by
/// `shared_ptr`. `PatchedFrom` produces a new segment only where a
/// vertex incident to the delta lives and *shares* every clean segment
/// with the previous generation by refcount. Inside a produced segment
/// the work is vertex-granular too: clean rows are copied from the
/// previous segment in maximal runs (their offsets and type-directory
/// `begin`s rebased by one constant per run), and only dirty or
/// appended rows are re-derived from the graph, by the same per-row
/// code a fresh build runs. `Build`, `PatchedFrom` and the sharded
/// segment store all produce segments through that one `BuildSegment`
/// routine, so a patched snapshot is bit-identical to a fresh build by
/// construction. The segment boundaries double as the engine's shard
/// boundaries (`ShardOfVertex`).

#ifndef KASKADE_GRAPH_CSR_H_
#define KASKADE_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/delta.h"
#include "graph/property_graph.h"

namespace kaskade::graph {

/// Log2 of the segment width: each `CsrSegment` covers
/// `kCsrSegmentVertices` consecutive vertex ids. Power of two so the
/// hot-path accessors are a shift and a mask.
inline constexpr uint32_t kCsrSegmentShift = 10;
inline constexpr uint32_t kCsrSegmentVertices = 1u << kCsrSegmentShift;
inline constexpr uint32_t kCsrSegmentMask = kCsrSegmentVertices - 1;

/// Segment index of the segment containing vertex `v`.
inline size_t CsrSegmentOf(VertexId v) { return v >> kCsrSegmentShift; }

/// Number of segments covering a vertex id space of size `n`.
inline size_t CsrSegmentCount(size_t n) {
  return (n + kCsrSegmentVertices - 1) >> kCsrSegmentShift;
}

/// \brief Shard router: vertices map to shards by segment, so one
/// segment (and everything a patch rebuilds) lives in exactly one
/// shard. Used by the engine's per-shard snapshot pipelines and the
/// MATCH scatter-gather layer; `shards == 1` maps everything to 0.
inline uint32_t ShardOfVertex(VertexId v, size_t shards) {
  return static_cast<uint32_t>(CsrSegmentOf(v) % shards);
}
inline uint32_t ShardOfSegment(size_t segment, size_t shards) {
  return static_cast<uint32_t>(segment % shards);
}

/// \brief Tuning for incremental snapshot patching (`CsrGraph::PatchedFrom`).
struct CsrPatchOptions {
  /// Patch only while (vertices incident to the delta) / |V| stays at or
  /// below this fraction; above it re-deriving dirty slices approaches
  /// the cost of a full rebuild (which also has better locality), so
  /// `PatchedFrom` falls back to `Build`. Set to 0 to disable patching
  /// entirely (every snapshot is a full rebuild).
  double max_dirty_fraction = 0.20;

  bool enabled() const { return max_dirty_fraction > 0.0; }
};

/// \brief What one `PatchedFrom` call did (telemetry for benches/tests).
struct CsrPatchStats {
  /// Pre-existing vertices whose out- or in-slice had to be re-derived,
  /// plus vertices appended since the previous snapshot.
  size_t dirty_vertices = 0;
  /// Segments produced anew (they contained dirty or appended
  /// vertices). On the full-rebuild path this counts every segment — a
  /// rebuild copies everything.
  size_t segments_copied = 0;
  /// Segments shared with the previous snapshot by refcount (zero bytes
  /// copied for them).
  size_t segments_shared = 0;
  /// Total segments in the produced snapshot.
  size_t total_segments = 0;
  /// Heap bytes of the produced segments (the actual copy cost of the
  /// patch; shared segments contribute nothing).
  size_t bytes_copied = 0;
  /// Vertex rows re-derived from the graph rather than copied, counted
  /// once per side (out and in): a 1-edge delta re-derives at most 2
  /// rows per side, a full rebuild 2 |V|.
  size_t rows_rederived = 0;
  /// True when the dirty fraction exceeded the threshold and the result
  /// came from a full `Build` instead of the patch path.
  bool full_rebuild = false;
};

/// \brief A contiguous, read-only neighbor slice.
struct NeighborSpan {
  const VertexId* data = nullptr;
  size_t size = 0;

  const VertexId* begin() const { return data; }
  const VertexId* end() const { return data + size; }
  VertexId operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

/// \brief A neighbor slice with the parallel base-graph edge-id lineage:
/// `edge_ids[i]` is the base edge that contributed `vertices[i]`.
struct EdgeSpan {
  const VertexId* vertices = nullptr;
  const EdgeId* edge_ids = nullptr;
  size_t size = 0;

  bool empty() const { return size == 0; }
  VertexId vertex(size_t i) const { return vertices[i]; }
  EdgeId edge_id(size_t i) const { return edge_ids[i]; }
};

/// \brief One immutable segment: the CSR rows of vertices
/// `[first_vertex, first_vertex + num_vertices)`. All offsets are local
/// to the segment's own arrays and 32-bit: edge ids are 32-bit, so no
/// segment holds more slots than that. Built once, never mutated
/// afterwards — generations share clean segments by `shared_ptr`.
struct CsrSegment {
  /// One entry of a vertex's type directory: edges of `type` occupy
  /// [begin, next entry's begin or the vertex's slice end). The
  /// directory is also how an out-slot's edge type is found, so no
  /// per-edge type array is kept.
  struct TypeDirEntry {
    EdgeTypeId type;
    uint32_t begin;  ///< Index into this segment's neighbor arrays.
  };

  VertexId first_vertex = 0;
  uint32_t num_vertices = 0;  ///< ≤ kCsrSegmentVertices (tail may be short).

  /// Arrays are sized from a counting pass, with no growth slack; the
  /// edge-length ones are rounded up to whole 4 KiB pages.
  std::vector<uint32_t> out_offsets;  // num_vertices + 1
  std::vector<VertexId> out_targets;  // grouped by edge type per vertex
  std::vector<EdgeId> out_edge_ids;  // base-graph lineage, parallel
  std::vector<uint32_t> in_offsets;
  std::vector<VertexId> in_sources;
  std::vector<EdgeId> in_edge_ids;
  std::vector<VertexTypeId> vertex_types;  // num_vertices
  /// Per-vertex type directories (CSR-of-CSR): local vertex l's
  /// directory is `*_type_dirs[*_type_dir_offsets[l] ..
  /// *_type_dir_offsets[l+1])`, one entry per distinct incident type.
  std::vector<uint32_t> out_type_dir_offsets;  // num_vertices + 1
  std::vector<TypeDirEntry> out_type_dirs;
  std::vector<uint32_t> in_type_dir_offsets;
  std::vector<TypeDirEntry> in_type_dirs;

  /// Heap bytes held by this segment's arrays (copy-cost telemetry).
  size_t ByteSize() const;
};

using CsrSegmentPtr = std::shared_ptr<const CsrSegment>;

/// \brief CSR topology snapshot (out- and in-adjacency), vertex ids
/// shared with the source graph, neighbors grouped by edge type,
/// storage segmented and structurally shared between generations.
class CsrGraph {
 public:
  /// Freezes the topology of `g`. O(|V| + |E|).
  static CsrGraph Build(const PropertyGraph& g);

  /// Produces the single segment `seg` (vertex ids
  /// `[seg << kCsrSegmentShift, ...)`) of `g`'s current topology — the
  /// one segment routine behind `Build`, `PatchedFrom` and the per-shard
  /// segment store.
  ///
  /// Without `prev` every row is derived from `g`. With `prev` (the same
  /// segment of an earlier snapshot of `g`) clean rows are copied from
  /// it in maximal runs, offsets and type-directory `begin`s rebased by
  /// one constant per run, and only dirty rows are re-derived from `g`
  /// by the per-row code a fresh build runs: local row `l <
  /// prev->num_vertices` is dirty when `dirty[l] != 0` (a null `dirty`
  /// marks none), and rows appended since `prev` always are. The result
  /// equals the no-`prev` build bit for bit as long as `dirty` covers
  /// every row whose adjacency changed. Arrays are sized from a counting
  /// pass. `*rows_rederived`, when given, receives the rows re-derived,
  /// counted once per side.
  static CsrSegmentPtr BuildSegment(const PropertyGraph& g, size_t seg,
                                    const CsrSegment* prev = nullptr,
                                    const uint8_t* dirty = nullptr,
                                    size_t* rows_rederived = nullptr);

  /// Assembles a snapshot from already-built segments (the per-shard
  /// segment store's publish path). `segments[i]` must cover vertex ids
  /// `[i << kCsrSegmentShift, ...)` of a graph with `num_vertices`
  /// vertices and edge id space `edge_id_space`.
  static CsrGraph FromSegments(std::vector<CsrSegmentPtr> segments,
                               size_t num_vertices, EdgeId edge_id_space);

  /// Derives the snapshot of `g` from `prev`, a snapshot of an earlier
  /// state of the same graph. A vertex is dirty when an edge left or
  /// entered one of its slices: `removed_edges` must list exactly the
  /// edge ids tombstoned in `g` since `prev` was built (their records
  /// stay readable), and every edge id appended since is discovered
  /// from the id space (`prev.edge_id_space()` up to `g.NumEdges()`),
  /// so insertions need no explicit list. Segments without a dirty or
  /// appended vertex are shared with `prev` by refcount (zero copy).
  /// The others go through `BuildSegment` with the per-vertex dirty
  /// set: clean rows copied from `prev`, dirty rows re-derived by the
  /// shared row code, so the result is indistinguishable from
  /// `Build(g)`. Re-derivation cost is O(dirty vertices' degree); copy
  /// cost is O(bytes of the dirty segments), independent of |E|.
  ///
  /// Falls back to `Build(g)` when the dirty *vertex* fraction exceeds
  /// `options.max_dirty_fraction` (reported via `stats->full_rebuild`).
  static CsrGraph PatchedFrom(const CsrGraph& prev, const PropertyGraph& g,
                              const std::vector<EdgeId>& removed_edges,
                              const CsrPatchOptions& options = {},
                              CsrPatchStats* stats = nullptr);

  /// As above with the removals taken from one applied `GraphDelta`
  /// batch (`g` must be the post-delta graph).
  static CsrGraph PatchedFrom(const CsrGraph& prev, const PropertyGraph& g,
                              const GraphDelta& delta,
                              const CsrPatchOptions& options = {},
                              CsrPatchStats* stats = nullptr) {
    return PatchedFrom(prev, g, delta.edge_removals, options, stats);
  }

  size_t NumVertices() const { return num_vertices_; }
  size_t NumEdges() const { return num_edges_; }

  /// The source graph's edge *id space* (`PropertyGraph::NumEdges()`,
  /// dead ids included) when this snapshot was taken. Edge ids at or
  /// beyond it were inserted after the snapshot — which is how
  /// `PatchedFrom` discovers insertions, and how the executor's
  /// staleness tripwire catches balanced insert+remove churn that leaves
  /// the live count unchanged.
  EdgeId edge_id_space() const { return edge_id_space_; }

  /// Segment store introspection (sharing tests, the per-shard store,
  /// and copy-cost accounting).
  size_t num_segments() const { return segments_.size(); }
  const CsrSegmentPtr& segment(size_t i) const { return segments_[i]; }

  NeighborSpan OutNeighbors(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.out_targets.data() + s.out_offsets[l],
            s.out_offsets[l + 1] - s.out_offsets[l]};
  }
  NeighborSpan InNeighbors(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.in_sources.data() + s.in_offsets[l],
            s.in_offsets[l + 1] - s.in_offsets[l]};
  }

  /// Full out-slice of `v` with edge-id lineage (all edge types,
  /// grouped by type).
  EdgeSpan OutEdges(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.out_targets.data() + s.out_offsets[l],
            s.out_edge_ids.data() + s.out_offsets[l],
            s.out_offsets[l + 1] - s.out_offsets[l]};
  }
  EdgeSpan InEdges(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return {s.in_sources.data() + s.in_offsets[l],
            s.in_edge_ids.data() + s.in_offsets[l],
            s.in_offsets[l + 1] - s.in_offsets[l]};
  }

  /// Out-edges of `v` with edge type `type`, as one contiguous slice
  /// sorted ascending by target id (so membership checks can binary
  /// search). `kInvalidTypeId` means "any type" and returns the full
  /// slice (type-grouped, sorted within each type group).
  EdgeSpan TypedOutEdges(VertexId v, EdgeTypeId type) const {
    if (type == kInvalidTypeId) return OutEdges(v);
    const CsrSegment& s = Seg(v);
    return TypedSlice(s.out_type_dir_offsets, s.out_type_dirs, s.out_offsets,
                      s.out_targets, s.out_edge_ids, v & kCsrSegmentMask,
                      type);
  }
  EdgeSpan TypedInEdges(VertexId v, EdgeTypeId type) const {
    if (type == kInvalidTypeId) return InEdges(v);
    const CsrSegment& s = Seg(v);
    return TypedSlice(s.in_type_dir_offsets, s.in_type_dirs, s.in_offsets,
                      s.in_sources, s.in_edge_ids, v & kCsrSegmentMask, type);
  }

  size_t OutDegree(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return s.out_offsets[l + 1] - s.out_offsets[l];
  }
  size_t InDegree(VertexId v) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    return s.in_offsets[l + 1] - s.in_offsets[l];
  }

  VertexTypeId VertexType(VertexId v) const {
    return Seg(v).vertex_types[v & kCsrSegmentMask];
  }

  /// Edge type of the i-th out-edge of v (parallel to OutNeighbors):
  /// the type of the last directory entry starting at or before it.
  EdgeTypeId OutEdgeType(VertexId v, size_t i) const {
    const CsrSegment& s = Seg(v);
    const uint32_t l = v & kCsrSegmentMask;
    const uint32_t slot = s.out_offsets[l] + static_cast<uint32_t>(i);
    uint32_t d = s.out_type_dir_offsets[l];
    while (d + 1 < s.out_type_dir_offsets[l + 1] &&
           s.out_type_dirs[d + 1].begin <= slot) {
      ++d;
    }
    return s.out_type_dirs[d].type;
  }

  /// Base-graph edge id of the i-th out-edge of v (parallel to
  /// OutNeighbors).
  EdgeId OutEdgeId(VertexId v, size_t i) const {
    const CsrSegment& s = Seg(v);
    return s.out_edge_ids[s.out_offsets[v & kCsrSegmentMask] + i];
  }

 private:
  const CsrSegment& Seg(VertexId v) const {
    return *segments_[v >> kCsrSegmentShift];
  }

  static EdgeSpan TypedSlice(const std::vector<uint32_t>& dir_offsets,
                             const std::vector<CsrSegment::TypeDirEntry>& dirs,
                             const std::vector<uint32_t>& offsets,
                             const std::vector<VertexId>& vertices,
                             const std::vector<EdgeId>& edge_ids, uint32_t l,
                             EdgeTypeId type) {
    const uint32_t dir_end = dir_offsets[l + 1];
    for (uint32_t d = dir_offsets[l]; d < dir_end; ++d) {
      if (dirs[d].type != type) continue;
      uint32_t begin = dirs[d].begin;
      uint32_t end = d + 1 < dir_end ? dirs[d + 1].begin : offsets[l + 1];
      return {vertices.data() + begin, edge_ids.data() + begin, end - begin};
    }
    return {};
  }

  std::vector<CsrSegmentPtr> segments_;  // segments_[i] covers ids i<<shift..
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;      ///< Live edges in the snapshot.
  EdgeId edge_id_space_ = 0;  ///< Source NumEdges() at snapshot time.
};

/// Bounded BFS over a CSR snapshot: distinct vertices within `max_hops`
/// of `source` (excluding the source), like `CountReachable`.
size_t CsrCountReachable(const CsrGraph& g, VertexId source, int max_hops,
                         bool backward = false);

/// Label propagation over a CSR snapshot; semantics identical to
/// `LabelPropagation` (most frequent neighbor label over in+out edges,
/// smaller label on ties, synchronous, early exit).
std::vector<VertexId> CsrLabelPropagation(const CsrGraph& g, int passes);

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_CSR_H_
