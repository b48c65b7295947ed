/// \file maintenance.h
/// \brief Incremental maintenance of materialized graph views under
/// arbitrary edge deltas (insert + delete + mixed batches).
///
/// The paper defers view maintenance to the graph-view literature it
/// builds on (Zhuge & Garcia-Molina, ICDE'98 — see §VIII); this module
/// implements it for Kaskade's view classes. Maintenance is no longer
/// append-only: `OnEdgeAdded`, `OnEdgeRemoved`, and the batched
/// `ApplyDelta(GraphDelta)` keep a view exact under any insert/delete
/// sequence.
///
/// Delta model. For a k-hop connector, base edge (u -> v) participates in
/// exactly the k-paths formed by a backward extension of length i from u
/// and a forward extension of length k-1-i from v (0 <= i <= k-1).
/// Insertion enumerates those paths and *increments* the "paths"
/// multiplicity of the contracted (s, t) connector edges; removal
/// enumerates the same decomposition and *decrements*, removing view
/// edges whose multiplicity reaches zero and garbage-collecting view
/// vertices left without live incident edges (mirroring from-scratch
/// contraction, which only emits path endpoints). Either direction is
/// O(sum_i deg^i * deg^(k-1-i)) per base edge instead of re-materializing
/// the whole view. For type-filter summarizers both directions are a
/// constant-time type/predicate check; summarizer vertices are kept by
/// type, so edge removal never collects them.
///
/// Batches: within one `ApplyDelta`, removal r_i is accounted on the
/// graph state where r_1..r_i are gone but later removals of the same
/// batch are still present (the maintainer keeps side adjacency for
/// them), and insertions only count paths through edges with smaller
/// ids — together this makes every path counted exactly once regardless
/// of batch composition.
///
/// Fallback: view kinds without a maintainer (variable-length
/// connectors, source-to-sink connectors, and the two aggregator
/// summarizers — see `SupportsKind`) are re-materialized on base-graph
/// change; `ViewCatalog::ApplyBaseDelta` also re-materializes a
/// *supported* view when the cost model predicts a from-scratch build is
/// cheaper than a delete-heavy incremental pass.

#ifndef KASKADE_CORE_MAINTENANCE_H_
#define KASKADE_CORE_MAINTENANCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/materializer.h"
#include "graph/delta.h"
#include "graph/property_graph.h"

namespace kaskade::core {

/// \brief Statistics from one maintenance operation. Additions and
/// removals balance: across any run, `edges_added - edges_removed`
/// equals the view's live-edge delta (ditto vertices and "paths"
/// multiplicities), which the differential tests assert.
struct MaintenanceStats {
  uint64_t paths_added = 0;       ///< New contracted paths (connectors).
  uint64_t paths_removed = 0;     ///< Contracted paths subtracted.
  uint64_t edges_added = 0;       ///< New view edges created.
  uint64_t edges_removed = 0;     ///< View edges dropped (multiplicity 0).
  uint64_t edges_updated = 0;     ///< Existing view edges re-weighted.
  uint64_t vertices_added = 0;    ///< New view vertices created.
  uint64_t vertices_removed = 0;  ///< Orphaned view vertices collected.

  MaintenanceStats& operator+=(const MaintenanceStats& other) {
    paths_added += other.paths_added;
    paths_removed += other.paths_removed;
    edges_added += other.edges_added;
    edges_removed += other.edges_removed;
    edges_updated += other.edges_updated;
    vertices_added += other.vertices_added;
    vertices_removed += other.vertices_removed;
    return *this;
  }
};

/// \brief Keeps one materialized view consistent with a mutating base
/// graph.
///
/// Usage: materialize a view, construct a maintainer over base+view, then
/// report every base mutation: `OnEdgeAdded(e)` after appending edge `e`,
/// `OnEdgeRemoved(e)` after removing it, or `ApplyDelta(delta)` once
/// after applying a whole `GraphDelta` batch to the base graph. Supported
/// view kinds: k-hop connectors and the four type-filter summarizers.
/// `Unimplemented` is returned for other kinds (re-materialize instead).
///
/// Invariant (tested property): after any insert/delete sequence, the
/// maintained view graph has the same live edge multiset — including
/// "paths" multiplicities and `view_to_base` lineage — as
/// `Materialize(base, definition)` run from scratch.
class ViewMaintainer {
 public:
  /// \brief The base-graph position a view was materialized at: the
  /// watermarks a maintainer must start from to replay everything that
  /// happened *after* that position.
  ///
  /// The plain constructor assumes the view reflects the base graph *as
  /// it is now*. A view built in the background is published later, onto
  /// a base that may have moved on; capture `PinOf(base)` at build time
  /// and construct the replay maintainer with it so the catch-up starts
  /// at the pinned edge/vertex/removal counts rather than skipping the
  /// deltas that landed during the build.
  struct BasePin {
    graph::EdgeId num_edges = 0;
    graph::VertexId num_vertices = 0;
    size_t removed_edges = 0;
    size_t removed_vertices = 0;
  };

  /// Captures the current base-graph position.
  static BasePin PinOf(const graph::PropertyGraph& base);

  /// True for the view kinds this maintainer supports incrementally
  /// (k-hop connectors and the four type-filter summarizers). Other
  /// kinds must be re-materialized on base-graph change.
  static bool SupportsKind(ViewKind kind);

  /// Binds to a base graph and a view previously materialized from it.
  /// The maintainer indexes the current view; O(view size).
  ViewMaintainer(const graph::PropertyGraph* base, MaterializedView* view);

  /// As above for a view materialized when the base graph was at `pin`:
  /// the maintainer's watermarks start at the pinned position, so
  /// `ApplyDelta`/`CatchUp` replay exactly the mutations that landed
  /// after the pin.
  ViewMaintainer(const graph::PropertyGraph* base, MaterializedView* view,
                 const BasePin& pin);

  /// Applies the consequences of base edge `e` (which must already be in
  /// the base graph) to the view. Edges must be reported exactly once,
  /// in insertion order.
  Result<MaintenanceStats> OnEdgeAdded(graph::EdgeId e);

  /// Applies the consequences of removing base edge `e`. Call *after*
  /// `PropertyGraph::RemoveEdge(e)` — the dead edge's record stays
  /// readable, which is all the subtraction needs. Removing an edge the
  /// view never saw (id beyond the insertion watermark) is a no-op.
  Result<MaintenanceStats> OnEdgeRemoved(graph::EdgeId e);

  /// Batched entry point: call once after `delta` (already coalesced)
  /// has been applied to the base graph. Processes the removals in batch
  /// order, then catches up on the inserted edges; equivalent to the
  /// corresponding sequence of single-edge calls.
  Result<MaintenanceStats> ApplyDelta(const graph::GraphDelta& delta);

  /// Convenience: processes every base edge beyond the watermark the
  /// maintainer has seen (edge ids are dense and append-only). Fails
  /// with FailedPrecondition when edges were removed behind the
  /// maintainer's back (report removals via OnEdgeRemoved/ApplyDelta, or
  /// re-materialize).
  Result<MaintenanceStats> CatchUp();

  /// While set, every *view-graph* edge this maintainer tombstones is
  /// appended to `*sink` (view insertions need no log — view edge ids
  /// are append-only, so consumers discover them from id-space growth).
  /// The catalog records these as the view's CSR-snapshot delta trail,
  /// letting `SnapshotFor` patch the previous snapshot forward instead
  /// of rebuilding it. Null (the default) disables recording.
  void set_removed_edge_sink(std::vector<graph::EdgeId>* sink) {
    removed_sink_ = sink;
  }

 private:
  Result<MaintenanceStats> MaintainConnector(graph::EdgeId e);
  Result<MaintenanceStats> MaintainFilterSummarizer(graph::EdgeId e);
  Result<MaintenanceStats> RemoveFromConnector(
      graph::EdgeId e, const struct BatchRemovalScope* batch);
  Result<MaintenanceStats> RemoveFromFilterSummarizer(graph::EdgeId e);

  /// Live view vertex of a base vertex, or kInvalidId when it has none.
  graph::VertexId ViewVertexOf(graph::VertexId base_vertex) const;

  /// View vertex for a base vertex, creating it (with copied properties
  /// and orig_id) on first use.
  graph::VertexId ViewVertexFor(graph::VertexId base_vertex,
                                MaintenanceStats* stats);

  /// The live connector edge between view vertices src -> dst, or
  /// kInvalidId: a scan of the smaller of `OutEdges(src)` and
  /// `InEdges(dst)`.
  graph::EdgeId FindConnectorEdge(graph::VertexId src,
                                  graph::VertexId dst) const;

  /// Upserts a connector edge (src, dst) with `paths` new contracted
  /// paths.
  Status UpsertConnectorEdge(graph::VertexId base_src,
                             graph::VertexId base_dst, uint64_t paths,
                             MaintenanceStats* stats);

  /// Subtracts `paths` contracted paths from connector edge (src, dst),
  /// dropping it at zero — and releasing its property map — and
  /// collecting newly orphaned endpoints.
  Status DecrementConnectorEdge(graph::VertexId base_src,
                                graph::VertexId base_dst, uint64_t paths,
                                MaintenanceStats* stats);

  /// Drops the view vertex for `base_vertex` when no live view edge
  /// touches it (connectors only; summarizer vertices are kept by type).
  void MaybeCollectViewVertex(graph::VertexId base_vertex,
                              MaintenanceStats* stats);

  const graph::PropertyGraph* base_;
  MaterializedView* view_;
  graph::EdgeTypeId connector_type_ = graph::kInvalidTypeId;
  graph::VertexTypeId source_type_ = graph::kInvalidTypeId;
  graph::VertexTypeId target_type_ = graph::kInvalidTypeId;
  /// Dense base vertex id -> live view vertex id; kInvalidId (and ids
  /// past the end) mean the view has no vertex for it.
  std::vector<graph::VertexId> base_to_view_;
  /// base edge id -> view edge id for filter summarizers (each kept base
  /// edge is copied verbatim; "orig_eid" lineage mirrors this map).
  std::unordered_map<graph::EdgeId, graph::EdgeId> summarizer_edges_;
  /// Edge types preserved by a filter summarizer.
  std::vector<bool> keep_edge_type_;
  std::vector<bool> keep_vertex_type_;
  /// When non-null, removed view-graph edge ids are appended here.
  std::vector<graph::EdgeId>* removed_sink_ = nullptr;
  /// First base edge id not yet processed.
  graph::EdgeId watermark_ = 0;
  /// First base vertex id not yet processed (summarizers copy kept
  /// vertices even when isolated).
  graph::VertexId vertex_watermark_ = 0;
  /// Base-graph removals this maintainer has accounted for; diverging
  /// from `base_->num_removed_edges()` / `num_removed_vertices()` means
  /// someone removed elements without telling us, and CatchUp refuses
  /// rather than serve stale views (vertex removal is always
  /// out-of-band: GraphDelta carries no vertex removals).
  size_t base_removals_seen_ = 0;
  size_t base_vertex_removals_seen_ = 0;
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_MAINTENANCE_H_
