/// \file property_graph.h
/// \brief In-memory directed property graph with typed vertices and edges.
///
/// This is Kaskade's execution substrate (the role Neo4j plays in the
/// paper): it stores the raw graph and all materialized graph views, and
/// the query executor in `src/query` pattern-matches against it.
///
/// Equality seed index: `ProbeStringEquality` answers "which live
/// vertices of this type have this string under this key" without a
/// scan. Each (vertex type, property key) pair gets its own index on its
/// first probe: (hash of the string value, vertex id) pairs sorted by
/// hash, then id — about 16 B per indexed vertex and no copy of the
/// strings. `AddVertex*`, `SetVertexProperty` and `RemoveVertex` keep
/// every built index exact; copying a graph drops them (the copy builds
/// its own on demand). A probe returns every vertex whose value *hashes*
/// like the constant, so callers still compare the values.

#ifndef KASKADE_GRAPH_PROPERTY_GRAPH_H_
#define KASKADE_GRAPH_PROPERTY_GRAPH_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/property_value.h"
#include "graph/schema.h"

namespace kaskade::graph {

/// Dense vertex identifier (index into the vertex arrays).
using VertexId = uint32_t;
/// Dense edge identifier (index into the edge arrays).
using EdgeId = uint32_t;

/// Sentinel meaning "no such vertex/edge".
inline constexpr uint32_t kInvalidId = ~0u;

/// \brief An edge record: (source, target, type).
struct EdgeRecord {
  VertexId source;
  VertexId target;
  EdgeTypeId type;
};

/// \brief Directed multigraph with schema-validated typed vertices/edges
/// and per-element property maps.
///
/// Ids are dense and append-only: `AddVertex`/`AddEdge` allocate the next
/// id and ids are never reused. Removal is tombstone-based: `RemoveEdge`
/// and `RemoveVertex` unlink the element from the adjacency lists and
/// mark it dead, but its id (and its record/properties, for lineage
/// consumers) stays readable. Consequently `NumVertices()`/`NumEdges()`
/// bound the *id space* — loops indexing by id stay valid after removals
/// but must skip dead elements via `IsVertexLive`/`IsEdgeLive`; use
/// `NumLiveVertices()`/`NumLiveEdges()` for element *counts*. Views are
/// materialized as *new* PropertyGraph instances, which matches the
/// paper's design where views live beside the raw graph. Adjacency is
/// stored as per-vertex out/in edge lists for O(degree) expansion.
class PropertyGraph {
 public:
  /// Creates a graph over `schema` (copied; the schema of a graph is
  /// immutable once the graph exists).
  explicit PropertyGraph(GraphSchema schema) : schema_(std::move(schema)) {}

  const GraphSchema& schema() const { return schema_; }

  /// \name Mutation
  /// @{

  /// Adds a vertex of the named type. Fails with NotFound for an unknown
  /// type name.
  Result<VertexId> AddVertex(const std::string& type_name,
                             PropertyMap properties = {});

  /// Adds a vertex of the given type id (no name lookup; hot path for
  /// generators and materializers).
  VertexId AddVertexOfType(VertexTypeId type, PropertyMap properties = {});

  /// Adds an edge of the named type. Fails with NotFound for an unknown
  /// type, OutOfRange for bad endpoints, and InvalidArgument when the
  /// endpoints violate the edge type's (domain, range) declaration.
  Result<EdgeId> AddEdge(VertexId source, VertexId target,
                         const std::string& type_name,
                         PropertyMap properties = {});

  /// Adds an edge by type id, still validating endpoints against the
  /// schema constraint.
  Result<EdgeId> AddEdgeOfType(VertexId source, VertexId target,
                               EdgeTypeId type, PropertyMap properties = {});

  /// Sets a property on an existing vertex.
  Status SetVertexProperty(VertexId v, const std::string& key,
                           PropertyValue value);

  /// Sets a property on an existing edge.
  Status SetEdgeProperty(EdgeId e, const std::string& key,
                         PropertyValue value);

  /// Removes an edge: unlinks it from both adjacency lists and marks it
  /// dead. The id is never reused; the record and properties remain
  /// readable (maintenance code reads a dead base edge's properties to
  /// subtract what it contributed) until `ReleaseEdgeProperties`.
  /// Fails with OutOfRange for an unknown id, FailedPrecondition when the
  /// edge was already removed.
  Status RemoveEdge(EdgeId e);

  /// Frees a removed edge's property map (its record stays). For owners
  /// that never read a dead edge's properties again, such as a connector
  /// view dropping an edge whose path count reached zero. Fails with
  /// OutOfRange for an unknown id and FailedPrecondition for a live edge.
  Status ReleaseEdgeProperties(EdgeId e);

  /// Removes a vertex with no live incident edges (callers remove or
  /// re-route edges first). Fails with FailedPrecondition when live
  /// edges still touch it or it was already removed.
  Status RemoveVertex(VertexId v);
  /// @}

  /// \name Topology accessors
  /// @{

  /// Id-space bounds: include removed (dead) elements so id-indexed
  /// loops stay valid. Guard with `IsVertexLive`/`IsEdgeLive` when a
  /// graph may have seen removals; use the `NumLive*` pair for counts.
  size_t NumVertices() const { return vertex_types_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Live element counts (id-space size minus tombstones).
  size_t NumLiveVertices() const {
    return vertex_types_.size() - num_removed_vertices_;
  }
  size_t NumLiveEdges() const { return edges_.size() - num_removed_edges_; }

  bool IsVertexLive(VertexId v) const {
    return v < vertex_live_.size() && vertex_live_[v];
  }
  bool IsEdgeLive(EdgeId e) const {
    return e < edge_live_.size() && edge_live_[e];
  }

  /// True when any element was ever removed (cheap "can dead ids exist"
  /// check for scan paths that want to skip liveness tests entirely).
  bool has_removals() const {
    return num_removed_vertices_ + num_removed_edges_ != 0;
  }

  /// Total edges/vertices ever removed (monotonic; maintainers use them
  /// to detect removals applied behind their back).
  size_t num_removed_edges() const { return num_removed_edges_; }
  size_t num_removed_vertices() const { return num_removed_vertices_; }

  VertexTypeId VertexType(VertexId v) const { return vertex_types_[v]; }
  const std::string& VertexTypeName(VertexId v) const {
    return schema_.vertex_type_name(vertex_types_[v]);
  }

  const EdgeRecord& Edge(EdgeId e) const { return edges_[e]; }
  const std::string& EdgeTypeName(EdgeId e) const {
    return schema_.edge_type(edges_[e].type).name;
  }

  const std::vector<EdgeId>& OutEdges(VertexId v) const {
    return out_edges_[v];
  }
  const std::vector<EdgeId>& InEdges(VertexId v) const { return in_edges_[v]; }

  size_t OutDegree(VertexId v) const { return out_edges_[v].size(); }
  size_t InDegree(VertexId v) const { return in_edges_[v].size(); }

  /// Number of live vertices of the given type (O(1), maintained on
  /// insert and removal).
  size_t NumVerticesOfType(VertexTypeId type) const {
    return type < vertex_type_counts_.size() ? vertex_type_counts_[type] : 0;
  }

  /// Number of live edges of the given type (O(1), maintained on insert
  /// and removal).
  size_t NumEdgesOfType(EdgeTypeId type) const {
    return type < edge_type_counts_.size() ? edge_type_counts_[type] : 0;
  }

  /// All live vertex ids of a type (O(|V|) scan).
  std::vector<VertexId> VerticesOfType(VertexTypeId type) const;
  /// @}

  /// \name Properties
  /// @{
  const PropertyMap& VertexProperties(VertexId v) const {
    return vertex_props_[v];
  }
  const PropertyMap& EdgeProperties(EdgeId e) const { return edge_props_[e]; }

  PropertyValue VertexProperty(VertexId v, const std::string& key) const {
    return vertex_props_[v].GetOrNull(key);
  }
  PropertyValue EdgeProperty(EdgeId e, const std::string& key) const {
    return edge_props_[e].GetOrNull(key);
  }

  /// Appends to `out`, in ascending id order, every live vertex of
  /// `type` whose `key` property is a string hashing like `value`: a
  /// superset of the vertices where it equals `value` (hash collisions
  /// are possible, so callers compare the values). The first probe of a
  /// (type, key) pair builds its index in O(|V| log |V|); later probes
  /// cost O(log |V| + matches). Probes may run concurrently with each
  /// other and with const reads; mutations need exclusive access, as
  /// everywhere else in this class.
  void ProbeStringEquality(VertexTypeId type, const std::string& key,
                           const std::string& value,
                           std::vector<VertexId>* out) const;
  /// @}

  /// True if there is at least one edge source->target (any type).
  bool HasEdgeBetween(VertexId source, VertexId target) const;

  /// Approximate heap footprint in bytes (topology only; used by the view
  /// selector's space budget accounting).
  size_t EstimateSizeBytes() const;

 private:
  /// One (vertex type, property key) equality index: (hash of the string
  /// value, vertex id) pairs sorted by hash, then id, over the live
  /// vertices of `type` whose `key` value is a string.
  struct EqualityIndex {
    VertexTypeId type = kInvalidTypeId;
    std::string key;
    std::vector<std::pair<uint64_t, VertexId>> entries;
  };
  /// The lazily built equality indexes and the mutex that guards them.
  /// Copying yields an empty cache: a copied graph builds its own.
  struct IndexCache {
    IndexCache() = default;
    IndexCache(const IndexCache&) noexcept {}
    IndexCache& operator=(const IndexCache&) noexcept {
      indexes.clear();
      return *this;
    }
    std::mutex mu;
    std::vector<EqualityIndex> indexes;  // guarded by mu
  };

  /// Adds (`add`) or drops `v`'s entries — one per built index of its
  /// type whose key `v` holds as a string. Caller holds the mutex.
  void IndexVertexLocked(VertexId v, bool add);

  GraphSchema schema_;
  std::vector<VertexTypeId> vertex_types_;
  std::vector<PropertyMap> vertex_props_;
  /// Edge ids only grow (tombstones keep theirs), so the per-edge arrays
  /// grow in fixed blocks: no doubling copy, no freed old buffer left
  /// resident in the heap.
  std::deque<EdgeRecord> edges_;
  std::deque<PropertyMap> edge_props_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<size_t> vertex_type_counts_;
  std::vector<size_t> edge_type_counts_;
  /// Tombstone bitmaps, parallel to the id spaces.
  std::vector<bool> vertex_live_;
  std::vector<bool> edge_live_;
  size_t num_removed_vertices_ = 0;
  size_t num_removed_edges_ = 0;
  mutable IndexCache index_cache_;
};

}  // namespace kaskade::graph

#endif  // KASKADE_GRAPH_PROPERTY_GRAPH_H_
