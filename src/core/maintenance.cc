#include "core/maintenance.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

namespace kaskade::core {

using graph::EdgeId;
using graph::EdgeRecord;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

/// \brief Which base edges one maintenance step may traverse.
///
/// Both directions of the delta share one rule set: only edges below an
/// exclusive id bound participate (insertion of edge e uses bound e+1 so
/// later insertions contribute their own paths; removal uses the
/// insertion watermark so pending inserts stay invisible), and a batch
/// of removals additionally exposes the not-yet-processed removals of
/// the same batch through side adjacency lists — the base graph has
/// already unlinked them, but the *view* still counts their paths.
struct BatchRemovalScope {
  const PropertyGraph* base;
  /// Exclusive edge-id bound; edges at or above it are invisible.
  EdgeId id_bound;
  std::unordered_map<VertexId, std::vector<EdgeId>> extra_out;
  std::unordered_map<VertexId, std::vector<EdgeId>> extra_in;
  /// The subset of extra edges currently visible (later batch entries).
  std::unordered_set<EdgeId> visible_extra;

  BatchRemovalScope(const PropertyGraph* base_graph, EdgeId bound)
      : base(base_graph), id_bound(bound) {}

  /// Registers a removed-but-not-yet-processed batch edge as visible.
  void AddPending(EdgeId e) {
    const EdgeRecord& rec = base->Edge(e);
    extra_out[rec.source].push_back(e);
    extra_in[rec.target].push_back(e);
    visible_extra.insert(e);
  }

  /// Hides a batch edge once its own removal is being processed.
  void Hide(EdgeId e) { visible_extra.erase(e); }

  template <typename Fn>
  void ForEachOut(VertexId v, Fn&& fn) const {
    for (EdgeId e : base->OutEdges(v)) {
      if (e < id_bound) fn(e);
    }
    auto it = extra_out.find(v);
    if (it == extra_out.end()) return;
    for (EdgeId e : it->second) {
      if (visible_extra.count(e) != 0) fn(e);
    }
  }

  template <typename Fn>
  void ForEachIn(VertexId v, Fn&& fn) const {
    for (EdgeId e : base->InEdges(v)) {
      if (e < id_bound) fn(e);
    }
    auto it = extra_in.find(v);
    if (it == extra_in.end()) return;
    for (EdgeId e : it->second) {
      if (visible_extra.count(e) != 0) fn(e);
    }
  }
};

namespace {

/// \brief Open-addressed (src, dst) -> count map keyed on one packed
/// 64-bit vertex pair, iterated in first-insertion order (the `RowSet`
/// idiom from `query/executor.cc`). This sits on the hot path of every
/// incremental connector maintenance call — one lookup per enumerated
/// k-path — where the `std::map` it replaces paid a node allocation and
/// a pointer chase per path.
class PairCountMap {
 public:
  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;
    VertexId src() const { return static_cast<VertexId>(key >> 32); }
    VertexId dst() const { return static_cast<VertexId>(key & 0xffffffffu); }
  };

  void Increment(VertexId src, VertexId dst, uint64_t amount = 1) {
    const uint64_t key =
        (static_cast<uint64_t>(src) << 32) | static_cast<uint64_t>(dst);
    if ((entries_.size() + 1) * 10 >= slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    while (slots_[i] != 0) {
      Entry& entry = entries_[slots_[i] - 1];
      if (entry.key == key) {
        entry.count += amount;
        return;
      }
      i = (i + 1) & mask;
    }
    entries_.push_back(Entry{key, amount});
    slots_[i] = entries_.size();  // entry index + 1; 0 marks an empty slot
  }

  /// Distinct (src, dst) pairs in first-insertion order (deterministic
  /// for a given enumeration; consumers' upsert/decrement results are
  /// order-invariant anyway).
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  static uint64_t Hash(uint64_t x) {
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    x *= 0x100000001b3ULL;
    return x ^ (x >> 32);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<uint64_t> bigger(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t r = 0; r < entries_.size(); ++r) {
      size_t i = Hash(entries_[r].key) & mask;
      while (bigger[i] != 0) i = (i + 1) & mask;
      bigger[i] = r + 1;
    }
    slots_ = std::move(bigger);
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> slots_;
};

/// Counts, per (path start, path end) pair, the k-paths that pass
/// through the edge described by `rec`, using only edges visible in
/// `scope`. Mirrors the materializer's simple-path semantics, including
/// contracted closed paths (t == s). Every such path decomposes as:
/// s --(i edges)--> u --rec--> v --(k-1-i edges)--> t, 0 <= i <= k-1.
PairCountMap CountPathsThroughEdge(
    const PropertyGraph& base, const BatchRemovalScope& scope,
    const EdgeRecord& rec, int k, graph::VertexTypeId source_type,
    graph::VertexTypeId target_type) {
  const VertexId u = rec.source;
  const VertexId v = rec.target;
  PairCountMap pairs;

  // A self-loop can appear in a simple path only as the *entire* path
  // (k == 1, the contracted closed path v -> v, handled by the i == 0
  // split below). For k > 1 the backward/forward decomposition would
  // treat u and v as distinct path slots and count walks that visit
  // the vertex twice — walks the from-scratch contraction (simple-path
  // semantics, see CollectEndpoints in graph/contraction.cc) never
  // emits. Subtracting such phantom pairs on removal underflows
  // connector multiplicities that were never incremented.
  if (u == v && k > 1) return pairs;

  std::vector<std::vector<VertexId>> backward_paths;  // [u .. s]
  std::vector<VertexId> current{u};
  // Set per split: when the edge is the *last* edge of the path
  // (forward_steps == 0), a backward extension may terminate at v itself,
  // forming the closed path v -> ... -> u -> v.
  bool closed_start_allowed = false;
  std::function<void(VertexId, int)> extend_back = [&](VertexId w, int left) {
    if (left == 0) {
      backward_paths.push_back(current);
      return;
    }
    scope.ForEachIn(w, [&](EdgeId be) {
      VertexId prev = base.Edge(be).source;
      if (prev == v) {
        // v is already on the path; allowed only as the closed-path
        // start s == v, reached at the final backward step.
        if (closed_start_allowed && left == 1 &&
            (source_type == graph::kInvalidTypeId ||
             base.VertexType(v) == source_type) &&
            (target_type == graph::kInvalidTypeId ||
             base.VertexType(v) == target_type)) {
          pairs.Increment(v, v);
        }
        return;
      }
      if (std::find(current.begin(), current.end(), prev) != current.end()) {
        return;  // must stay simple
      }
      current.push_back(prev);
      extend_back(prev, left - 1);
      current.pop_back();
    });
  };

  for (int i = 0; i <= k - 1; ++i) {
    backward_paths.clear();
    current.assign(1, u);
    const int forward_steps = k - 1 - i;
    closed_start_allowed = forward_steps == 0;
    extend_back(u, i);
    for (const std::vector<VertexId>& back : backward_paths) {
      const VertexId s = back.back();  // path start
      if (source_type != graph::kInvalidTypeId &&
          base.VertexType(s) != source_type) {
        continue;
      }
      // Forward extension from v, avoiding every vertex of the backward
      // half and of the forward prefix; the start s is allowed only as
      // the final vertex (closed path).
      std::vector<VertexId> forward{v};
      std::function<void(VertexId, int)> extend_fwd = [&](VertexId w,
                                                          int left) {
        if (left == 0) {
          const VertexId t = w;
          if (target_type == graph::kInvalidTypeId ||
              base.VertexType(t) == target_type) {
            pairs.Increment(s, t);
          }
          return;
        }
        scope.ForEachOut(w, [&](EdgeId fe) {
          VertexId next = base.Edge(fe).target;
          bool in_back =
              std::find(back.begin(), back.end(), next) != back.end();
          bool in_fwd = std::find(forward.begin(), forward.end(), next) !=
                        forward.end();
          if (in_fwd) return;
          if (in_back) {
            // Allowed only when it closes the full path at its very end.
            if (next == s && left == 1) {
              if (target_type == graph::kInvalidTypeId ||
                  base.VertexType(s) == target_type) {
                pairs.Increment(s, s);
              }
            }
            return;
          }
          forward.push_back(next);
          extend_fwd(next, left - 1);
          forward.pop_back();
        });
      };
      if (forward_steps == 0) {
        // v itself is the endpoint.
        if (target_type == graph::kInvalidTypeId ||
            base.VertexType(v) == target_type) {
          pairs.Increment(s, v);
        }
      } else {
        extend_fwd(v, forward_steps);
      }
    }
  }
  return pairs;
}

}  // namespace

bool ViewMaintainer::SupportsKind(ViewKind kind) {
  return kind == ViewKind::kKHopConnector ||
         kind == ViewKind::kVertexInclusionSummarizer ||
         kind == ViewKind::kVertexRemovalSummarizer ||
         kind == ViewKind::kEdgeInclusionSummarizer ||
         kind == ViewKind::kEdgeRemovalSummarizer;
}

ViewMaintainer::ViewMaintainer(const PropertyGraph* base,
                               MaterializedView* view)
    : base_(base), view_(view) {
  const ViewDefinition& def = view_->definition;
  const PropertyGraph& vg = view_->graph;
  // Reverse vertex mapping (live view vertices only; a rebound view may
  // carry tombstones from earlier maintenance).
  base_to_view_.assign(base_->NumVertices(), graph::kInvalidId);
  for (VertexId v = 0; v < vg.NumVertices(); ++v) {
    if (!vg.IsVertexLive(v)) continue;
    const VertexId b = view_->view_to_base[v];
    if (b >= base_to_view_.size()) {
      base_to_view_.resize(b + 1, graph::kInvalidId);
    }
    base_to_view_[b] = v;
  }
  if (IsConnector(def.kind)) {
    connector_type_ = vg.schema().FindEdgeType(def.EdgeName());
    source_type_ = base_->schema().FindVertexType(def.source_type);
    target_type_ = base_->schema().FindVertexType(def.target_type);
  } else {
    // Filter summarizers: precompute keep masks (mirrors the
    // materializer's logic) and index view edges by base lineage.
    for (EdgeId e = 0; e < vg.NumEdges(); ++e) {
      if (!vg.IsEdgeLive(e)) continue;
      PropertyValue orig = vg.EdgeProperty(e, "orig_eid");
      if (orig.is_int()) {
        summarizer_edges_.emplace(static_cast<EdgeId>(orig.as_int()), e);
      }
    }
    const graph::GraphSchema& schema = base_->schema();
    keep_vertex_type_.assign(schema.num_vertex_types(), true);
    keep_edge_type_.assign(schema.num_edge_types(), true);
    auto in_list = [&](const std::string& name) {
      return std::find(def.type_list.begin(), def.type_list.end(), name) !=
             def.type_list.end();
    };
    switch (def.kind) {
      case ViewKind::kVertexInclusionSummarizer:
        for (size_t t = 0; t < schema.num_vertex_types(); ++t) {
          keep_vertex_type_[t] =
              in_list(schema.vertex_type_name(static_cast<uint32_t>(t)));
        }
        break;
      case ViewKind::kVertexRemovalSummarizer:
        for (size_t t = 0; t < schema.num_vertex_types(); ++t) {
          keep_vertex_type_[t] =
              !in_list(schema.vertex_type_name(static_cast<uint32_t>(t)));
        }
        break;
      case ViewKind::kEdgeInclusionSummarizer:
        for (size_t t = 0; t < schema.num_edge_types(); ++t) {
          keep_edge_type_[t] =
              in_list(schema.edge_type(static_cast<uint32_t>(t)).name);
        }
        break;
      case ViewKind::kEdgeRemovalSummarizer:
        for (size_t t = 0; t < schema.num_edge_types(); ++t) {
          keep_edge_type_[t] =
              !in_list(schema.edge_type(static_cast<uint32_t>(t)).name);
        }
        break;
      default:
        break;
    }
    // Edges only survive when both endpoint types survive.
    for (size_t t = 0; t < schema.num_edge_types(); ++t) {
      const graph::EdgeTypeDecl& decl =
          schema.edge_type(static_cast<uint32_t>(t));
      if (!keep_vertex_type_[decl.source_type] ||
          !keep_vertex_type_[decl.target_type]) {
        keep_edge_type_[t] = false;
      }
    }
  }
  watermark_ = static_cast<EdgeId>(base_->NumEdges());
  vertex_watermark_ = static_cast<VertexId>(base_->NumVertices());
  base_removals_seen_ = base_->num_removed_edges();
  base_vertex_removals_seen_ = base_->num_removed_vertices();
}

ViewMaintainer::BasePin ViewMaintainer::PinOf(const PropertyGraph& base) {
  return BasePin{static_cast<EdgeId>(base.NumEdges()),
                 static_cast<VertexId>(base.NumVertices()),
                 base.num_removed_edges(), base.num_removed_vertices()};
}

ViewMaintainer::ViewMaintainer(const PropertyGraph* base,
                               MaterializedView* view, const BasePin& pin)
    : ViewMaintainer(base, view) {
  // The view reflects the pinned base position, not the current one:
  // rewind the watermarks so the replay covers everything after the pin.
  watermark_ = pin.num_edges;
  vertex_watermark_ = pin.num_vertices;
  base_removals_seen_ = pin.removed_edges;
  base_vertex_removals_seen_ = pin.removed_vertices;
}

VertexId ViewMaintainer::ViewVertexOf(VertexId base_vertex) const {
  return base_vertex < base_to_view_.size() ? base_to_view_[base_vertex]
                                            : graph::kInvalidId;
}

VertexId ViewMaintainer::ViewVertexFor(VertexId base_vertex,
                                       MaintenanceStats* stats) {
  const VertexId existing = ViewVertexOf(base_vertex);
  if (existing != graph::kInvalidId) return existing;
  PropertyGraph& vg = view_->graph;
  const std::string& type_name =
      base_->schema().vertex_type_name(base_->VertexType(base_vertex));
  graph::VertexTypeId view_type = vg.schema().FindVertexType(type_name);
  graph::PropertyMap props = base_->VertexProperties(base_vertex);
  props.Set("orig_id", PropertyValue(static_cast<int64_t>(base_vertex)));
  VertexId vid = vg.AddVertexOfType(view_type, std::move(props));
  if (base_vertex >= base_to_view_.size()) {
    base_to_view_.resize(
        std::max<size_t>(base_->NumVertices(), base_vertex + 1),
        graph::kInvalidId);
  }
  base_to_view_[base_vertex] = vid;
  view_->view_to_base.push_back(base_vertex);
  ++stats->vertices_added;
  return vid;
}

EdgeId ViewMaintainer::FindConnectorEdge(VertexId src, VertexId dst) const {
  const PropertyGraph& vg = view_->graph;
  // Scan the smaller of the two incident lists; the edge is unique per
  // (src, dst) pair under deduplicated contraction.
  const bool from_src = vg.OutDegree(src) <= vg.InDegree(dst);
  for (EdgeId e : from_src ? vg.OutEdges(src) : vg.InEdges(dst)) {
    const EdgeRecord& rec = vg.Edge(e);
    if ((from_src ? rec.target == dst : rec.source == src) &&
        rec.type == connector_type_) {
      return e;
    }
  }
  return graph::kInvalidId;
}

Status ViewMaintainer::UpsertConnectorEdge(VertexId base_src,
                                           VertexId base_dst, uint64_t paths,
                                           MaintenanceStats* stats) {
  PropertyGraph& vg = view_->graph;
  VertexId src = ViewVertexFor(base_src, stats);
  VertexId dst = ViewVertexFor(base_dst, stats);
  const EdgeId existing = FindConnectorEdge(src, dst);
  if (existing != graph::kInvalidId) {
    int64_t current = vg.EdgeProperty(existing, "paths").as_int();
    KASKADE_RETURN_IF_ERROR(vg.SetEdgeProperty(
        existing, "paths",
        PropertyValue(current + static_cast<int64_t>(paths))));
    ++stats->edges_updated;
    return Status::OK();
  }
  graph::PropertyMap props;
  props.Set("paths", PropertyValue(static_cast<int64_t>(paths)));
  KASKADE_RETURN_IF_ERROR(
      vg.AddEdgeOfType(src, dst, connector_type_, std::move(props)).status());
  ++stats->edges_added;
  return Status::OK();
}

Status ViewMaintainer::DecrementConnectorEdge(VertexId base_src,
                                              VertexId base_dst,
                                              uint64_t paths,
                                              MaintenanceStats* stats) {
  PropertyGraph& vg = view_->graph;
  const VertexId src = ViewVertexOf(base_src);
  const VertexId dst = ViewVertexOf(base_dst);
  if (src == graph::kInvalidId || dst == graph::kInvalidId) {
    return Status::Internal("view lost an endpoint of a maintained edge");
  }
  const EdgeId e = FindConnectorEdge(src, dst);
  if (e == graph::kInvalidId) {
    return Status::Internal("view lost a maintained connector edge");
  }
  int64_t current = vg.EdgeProperty(e, "paths").as_int();
  if (current < static_cast<int64_t>(paths)) {
    return Status::Internal("connector path multiplicity underflow");
  }
  stats->paths_removed += paths;
  if (current == static_cast<int64_t>(paths)) {
    KASKADE_RETURN_IF_ERROR(vg.RemoveEdge(e));
    // Nothing reads a dead connector edge's path count again.
    KASKADE_RETURN_IF_ERROR(vg.ReleaseEdgeProperties(e));
    if (removed_sink_ != nullptr) removed_sink_->push_back(e);
    ++stats->edges_removed;
    MaybeCollectViewVertex(base_src, stats);
    MaybeCollectViewVertex(base_dst, stats);
    return Status::OK();
  }
  KASKADE_RETURN_IF_ERROR(vg.SetEdgeProperty(
      e, "paths", PropertyValue(current - static_cast<int64_t>(paths))));
  ++stats->edges_updated;
  return Status::OK();
}

void ViewMaintainer::MaybeCollectViewVertex(VertexId base_vertex,
                                            MaintenanceStats* stats) {
  const VertexId view_vertex = ViewVertexOf(base_vertex);
  if (view_vertex == graph::kInvalidId) return;
  PropertyGraph& vg = view_->graph;
  if (vg.OutDegree(view_vertex) != 0 || vg.InDegree(view_vertex) != 0) return;
  // From-scratch contraction only emits path endpoints, so an isolated
  // view vertex must go (its id is tombstoned; view_to_base keeps the
  // slot so ids stay aligned).
  if (vg.RemoveVertex(view_vertex).ok()) {
    base_to_view_[base_vertex] = graph::kInvalidId;
    ++stats->vertices_removed;
  }
}

Result<MaintenanceStats> ViewMaintainer::MaintainConnector(EdgeId e) {
  MaintenanceStats stats;
  // Only edges inserted up to and including e may participate: paths
  // that use a *later* insertion are that insertion's delta (prevents
  // double counting during batch catch-up).
  BatchRemovalScope scope(base_, e + 1);
  PairCountMap new_pairs =
      CountPathsThroughEdge(*base_, scope, base_->Edge(e),
                            view_->definition.k, source_type_, target_type_);
  for (const PairCountMap::Entry& entry : new_pairs.entries()) {
    stats.paths_added += entry.count;
    KASKADE_RETURN_IF_ERROR(
        UpsertConnectorEdge(entry.src(), entry.dst(), entry.count, &stats));
  }
  return stats;
}

Result<MaintenanceStats> ViewMaintainer::RemoveFromConnector(
    EdgeId e, const BatchRemovalScope* batch) {
  MaintenanceStats stats;
  // Pending inserts (id >= watermark) are invisible: the view never
  // counted their paths, so they must not be subtracted either.
  BatchRemovalScope single(base_, watermark_);
  const BatchRemovalScope& scope = batch != nullptr ? *batch : single;
  PairCountMap dead_pairs =
      CountPathsThroughEdge(*base_, scope, base_->Edge(e),
                            view_->definition.k, source_type_, target_type_);
  for (const PairCountMap::Entry& entry : dead_pairs.entries()) {
    KASKADE_RETURN_IF_ERROR(
        DecrementConnectorEdge(entry.src(), entry.dst(), entry.count, &stats));
  }
  return stats;
}

Result<MaintenanceStats> ViewMaintainer::MaintainFilterSummarizer(EdgeId e) {
  MaintenanceStats stats;
  const ViewDefinition& def = view_->definition;
  const EdgeRecord& rec = base_->Edge(e);
  if (!keep_edge_type_[rec.type]) return stats;
  if (def.has_predicate()) {
    // Mirror the materializer's footnote-5 semantics.
    bool vertex_filter = def.kind == ViewKind::kVertexInclusionSummarizer ||
                         def.kind == ViewKind::kVertexRemovalSummarizer;
    if (vertex_filter) {
      for (VertexId endpoint : {rec.source, rec.target}) {
        if (!EvalPredicate(
                base_->VertexProperty(endpoint, def.predicate_property),
                def.predicate_op, def.predicate_value)) {
          return stats;
        }
      }
    } else if (!EvalPredicate(base_->EdgeProperty(e, def.predicate_property),
                              def.predicate_op, def.predicate_value)) {
      return stats;
    }
  }
  PropertyGraph& vg = view_->graph;
  VertexId src = ViewVertexFor(rec.source, &stats);
  VertexId dst = ViewVertexFor(rec.target, &stats);
  graph::EdgeTypeId et =
      vg.schema().FindEdgeType(base_->schema().edge_type(rec.type).name);
  if (et == graph::kInvalidTypeId) {
    return Status::Internal("summarizer view schema lost an edge type");
  }
  graph::PropertyMap props = base_->EdgeProperties(e);
  props.Set("orig_eid", PropertyValue(static_cast<int64_t>(e)));
  KASKADE_ASSIGN_OR_RETURN(
      EdgeId view_edge, vg.AddEdgeOfType(src, dst, et, std::move(props)));
  summarizer_edges_.emplace(e, view_edge);
  ++stats.edges_added;
  return stats;
}

Result<MaintenanceStats> ViewMaintainer::RemoveFromFilterSummarizer(
    EdgeId e) {
  MaintenanceStats stats;
  auto it = summarizer_edges_.find(e);
  if (it == summarizer_edges_.end()) return stats;  // edge was filtered out
  KASKADE_RETURN_IF_ERROR(view_->graph.RemoveEdge(it->second));
  if (removed_sink_ != nullptr) removed_sink_->push_back(it->second);
  summarizer_edges_.erase(it);
  ++stats.edges_removed;
  // Summarizer vertices are kept by type/predicate, not by incidence —
  // a from-scratch materialization keeps them too, so no collection.
  return stats;
}

Result<MaintenanceStats> ViewMaintainer::OnEdgeAdded(EdgeId e) {
  if (e >= base_->NumEdges()) {
    return Status::OutOfRange("edge id not present in base graph");
  }
  if (e < watermark_) {
    return Status::InvalidArgument(
        "edge was already reflected in the view (ids must be reported "
        "once, in order)");
  }
  watermark_ = e + 1;
  if (!base_->IsEdgeLive(e)) {
    // Inserted and removed before the view ever saw it: net zero.
    return MaintenanceStats{};
  }
  const ViewDefinition& def = view_->definition;
  if (def.kind == ViewKind::kKHopConnector) return MaintainConnector(e);
  if (def.kind == ViewKind::kVertexInclusionSummarizer ||
      def.kind == ViewKind::kVertexRemovalSummarizer ||
      def.kind == ViewKind::kEdgeInclusionSummarizer ||
      def.kind == ViewKind::kEdgeRemovalSummarizer) {
    return MaintainFilterSummarizer(e);
  }
  return Status::Unimplemented(
      "incremental maintenance supports k-hop connectors and filter "
      "summarizers; re-materialize other view kinds");
}

Result<MaintenanceStats> ViewMaintainer::OnEdgeRemoved(EdgeId e) {
  if (e >= base_->NumEdges()) {
    return Status::OutOfRange("edge id not present in base graph");
  }
  if (base_->IsEdgeLive(e)) {
    return Status::InvalidArgument(
        "remove the edge from the base graph before reporting it");
  }
  const ViewDefinition& def = view_->definition;
  if (!SupportsKind(def.kind)) {
    return Status::Unimplemented(
        "incremental maintenance supports k-hop connectors and filter "
        "summarizers; re-materialize other view kinds");
  }
  if (base_->num_removed_edges() != base_removals_seen_ + 1) {
    // More than one unreported removal: paths through the other dead
    // edges would be silently missed. Use ApplyDelta for batches.
    return Status::FailedPrecondition(
        "multiple base removals are pending; report them as one "
        "GraphDelta via ApplyDelta (single-edge reporting must follow "
        "each removal immediately)");
  }
  ++base_removals_seen_;
  if (e >= watermark_) {
    // The insertion was never reflected; CatchUp will skip the tombstone.
    return MaintenanceStats{};
  }
  if (def.kind == ViewKind::kKHopConnector) {
    return RemoveFromConnector(e, nullptr);
  }
  return RemoveFromFilterSummarizer(e);
}

Result<MaintenanceStats> ViewMaintainer::ApplyDelta(
    const graph::GraphDelta& delta) {
  const ViewDefinition& def = view_->definition;
  if (!SupportsKind(def.kind)) {
    return Status::Unimplemented(
        "incremental maintenance supports k-hop connectors and filter "
        "summarizers; re-materialize other view kinds");
  }
  if (base_->num_removed_edges() !=
      base_removals_seen_ + delta.edge_removals.size()) {
    return Status::FailedPrecondition(
        "the delta's removal list does not match the base graph's "
        "removal count; apply exactly this delta to the base first and "
        "report every batch");
  }
  MaintenanceStats total;
  if (!delta.edge_removals.empty()) {
    if (def.kind == ViewKind::kKHopConnector) {
      // Removal r_i is accounted on the state where r_1..r_i are gone
      // but r_{i+1}.. are still present: every path through multiple
      // removed edges is subtracted exactly once.
      BatchRemovalScope scope(base_, watermark_);
      for (EdgeId e : delta.edge_removals) {
        if (e < watermark_) scope.AddPending(e);
      }
      for (EdgeId e : delta.edge_removals) {
        scope.Hide(e);
        ++base_removals_seen_;
        if (e >= watermark_) continue;
        KASKADE_ASSIGN_OR_RETURN(MaintenanceStats stats,
                                 RemoveFromConnector(e, &scope));
        total += stats;
      }
    } else {
      for (EdgeId e : delta.edge_removals) {
        ++base_removals_seen_;
        if (e >= watermark_) continue;
        KASKADE_ASSIGN_OR_RETURN(MaintenanceStats stats,
                                 RemoveFromFilterSummarizer(e));
        total += stats;
      }
    }
  }
  KASKADE_ASSIGN_OR_RETURN(MaintenanceStats inserted, CatchUp());
  total += inserted;
  return total;
}

Result<MaintenanceStats> ViewMaintainer::CatchUp() {
  if (base_removals_seen_ != base_->num_removed_edges()) {
    return Status::FailedPrecondition(
        "base graph edges were removed without notifying the maintainer; "
        "report removals via OnEdgeRemoved/ApplyDelta or re-materialize "
        "the view");
  }
  if (base_->num_removed_vertices() != base_vertex_removals_seen_) {
    // Vertices can only be removed out of band (GraphDelta has no
    // vertex removals); summarizer views would keep serving them.
    return Status::FailedPrecondition(
        "base graph vertices were removed behind the maintainer's back; "
        "re-materialize the view");
  }
  MaintenanceStats total;
  // Vertices first (summarizers copy kept vertices even when isolated).
  const ViewDefinition& def = view_->definition;
  if (!IsConnector(def.kind)) {
    bool vertex_predicate =
        def.has_predicate() &&
        (def.kind == ViewKind::kVertexInclusionSummarizer ||
         def.kind == ViewKind::kVertexRemovalSummarizer);
    for (VertexId v = vertex_watermark_;
         v < static_cast<VertexId>(base_->NumVertices()); ++v) {
      if (!base_->IsVertexLive(v)) continue;
      if (!keep_vertex_type_[base_->VertexType(v)]) continue;
      if (vertex_predicate &&
          !EvalPredicate(base_->VertexProperty(v, def.predicate_property),
                         def.predicate_op, def.predicate_value)) {
        continue;
      }
      ViewVertexFor(v, &total);
    }
  }
  vertex_watermark_ = static_cast<VertexId>(base_->NumVertices());
  for (EdgeId e = watermark_; e < static_cast<EdgeId>(base_->NumEdges());
       ++e) {
    KASKADE_ASSIGN_OR_RETURN(MaintenanceStats stats, OnEdgeAdded(e));
    total += stats;
  }
  return total;
}

}  // namespace kaskade::core
