#include "graph/csr.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <tuple>
#include <unordered_map>

namespace kaskade::graph {

namespace {

template <typename V>
size_t VectorBytes(const V& v) {
  return v.size() * sizeof(typename V::value_type);
}

// Reserves room for `n` elements, rounded up to whole 4 KiB pages once
// past one page; for the arrays whose length follows the edge count. A
// patch frees the segments it replaces; with sizes quantized, the next
// patch of the same segment mostly fits in the blocks just freed
// instead of fragmenting the heap (exact sizes cost social_churn
// ~5 MiB of peak RSS in free-but-resident heap).
template <typename T>
void ReservePages(std::vector<T>& v, size_t n) {
  size_t bytes = n * sizeof(T);
  if (bytes > 4096) bytes = (bytes + 4095) & ~size_t{4095};
  v.reserve(bytes / sizeof(T));
}

// One slice entry: the canonical per-vertex order is
// (edge type, neighbor, edge id) — grouped by type so a typed expansion
// is one contiguous slice, sorted by neighbor within the type so filter
// edges (cycle closings) resolve by binary search, base insertion order
// surviving within (type, neighbor) because edge ids are distinct and
// ascend in insertion order.
struct SliceEntry {
  EdgeTypeId type;
  VertexId nbr;
  EdgeId id;

  bool operator<(const SliceEntry& o) const {
    return std::tie(type, nbr, id) < std::tie(o.type, o.nbr, o.id);
  }
};

// The arrays of one side (out or in) of a segment.
struct SideFields {
  bool out;
  std::vector<uint32_t> CsrSegment::*offsets;
  std::vector<VertexId> CsrSegment::*nbrs;
  std::vector<EdgeId> CsrSegment::*edge_ids;
  std::vector<uint32_t> CsrSegment::*dir_offsets;
  std::vector<CsrSegment::TypeDirEntry> CsrSegment::*dirs;
};
constexpr SideFields kOutSide{true,
                              &CsrSegment::out_offsets,
                              &CsrSegment::out_targets,
                              &CsrSegment::out_edge_ids,
                              &CsrSegment::out_type_dir_offsets,
                              &CsrSegment::out_type_dirs};
constexpr SideFields kInSide{false,
                             &CsrSegment::in_offsets,
                             &CsrSegment::in_sources,
                             &CsrSegment::in_edge_ids,
                             &CsrSegment::in_type_dir_offsets,
                             &CsrSegment::in_type_dirs};

// Appends vertex `v`'s slice on `side` to `entries` in canonical order.
// Adjacency lists hold live edges only; a dead vertex's are empty, so
// it keeps an empty row and base ids stay valid as CSR indices.
void DeriveRow(const PropertyGraph& g, bool out_side, VertexId v,
               std::vector<SliceEntry>* entries) {
  const std::vector<EdgeId>& ids = out_side ? g.OutEdges(v) : g.InEdges(v);
  const size_t begin = entries->size();
  for (EdgeId e : ids) {
    const EdgeRecord& rec = g.Edge(e);
    entries->push_back(SliceEntry{rec.type, out_side ? rec.target : rec.source,
                                  e});
  }
  const auto row = entries->begin() + static_cast<ptrdiff_t>(begin);
  if (!std::is_sorted(row, entries->end())) std::sort(row, entries->end());
}

// Fills `seg`'s arrays for `side`: a counting pass re-derives the dirty
// rows into `entries` and sizes every array, then an emit pass
// copies maximal clean runs from `prev` (rebased by one constant per
// run) and writes the dirty rows from `entries`. Returns the number of
// rows re-derived.
template <typename IsDirty>
size_t BuildSide(const PropertyGraph& g, const SideFields& side,
                 const CsrSegment* prev, const IsDirty& is_dirty,
                 std::vector<SliceEntry>* entries, CsrSegment* seg) {
  const uint32_t count = seg->num_vertices;
  entries->clear();
  size_t clean_edges = 0;
  size_t clean_dirs = 0;
  size_t dirty_dirs = 0;
  size_t rederived = 0;
  for (uint32_t l = 0; l < count; ++l) {
    if (!is_dirty(l)) {
      const std::vector<uint32_t>& offsets = prev->*side.offsets;
      const std::vector<uint32_t>& dir_offsets = prev->*side.dir_offsets;
      clean_edges += offsets[l + 1] - offsets[l];
      clean_dirs += dir_offsets[l + 1] - dir_offsets[l];
      continue;
    }
    const size_t begin = entries->size();
    DeriveRow(g, side.out, seg->first_vertex + l, entries);
    for (size_t i = begin; i < entries->size(); ++i) {
      if (i == begin || (*entries)[i].type != (*entries)[i - 1].type) {
        ++dirty_dirs;
      }
    }
    ++rederived;
  }

  std::vector<uint32_t>& offsets = seg->*side.offsets;
  std::vector<VertexId>& nbrs = seg->*side.nbrs;
  std::vector<EdgeId>& edge_ids = seg->*side.edge_ids;
  std::vector<uint32_t>& dir_offsets = seg->*side.dir_offsets;
  std::vector<CsrSegment::TypeDirEntry>& dirs = seg->*side.dirs;
  const size_t num_edges = clean_edges + entries->size();
  offsets.reserve(count + 1);
  dir_offsets.reserve(count + 1);
  ReservePages(nbrs, num_edges);
  ReservePages(edge_ids, num_edges);
  ReservePages(dirs, clean_dirs + dirty_dirs);
  offsets.push_back(0);
  dir_offsets.push_back(0);

  size_t next = 0;  // cursor into `entries`
  for (uint32_t l = 0; l < count;) {
    if (!is_dirty(l)) {
      uint32_t end = l + 1;
      while (end < count && !is_dirty(end)) ++end;
      const std::vector<uint32_t>& p_offsets = prev->*side.offsets;
      const std::vector<uint32_t>& p_dir_offsets = prev->*side.dir_offsets;
      const std::vector<CsrSegment::TypeDirEntry>& p_dirs = prev->*side.dirs;
      const uint32_t from = p_offsets[l];
      const uint32_t to = p_offsets[end];
      // Unsigned wrap-around makes the shift work in both directions.
      const uint32_t shift = static_cast<uint32_t>(nbrs.size()) - from;
      const uint32_t dir_shift =
          static_cast<uint32_t>(dirs.size()) - p_dir_offsets[l];
      const auto copy = [&](const auto& src, auto& dst) {
        dst.insert(dst.end(), src.begin() + static_cast<ptrdiff_t>(from),
                   src.begin() + static_cast<ptrdiff_t>(to));
      };
      copy(prev->*side.nbrs, nbrs);
      copy(prev->*side.edge_ids, edge_ids);
      for (uint32_t d = p_dir_offsets[l]; d < p_dir_offsets[end]; ++d) {
        dirs.push_back(
            CsrSegment::TypeDirEntry{p_dirs[d].type, p_dirs[d].begin + shift});
      }
      for (uint32_t r = l; r < end; ++r) {
        offsets.push_back(p_offsets[r + 1] + shift);
        dir_offsets.push_back(p_dir_offsets[r + 1] + dir_shift);
      }
      l = end;
      continue;
    }
    // A re-derived row holds one entry per live adjacent edge.
    const VertexId v = seg->first_vertex + l;
    const size_t row_end =
        next + (side.out ? g.OutEdges(v) : g.InEdges(v)).size();
    for (size_t i = next; i < row_end; ++i) {
      const SliceEntry& ent = (*entries)[i];
      if (i == next || ent.type != (*entries)[i - 1].type) {
        dirs.push_back(CsrSegment::TypeDirEntry{
            ent.type, static_cast<uint32_t>(nbrs.size())});
      }
      nbrs.push_back(ent.nbr);
      edge_ids.push_back(ent.id);
    }
    next = row_end;
    offsets.push_back(static_cast<uint32_t>(nbrs.size()));
    dir_offsets.push_back(static_cast<uint32_t>(dirs.size()));
    ++l;
  }
  return rederived;
}

}  // namespace

size_t CsrSegment::ByteSize() const {
  return VectorBytes(out_offsets) + VectorBytes(out_targets) +
         VectorBytes(out_edge_ids) +
         VectorBytes(in_offsets) + VectorBytes(in_sources) +
         VectorBytes(in_edge_ids) + VectorBytes(vertex_types) +
         VectorBytes(out_type_dir_offsets) + VectorBytes(out_type_dirs) +
         VectorBytes(in_type_dir_offsets) + VectorBytes(in_type_dirs);
}

CsrSegmentPtr CsrGraph::BuildSegment(const PropertyGraph& g, size_t seg_index,
                                     const CsrSegment* prev,
                                     const uint8_t* dirty,
                                     size_t* rows_rederived) {
  auto owned = std::make_shared<CsrSegment>();
  CsrSegment& seg = *owned;
  const size_t n = g.NumVertices();
  const VertexId first =
      static_cast<VertexId>(seg_index << kCsrSegmentShift);
  const uint32_t count = static_cast<uint32_t>(
      std::min<size_t>(n - first, kCsrSegmentVertices));
  seg.first_vertex = first;
  seg.num_vertices = count;
  seg.vertex_types.reserve(count);
  for (uint32_t l = 0; l < count; ++l) {
    seg.vertex_types.push_back(g.VertexType(first + l));
  }
  // Rows at or past `kept` did not exist in `prev`; they are always
  // derived from the graph.
  const uint32_t kept =
      prev != nullptr && prev->first_vertex == first &&
              prev->num_vertices <= count
          ? prev->num_vertices
          : 0;
  auto is_dirty = [&](uint32_t l) {
    return l >= kept || (dirty != nullptr && dirty[l] != 0);
  };
  std::vector<SliceEntry> entries;
  size_t rederived = 0;
  for (const SideFields& side : {kOutSide, kInSide}) {
    rederived += BuildSide(g, side, prev, is_dirty, &entries, &seg);
  }
  if (rows_rederived != nullptr) *rows_rederived = rederived;
  return owned;
}

CsrGraph CsrGraph::Build(const PropertyGraph& g) {
  CsrGraph csr;
  const size_t n = g.NumVertices();
  csr.num_vertices_ = n;
  csr.edge_id_space_ = static_cast<EdgeId>(g.NumEdges());
  const size_t num_segs = CsrSegmentCount(n);
  csr.segments_.reserve(num_segs);
  for (size_t s = 0; s < num_segs; ++s) {
    csr.segments_.push_back(BuildSegment(g, s));
    csr.num_edges_ += csr.segments_.back()->out_targets.size();
  }
  return csr;
}

CsrGraph CsrGraph::FromSegments(std::vector<CsrSegmentPtr> segments,
                                size_t num_vertices, EdgeId edge_id_space) {
  CsrGraph csr;
  csr.segments_ = std::move(segments);
  csr.num_vertices_ = num_vertices;
  csr.edge_id_space_ = edge_id_space;
  for (const CsrSegmentPtr& s : csr.segments_) {
    csr.num_edges_ += s->out_targets.size();
  }
  return csr;
}

CsrGraph CsrGraph::PatchedFrom(const CsrGraph& prev, const PropertyGraph& g,
                               const std::vector<EdgeId>& removed_edges,
                               const CsrPatchOptions& options,
                               CsrPatchStats* stats_out) {
  CsrPatchStats local_stats;
  CsrPatchStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats = CsrPatchStats{};
  const size_t n_prev = prev.NumVertices();
  const size_t n = g.NumVertices();
  const EdgeId first_new = prev.edge_id_space_;
  const size_t num_segs = CsrSegmentCount(n);

  auto full_rebuild = [&]() {
    stats.full_rebuild = true;
    CsrGraph built = Build(g);
    stats.total_segments = built.num_segments();
    stats.segments_copied = built.num_segments();
    stats.rows_rederived = 2 * n;
    for (const CsrSegmentPtr& s : built.segments_) {
      stats.bytes_copied += s->ByteSize();
    }
    return built;
  };

  // Dirty pass: a vertex's slice must be re-derived (and its segment
  // produced anew) when an edge left or entered it since `prev`.
  // Vertices appended since `prev` are re-derived regardless: they sit
  // past the end of their segment in `prev`. Tombstoned records stay
  // readable, which is all this needs — an edge inserted *and* removed
  // within the window (id >= first_new, now dead) never reached `prev`
  // and is simply absent from the re-derived segments.
  std::vector<uint8_t> dirty(n_prev, 0);
  std::vector<uint8_t> seg_dirty(num_segs, 0);
  size_t dirty_old = 0;
  auto mark = [&](VertexId v) {
    if (static_cast<size_t>(v) < n_prev && dirty[v] == 0) {
      dirty[v] = 1;
      ++dirty_old;
    }
    const size_t s = CsrSegmentOf(v);
    if (s < num_segs) seg_dirty[s] = 1;
  };
  for (EdgeId e : removed_edges) {
    if (e >= first_new) continue;  // never made it into `prev`
    const EdgeRecord& rec = g.Edge(e);
    mark(rec.source);
    mark(rec.target);
  }
  for (EdgeId e = first_new; e < static_cast<EdgeId>(g.NumEdges()); ++e) {
    const EdgeRecord& rec = g.Edge(e);
    mark(rec.source);
    mark(rec.target);
  }
  stats.dirty_vertices = dirty_old + (n - n_prev);
  if (n == 0 || n < n_prev ||
      static_cast<double>(stats.dirty_vertices) >
          options.max_dirty_fraction * static_cast<double>(n)) {
    return full_rebuild();
  }
  // The segment straddling the old vertex-count boundary changes shape
  // when vertices were appended; segments wholly past it are new.
  if (n != n_prev && (n_prev >> kCsrSegmentShift) < num_segs) {
    seg_dirty[n_prev >> kCsrSegmentShift] = 1;
  }

  CsrGraph csr;
  csr.num_vertices_ = n;
  csr.edge_id_space_ = static_cast<EdgeId>(g.NumEdges());
  csr.segments_.reserve(num_segs);
  stats.total_segments = num_segs;
  for (size_t s = 0; s < num_segs; ++s) {
    const CsrSegment* old =
        s < prev.segments_.size() ? prev.segments_[s].get() : nullptr;
    if (old != nullptr && seg_dirty[s] == 0) {
      // Clean: share the previous generation's segment by refcount.
      csr.segments_.push_back(prev.segments_[s]);
      ++stats.segments_shared;
    } else {
      // `dirty` covers the old segment's rows: old->num_vertices ends at
      // or before n_prev.
      size_t rows = 0;
      csr.segments_.push_back(BuildSegment(
          g, s, old, old != nullptr ? dirty.data() + old->first_vertex : nullptr,
          &rows));
      stats.rows_rederived += rows;
      ++stats.segments_copied;
      stats.bytes_copied += csr.segments_.back()->ByteSize();
    }
    csr.num_edges_ += csr.segments_.back()->out_targets.size();
  }
  return csr;
}

size_t CsrCountReachable(const CsrGraph& g, VertexId source, int max_hops,
                         bool backward) {
  if (source >= g.NumVertices() || max_hops <= 0) return 0;
  std::vector<bool> visited(g.NumVertices(), false);
  visited[source] = true;
  std::deque<std::pair<VertexId, int>> frontier{{source, 0}};
  size_t reached = 0;
  while (!frontier.empty()) {
    auto [v, hops] = frontier.front();
    frontier.pop_front();
    if (hops >= max_hops) continue;
    NeighborSpan neighbors = backward ? g.InNeighbors(v) : g.OutNeighbors(v);
    for (VertexId next : neighbors) {
      if (visited[next]) continue;
      visited[next] = true;
      ++reached;
      frontier.emplace_back(next, hops + 1);
    }
  }
  return reached;
}

std::vector<VertexId> CsrLabelPropagation(const CsrGraph& g, int passes) {
  std::vector<VertexId> label(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) label[v] = v;
  std::unordered_map<VertexId, size_t> freq;
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    std::vector<VertexId> next_label(label);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      freq.clear();
      for (VertexId u : g.OutNeighbors(v)) ++freq[label[u]];
      for (VertexId u : g.InNeighbors(v)) ++freq[label[u]];
      if (freq.empty()) continue;
      VertexId best = label[v];
      size_t best_count = 0;
      for (const auto& [candidate, count] : freq) {
        if (count > best_count ||
            (count == best_count && candidate < best)) {
          best = candidate;
          best_count = count;
        }
      }
      if (best != label[v]) {
        next_label[v] = best;
        changed = true;
      }
    }
    label = std::move(next_label);
    if (!changed) break;
  }
  return label;
}

}  // namespace kaskade::graph
