#include "core/segment_store.h"

#include <algorithm>
#include <utility>

namespace kaskade::core {

SegmentStore::SegmentStore(const graph::PropertyGraph* base, size_t shards)
    : base_(base) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  SyncShape();
}

void SegmentStore::SyncShape() {
  const size_t n = base_->NumVertices();
  const size_t num_segs = graph::CsrSegmentCount(n);
  if (num_segs != segments_.size()) {
    // New slots start dirty (null is also treated as dirty at refresh);
    // a shrink simply drops the tail slots.
    segments_.resize(num_segs);
    seg_dirty_.resize(num_segs, 1);
  }
  // Appended vertices need no flag: they lie past the end of their
  // segment's previous version and are re-derived regardless.
  vertex_dirty_.resize(n, 0);
  vertices_seen_ = n;
  edges_seen_ = base_->NumEdges();
}

void SegmentStore::NoteChanged() {
  SyncShape();
  for (auto& shard : shards_) {
    shard->rebuild_all.store(true, std::memory_order_relaxed);
    // Invalidate regardless of the dirty set: the next Snapshot must
    // not treat the shard as current for any already-stamped version.
    shard->version.store(kNeverRefreshed, std::memory_order_release);
  }
}

void SegmentStore::NoteDelta(const graph::DeltaFootprintPtr& delta) {
  if (delta == nullptr) {
    NoteChanged();
    return;
  }
  const size_t n = base_->NumVertices();
  if (n < vertices_seen_) {
    // Vertices never shrink under the delta protocol; treat anything
    // else as an out-of-band change.
    NoteChanged();
    return;
  }
  const size_t prev_vertices = vertices_seen_;
  const size_t prev_edges = edges_seen_;
  SyncShape();
  const size_t num_segs = seg_dirty_.size();
  auto mark = [&](graph::VertexId v) {
    const size_t s = graph::CsrSegmentOf(v);
    if (s < num_segs) seg_dirty_[s] = 1;
    if (v < vertex_dirty_.size()) vertex_dirty_[v] = 1;
  };
  if (n != prev_vertices && (prev_vertices >> graph::kCsrSegmentShift) <
                                num_segs) {
    // The segment straddling the old vertex-count boundary changed
    // shape when vertices were appended.
    seg_dirty_[prev_vertices >> graph::kCsrSegmentShift] = 1;
  }
  // Removal endpoints: tombstoned records stay readable. Removals of
  // edges appended within this window are covered by the append scan.
  for (graph::EdgeId e : delta->edge_removals) {
    if (static_cast<size_t>(e) >= prev_edges) continue;
    const graph::EdgeRecord& rec = base_->Edge(e);
    mark(rec.source);
    mark(rec.target);
  }
  // Appended edges, discovered from id-space growth.
  const size_t now_edges = base_->NumEdges();
  for (size_t e = prev_edges; e < now_edges; ++e) {
    const graph::EdgeRecord& rec = base_->Edge(static_cast<graph::EdgeId>(e));
    mark(rec.source);
    mark(rec.target);
  }
}

std::vector<uint64_t> SegmentStore::writer_acquisitions() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->writer_acquisitions.load(std::memory_order_relaxed));
  }
  return out;
}

std::shared_ptr<const graph::CsrGraph> SegmentStore::Snapshot(
    uint64_t version, Outcome* outcome) const {
  Outcome local;
  Outcome& oc = outcome != nullptr ? *outcome : local;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_ != nullptr && cache_version_ == version) {
      oc = Outcome::kHit;
      return cache_;
    }
  }
  // Mutation is excluded for the duration of this call and every
  // concurrent caller passes the same (frozen) version, so the shape
  // read here is stable and a shard stamped `version` stays current.
  const size_t num_segs = segments_.size();
  const size_t k = shards_.size();
  uint64_t copied = 0;
  uint64_t shared = 0;
  for (size_t s = 0; s < k; ++s) {
    Shard& shard = *shards_[s];
    if (shard.version.load(std::memory_order_acquire) == version) continue;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (shard.version.load(std::memory_order_relaxed) == version) {
      continue;  // another reader refreshed it while we waited
    }
    const bool all = shard.rebuild_all.exchange(false,
                                                std::memory_order_relaxed);
    uint64_t shard_copied = 0;
    uint64_t shard_shared = 0;
    uint64_t bytes = 0;
    for (size_t seg = s; seg < num_segs; seg += k) {
      const graph::CsrSegment* prev = all ? nullptr : segments_[seg].get();
      if (prev != nullptr && seg_dirty_[seg] == 0) {
        ++shard_shared;
        continue;
      }
      uint8_t* dirty =
          vertex_dirty_.data() + (seg << graph::kCsrSegmentShift);
      segments_[seg] =
          graph::CsrGraph::BuildSegment(*base_, seg, prev, dirty);
      std::fill(dirty, dirty + segments_[seg]->num_vertices, 0);
      seg_dirty_[seg] = 0;
      ++shard_copied;
      bytes += segments_[seg]->ByteSize();
    }
    copied += shard_copied;
    shared += shard_shared;
    segments_copied_.fetch_add(shard_copied, std::memory_order_relaxed);
    segments_shared_.fetch_add(shard_shared, std::memory_order_relaxed);
    bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
    shard.version.store(version, std::memory_order_release);
  }
  // Every shard is stamped `version` (the acquire loads above order the
  // slot writes before the reads below), so the table is frozen:
  // assemble and publish. Concurrent callers may assemble duplicate
  // (identical) snapshots; the first to publish wins.
  std::vector<graph::CsrSegmentPtr> segs(segments_.begin(), segments_.end());
  auto built = std::make_shared<const graph::CsrGraph>(
      graph::CsrGraph::FromSegments(std::move(segs), base_->NumVertices(),
                                    static_cast<graph::EdgeId>(
                                        base_->NumEdges())));
  // A version bump that dirtied nothing (say, a view registration)
  // produced no segment: that is a hit, as the single-slot re-stamp is.
  oc = copied == 0   ? Outcome::kHit
       : shared == 0 ? Outcome::kFullBuild
                     : Outcome::kPatch;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_ != nullptr && cache_version_ == version) return cache_;
  cache_ = std::move(built);
  cache_version_ = version;
  return cache_;
}

}  // namespace kaskade::core
