#include "core/catalog.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "core/cost_model.h"

namespace kaskade::core {

namespace {

/// True when `g` drifted far enough (>10%, with a small-graph floor)
/// from the live counts `stats` was computed at that plan costing would
/// be misled. The one refresh rule for base and view statistics.
bool StatsAreStale(const graph::GraphStats& stats,
                   const graph::PropertyGraph& g) {
  auto drifted = [](size_t now, size_t then) {
    size_t diff = now > then ? now - then : then - now;
    return diff * 10 > then + 32;
  };
  return drifted(g.NumLiveVertices(), stats.num_vertices()) ||
         drifted(g.NumLiveEdges(), stats.num_edges());
}

void RefreshStats(CatalogEntry* entry) {
  entry->stats = graph::GraphStats::Compute(entry->view.graph);
}

/// Re-materializes `entry` over `base` and re-attaches a maintainer
/// when the kind supports one (a rebuilt view invalidates any previous
/// maintainer's indexes).
Status Rebuild(const graph::PropertyGraph& base, CatalogEntry* entry) {
  Result<MaterializedView> fresh = Materialize(base, entry->view.definition);
  if (!fresh.ok()) return fresh.status();
  entry->view = std::move(*fresh);
  entry->maintainer =
      ViewMaintainer::SupportsKind(entry->view.definition.kind)
          ? std::make_unique<ViewMaintainer>(&base, &entry->view)
          : nullptr;
  return Status::OK();
}

/// Trail bounds: past either cap a snapshot patch would walk a delta
/// history approaching the size of the graph, so the slot falls back to
/// one full rebuild (which resets the trail) instead of growing without
/// bound under a stream of mutations that nobody queries between.
constexpr size_t kMaxTrailBatches = 64;
constexpr size_t kMaxTrailRemovals = 8192;

}  // namespace

ViewCatalog::BaseShape ViewCatalog::ShapeOfBase() const {
  return BaseShape{base_->NumVertices(), base_->NumEdges(),
                   base_->NumLiveVertices(), base_->NumLiveEdges()};
}

void ViewCatalog::NoteBaseShapeLocked(bool force) {
  announced_base_shape_ = ShapeOfBase();
  if (!force && !StatsAreStale(*base_stats_, *base_)) return;
  base_stats_ = std::make_shared<const graph::GraphStats>(
      graph::GraphStats::Compute(*base_));
  base_stats_refreshes_.fetch_add(1, std::memory_order_relaxed);
}

void ViewCatalog::NoteBaseGraphChanged() {
  std::unique_lock lock(mu_);
  NoteBaseShapeLocked(/*force=*/true);
  BumpGeneration();
  InvalidateSnapshot(kInvalidViewHandle);
}

std::shared_ptr<const graph::GraphStats> ViewCatalog::BaseStats() const {
  {
    std::shared_lock lock(mu_);
    if (ShapeOfBase() == announced_base_shape_) return base_stats_;
  }
  // The base changed behind the catalog's back. Cost this call on exact
  // statistics and keep nothing: the next announcement refreshes the
  // catalog's copy.
  return std::make_shared<const graph::GraphStats>(
      graph::GraphStats::Compute(*base_));
}

void ViewCatalog::BumpGeneration() {
  const uint64_t gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  for (auto& [handle, slot] : snapshots_) {
    if (slot.patchable) slot.head_generation = gen;
  }
}

bool ViewCatalog::WantsBaseDeltaTrail() const {
  // The sharded store always consumes footprints: removal ids are how
  // it finds the segments a batch dirtied.
  if (store_ != nullptr) return true;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  auto it = snapshots_.find(kInvalidViewHandle);
  return it != snapshots_.end() && it->second.patchable &&
         it->second.csr != nullptr;
}

void ViewCatalog::NoteBaseDelta(const graph::DeltaFootprintPtr& delta) {
  if (delta == nullptr) {
    // The caller chose not to materialize a footprint; if a patchable
    // base snapshot exists after all, it must not survive with a trail
    // that misses this batch.
    InvalidateSnapshot(kInvalidViewHandle);
    return;
  }
  if (store_ != nullptr) {
    // Sharded base pipeline: O(|delta|) per-shard dirty marking instead
    // of the single-slot trail.
    store_->NoteDelta(delta);
    return;
  }
  if (delta->edge_removals.empty()) {
    // Insert-only batches need no log: the patch path discovers
    // appended vertices/edges from id-space growth.
    return;
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  auto it = snapshots_.find(kInvalidViewHandle);
  if (it == snapshots_.end()) return;  // nothing cached; nothing to patch
  SnapshotSlot& slot = it->second;
  if (!slot.patchable) return;
  // Heuristic early cut: a batch whose touched-vertex bound alone
  // dwarfs the dirty budget will almost certainly hit PatchedFrom's
  // dirty-fraction fallback — don't grow the trail for it. The bound
  // overcounts repeated endpoints, so the 2x slack keeps skewed (hubby)
  // batches on the patch path; a false cut only costs one correct full
  // rebuild.
  // (A patchable slot implies patching is enabled — SnapshotOf only
  // publishes patchable slots when it is.)
  const double dirty_budget = patch_options_.max_dirty_fraction *
                              static_cast<double>(base_->NumVertices());
  if (slot.trail_batches >= kMaxTrailBatches ||
      slot.trail_removals + delta->edge_removals.size() > kMaxTrailRemovals ||
      static_cast<double>(delta->TouchedVertexBound()) > 2.0 * dirty_budget) {
    slot.patchable = false;
    slot.csr.reset();
    slot.base_trail.clear();
    slot.trail_batches = slot.trail_removals = 0;
    return;
  }
  slot.base_trail.push_back(delta);
  ++slot.trail_batches;
  slot.trail_removals += delta->edge_removals.size();
}

void ViewCatalog::NoteViewDelta(ViewHandle handle,
                                std::vector<graph::EdgeId> removed) {
  if (removed.empty()) return;  // insert-only: id-space growth covers it
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  auto it = snapshots_.find(handle);
  if (it == snapshots_.end()) return;
  SnapshotSlot& slot = it->second;
  if (!slot.patchable) return;
  if (slot.trail_batches >= kMaxTrailBatches ||
      slot.trail_removals + removed.size() > kMaxTrailRemovals) {
    slot.patchable = false;
    slot.csr.reset();
    slot.view_removals.clear();
    slot.trail_batches = slot.trail_removals = 0;
    return;
  }
  slot.view_removals.insert(slot.view_removals.end(), removed.begin(),
                            removed.end());
  ++slot.trail_batches;
  slot.trail_removals += removed.size();
}

void ViewCatalog::InvalidateSnapshot(ViewHandle handle) {
  if (handle == kInvalidViewHandle && store_ != nullptr) {
    // Out-of-band base change: every shard rebuilds its segments on
    // the next refresh.
    store_->NoteChanged();
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  auto it = snapshots_.find(handle);
  if (it == snapshots_.end()) return;
  SnapshotSlot& slot = it->second;
  slot.patchable = false;
  slot.csr.reset();
  slot.base_trail.clear();
  slot.view_removals.clear();
  slot.trail_batches = slot.trail_removals = 0;
}

const char* ViewStateName(ViewState state) {
  switch (state) {
    case ViewState::kBuilding:
      return "building";
    case ViewState::kReady:
      return "ready";
    case ViewState::kDropping:
      return "dropping";
    case ViewState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

Result<ViewHandle> ViewCatalog::Add(const ViewDefinition& definition) {
  std::unique_lock lock(mu_);
  CatalogEntry* reclaim = nullptr;
  for (const auto& entry : entries_) {
    if (entry->name() == definition.Name()) {
      // A quarantined entry holds a name whose view failed: re-adding it
      // is the repair path, rebuilding in place under the same handle.
      if (entry->state == ViewState::kQuarantined) {
        reclaim = entry.get();
        break;
      }
      return Status::AlreadyExists("view '" + definition.Name() +
                                   "' already materialized");
    }
  }
  Result<MaterializedView> view = Materialize(*base_, definition);
  if (!view.ok()) return view.status();
  if (reclaim != nullptr) {
    reclaim->view = std::move(*view);
    reclaim->maintainer =
        ViewMaintainer::SupportsKind(reclaim->view.definition.kind)
            ? std::make_unique<ViewMaintainer>(base_, &reclaim->view)
            : nullptr;
    RefreshStats(reclaim);
    reclaim->state = ViewState::kReady;
    reclaim->health = Status::OK();
    InvalidateSnapshot(reclaim->handle);
    BumpGeneration();
    return reclaim->handle;
  }

  auto entry = std::unique_ptr<CatalogEntry>(new CatalogEntry{
      next_handle_++, std::move(*view), graph::GraphStats{}, nullptr});
  RefreshStats(entry.get());
  // A null maintainer slot means RefreshAll re-materializes instead.
  if (ViewMaintainer::SupportsKind(entry->view.definition.kind)) {
    entry->maintainer = std::make_unique<ViewMaintainer>(base_, &entry->view);
  }
  ViewHandle handle = entry->handle;
  entries_.push_back(std::move(entry));
  BumpGeneration();
  return handle;
}

Result<ViewHandle> ViewCatalog::BeginBuild(const ViewDefinition& definition) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name() == definition.Name()) {
      if (entry->state == ViewState::kQuarantined) {
        // Reclaim the broken entry as the build's placeholder: same
        // handle, back to `kBuilding`, so the builder's eventual
        // `Publish` repairs the view in place. No generation bump —
        // a quarantined entry was already planner-invisible.
        entry->view = MaterializedView{
            definition, graph::PropertyGraph(graph::GraphSchema{}), {}};
        entry->maintainer.reset();
        entry->state = ViewState::kBuilding;
        entry->health = Status::OK();
        InvalidateSnapshot(entry->handle);
        return entry->handle;
      }
      return Status::AlreadyExists(
          "view '" + definition.Name() + "' already registered (" +
          ViewStateName(entry->state) + ")");
    }
  }
  auto entry = std::unique_ptr<CatalogEntry>(new CatalogEntry{
      next_handle_++,
      MaterializedView{definition, graph::PropertyGraph(graph::GraphSchema{}),
                       {}},
      graph::GraphStats{}, nullptr});
  entry->state = ViewState::kBuilding;
  ViewHandle handle = entry->handle;
  entries_.push_back(std::move(entry));
  // No generation bump: nothing planner-visible changed, so cached plans
  // stay exactly as valid as they were.
  return handle;
}

Status ViewCatalog::Publish(ViewHandle handle, MaterializedView built) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle != handle) continue;
    if (entry->state != ViewState::kBuilding) {
      return Status::FailedPrecondition("view '" + entry->name() +
                                        "' is not in the building state");
    }
    entry->view = std::move(built);
    entry->maintainer =
        ViewMaintainer::SupportsKind(entry->view.definition.kind)
            ? std::make_unique<ViewMaintainer>(base_, &entry->view)
            : nullptr;
    RefreshStats(entry.get());
    entry->state = ViewState::kReady;
    BumpGeneration();
    // Defensive: a placeholder has no snapshot to patch from, and the
    // published graph shares no lineage with anything cached.
    InvalidateSnapshot(handle);
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the published handle");
}

Status ViewCatalog::AbortBuild(ViewHandle handle) {
  std::unique_lock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->handle != handle) continue;
    if ((*it)->state != ViewState::kBuilding) {
      return Status::FailedPrecondition("view '" + (*it)->name() +
                                        "' is not in the building state");
    }
    entries_.erase(it);
    // No generation bump: the placeholder was never planner-visible.
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the aborted handle");
}

void ViewCatalog::QuarantineLocked(CatalogEntry* entry, Status reason) {
  entry->state = ViewState::kQuarantined;
  entry->health = std::move(reason);
  // The maintainer's indexes describe a view that can no longer be kept
  // exact; a reclaim rebuilds both from scratch.
  entry->maintainer.reset();
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
  InvalidateSnapshot(entry->handle);
  // Cached plans that routed queries to this view must stop matching.
  BumpGeneration();
}

Status ViewCatalog::Quarantine(ViewHandle handle, Status reason) {
  std::unique_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle != handle) continue;
    if (entry->state == ViewState::kQuarantined) return Status::OK();
    QuarantineLocked(entry.get(), std::move(reason));
    return Status::OK();
  }
  return Status::NotFound("no catalog entry for the quarantined handle");
}

Status ViewCatalog::Remove(const std::string& name) {
  std::unique_lock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->name() == name) {
      if ((*it)->state == ViewState::kBuilding) {
        return Status::FailedPrecondition(
            "view '" + name +
            "' is still building; wait for the build to publish "
            "(Engine::WaitForBuilds) and retry the removal");
      }
      (*it)->state = ViewState::kDropping;
      ViewHandle handle = (*it)->handle;
      entries_.erase(it);
      {
        // Handles are never reused, so the dropped slot can only leak —
        // reclaim it eagerly.
        std::lock_guard<std::mutex> snapshot_lock(snapshot_mu_);
        snapshots_.erase(handle);
      }
      BumpGeneration();
      return Status::OK();
    }
  }
  return Status::NotFound("view '" + name + "' is not in the catalog");
}

Status ViewCatalog::RefreshAll() {
  std::unique_lock lock(mu_);
  // Unconditional: even a no-op refresh may follow base-graph changes
  // that shifted raw-plan costs.
  BumpGeneration();
  // A base changed behind the catalog's back gets exact statistics.
  NoteBaseShapeLocked(/*force=*/ShapeOfBase() != announced_base_shape_);
  for (const auto& entry : entries_) {
    // In-flight builds catch up at publish time; there is no view graph
    // to refresh yet.
    if (entry->state != ViewState::kReady) continue;
    if (entry->maintainer != nullptr) {
      // CatchUp only ever *appends* to the view (it replays insertions
      // past the watermark), which the snapshot patch path discovers
      // from id-space growth — the view's snapshot trail stays valid.
      Result<MaintenanceStats> stats = entry->maintainer->CatchUp();
      if (stats.ok()) {
        if (stats->edges_added + stats->edges_removed +
                stats->edges_updated + stats->vertices_added +
                stats->vertices_removed ==
                0 &&
            !StatsAreStale(entry->stats, entry->view.graph)) {
          // Nothing changed now and no drift was deferred by the
          // delta path: stats are exact already.
          continue;
        }
        RefreshStats(entry.get());
        continue;
      }
      if (stats.status().code() != StatusCode::kFailedPrecondition) {
        return stats.status();
      }
      // The base graph saw removals the maintainer never heard about
      // (e.g. a MutateBaseGraph writer deleting edges directly): the
      // view is unreconstructible incrementally — rebuild it rather
      // than serve stale results.
    }
    // Invalidate before rebuilding so a Rebuild failure cannot leave a
    // patchable slot pointing at a replaced (or half-replaced) graph.
    InvalidateSnapshot(entry->handle);
    KASKADE_RETURN_IF_ERROR(Rebuild(*base_, entry.get()));
    RefreshStats(entry.get());
  }
  return Status::OK();
}

Result<DeltaMaintenanceReport> ViewCatalog::ApplyBaseDelta(
    const graph::GraphDelta& delta) {
  return ApplyBaseDelta(delta,
                        std::make_shared<const graph::DeltaFootprint>(delta));
}

Result<DeltaMaintenanceReport> ViewCatalog::ApplyBaseDelta(
    const graph::GraphDelta& delta, graph::DeltaFootprintPtr footprint) {
  std::unique_lock lock(mu_);
  // One generation bump covers the whole batch — plans cached against
  // the pre-delta catalog stop matching exactly once.
  BumpGeneration();
  // The footprint describes exactly how the base graph moved: record it
  // on the base snapshot's delta trail so the next BaseSnapshot patches
  // instead of rebuilding.
  NoteBaseDelta(footprint);
  NoteBaseShapeLocked(/*force=*/false);
  DeltaMaintenanceReport report;
  const size_t inserts = delta.edge_inserts.size();
  const size_t removals = delta.edge_removals.size();
  std::vector<graph::EdgeId> removed_view_edges;
  for (const auto& entry : entries_) {
    // kBuilding placeholders are invisible to maintenance (the engine's
    // pending-delta log replays this batch onto them at publish time),
    // and kQuarantined entries are out of service entirely.
    if (entry->state != ViewState::kReady) continue;
    if (fault_hooks_.enabled()) {
      Status injected =
          fault_hooks_.Fire(FaultSite::kMaintainerApply, entry->name());
      if (!injected.ok()) {
        // The injected failure stands in for a maintenance pass that
        // left the view unreconstructible: quarantine it and keep
        // maintaining the rest of the batch.
        QuarantineLocked(entry.get(), std::move(injected));
        ++report.views_quarantined;
        continue;
      }
    }
    bool incremental =
        entry->maintainer != nullptr &&
        !PreferRematerialization(*base_, entry->view.definition, inserts,
                                 removals);
    if (incremental) {
      removed_view_edges.clear();
      entry->maintainer->set_removed_edge_sink(&removed_view_edges);
      Result<MaintenanceStats> stats = entry->maintainer->ApplyDelta(delta);
      entry->maintainer->set_removed_edge_sink(nullptr);
      if (stats.ok()) {
        NoteViewDelta(entry->handle, std::move(removed_view_edges));
        removed_view_edges = {};
        report.stats += *stats;
        ++report.views_incremental;
        // Re-weighted edges (edges_updated) never move the degree
        // profile, and small topology changes drift the statistics too
        // little to change plan choice — only recompute (O(V log V))
        // once the view drifted past the staleness threshold.
        bool topology_changed = stats->edges_added + stats->edges_removed +
                                    stats->vertices_added +
                                    stats->vertices_removed !=
                                0;
        if (topology_changed &&
            StatsAreStale(entry->stats, entry->view.graph)) {
          RefreshStats(entry.get());
        }
        continue;
      }
      if (stats.status().code() != StatusCode::kFailedPrecondition) {
        // Internal errors signal corrupt maintenance state: the failed
        // pass may have mutated the view in ways neither the trail nor
        // a maintainer rebuild can describe. Quarantine the view rather
        // than failing the whole write — the base graph and every other
        // view are already exact, and queries that would have used this
        // view fall back to the base graph.
        QuarantineLocked(entry.get(), stats.status());
        ++report.views_quarantined;
        continue;
      }
      // A FailedPrecondition pass may have left the view half-updated;
      // rebuilding restores exactness instead of stranding a stale
      // entry behind the already-mutated base graph.
    }
    // Invalidate before rebuilding: the failed pass above may already
    // have tombstoned view edges the trail never recorded, and the
    // rebuild replaces the graph wholesale — either way the old
    // snapshot cannot be patched forward, even if Rebuild errors out.
    InvalidateSnapshot(entry->handle);
    Status rebuilt = Rebuild(*base_, entry.get());
    if (!rebuilt.ok()) {
      // The half-updated view could not be restored to exactness:
      // quarantine it so it is never served, and keep going — failing
      // the write here would strand every *other* view behind an
      // already-mutated base graph.
      QuarantineLocked(entry.get(), std::move(rebuilt));
      ++report.views_quarantined;
      continue;
    }
    ++report.views_rematerialized;
    RefreshStats(entry.get());
  }
  return report;
}

size_t ViewCatalog::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

size_t ViewCatalog::num_ready() const {
  std::shared_lock lock(mu_);
  size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry->state == ViewState::kReady) ++count;
  }
  return count;
}

size_t ViewCatalog::num_quarantined() const {
  std::shared_lock lock(mu_);
  size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry->state == ViewState::kQuarantined) ++count;
  }
  return count;
}

const CatalogEntry* ViewCatalog::Find(const std::string& name) const {
  std::shared_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name() == name) return entry.get();
  }
  return nullptr;
}

const CatalogEntry* ViewCatalog::Get(ViewHandle handle) const {
  std::shared_lock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->handle == handle) return entry.get();
  }
  return nullptr;
}

std::vector<const CatalogEntry*> ViewCatalog::Entries() const {
  std::shared_lock lock(mu_);
  std::vector<const CatalogEntry*> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.get());
  return out;
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::SnapshotOf(
    ViewHandle handle, const graph::PropertyGraph& g) const {
  // The caller excludes concurrent catalog/base mutation (Engine reader
  // discipline), so the generation cannot move during this call.
  const uint64_t gen = generation();
  if (handle == kInvalidViewHandle && store_ != nullptr) {
    // Sharded base pipeline: stale shards refresh under their own
    // writer locks (disjoint shards concurrently), dirty segments
    // rebuild, clean ones share by refcount. Views keep the
    // single-slot path below.
    SegmentStore::Outcome outcome;
    std::shared_ptr<const graph::CsrGraph> snap =
        store_->Snapshot(gen, &outcome);
    switch (outcome) {
      case SegmentStore::Outcome::kHit:
        snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case SegmentStore::Outcome::kPatch:
        snapshot_builds_.fetch_add(1, std::memory_order_relaxed);
        snapshot_patches_.fetch_add(1, std::memory_order_relaxed);
        break;
      case SegmentStore::Outcome::kFullBuild:
        snapshot_builds_.fetch_add(1, std::memory_order_relaxed);
        snapshot_full_builds_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return snap;
  }
  std::shared_ptr<const graph::CsrGraph> prev;
  std::vector<graph::EdgeId> removals;
  bool patch = false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    SnapshotSlot& slot = snapshots_[handle];
    if (slot.csr != nullptr && slot.csr_generation == gen) {
      snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
      return slot.csr;
    }
    if (slot.csr != nullptr && slot.patchable &&
        slot.head_generation == gen) {
      // The trail covers everything between the cached snapshot and the
      // current generation. When nothing actually changed for this
      // handle (the generation moved for unrelated reasons — another
      // view registered, say), the old snapshot is still exact:
      // re-stamp it instead of producing anything.
      const bool unchanged =
          slot.trail_batches == 0 &&
          slot.csr->edge_id_space() == g.NumEdges() &&
          slot.csr->NumVertices() == g.NumVertices() &&
          slot.csr->NumEdges() == g.NumLiveEdges();
      if (unchanged) {
        slot.csr_generation = gen;
        snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
        return slot.csr;
      }
      patch = true;
      prev = slot.csr;
      if (handle == kInvalidViewHandle) {
        removals.reserve(slot.trail_removals);
        for (const graph::DeltaFootprintPtr& batch : slot.base_trail) {
          removals.insert(removals.end(), batch->edge_removals.begin(),
                          batch->edge_removals.end());
        }
      } else {
        removals = slot.view_removals;
      }
    }
  }
  if (fault_hooks_.enabled()) {
    Status injected = fault_hooks_.Fire(
        FaultSite::kSnapshotBuild,
        handle == kInvalidViewHandle ? "base" : "view snapshot");
    if (!injected.ok()) {
      // A failed snapshot production is fully recoverable: the caller
      // sees no CSR and the query layer degrades to the legacy
      // (non-CSR) MATCH backend — slower, still exact. Nothing was
      // cached, so the next request retries the build.
      snapshot_build_failures_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  // Produce outside the cache mutex: a miss on one handle must not
  // stall cache hits on every other handle behind the build. Concurrent
  // missers on the same (handle, generation) may race duplicate
  // (identical) snapshots; the first to publish wins and the losers
  // adopt it.
  std::shared_ptr<const graph::CsrGraph> built;
  bool patched = false;
  if (patch) {
    // O(|delta|) path: derive the next snapshot from the previous one
    // through the merged trail (falls back internally past the dirty
    // threshold).
    graph::CsrPatchStats patch_stats;
    built = std::make_shared<const graph::CsrGraph>(graph::CsrGraph::PatchedFrom(
        *prev, g, removals, patch_options_, &patch_stats));
    patched = !patch_stats.full_rebuild;
    patch_segments_copied_.fetch_add(patch_stats.segments_copied,
                                     std::memory_order_relaxed);
    patch_segments_shared_.fetch_add(patch_stats.segments_shared,
                                     std::memory_order_relaxed);
    patch_bytes_copied_.fetch_add(patch_stats.bytes_copied,
                                  std::memory_order_relaxed);
  } else {
    built =
        std::make_shared<const graph::CsrGraph>(graph::CsrGraph::Build(g));
  }
  snapshot_builds_.fetch_add(1, std::memory_order_relaxed);
  (patched ? snapshot_patches_ : snapshot_full_builds_)
      .fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  SnapshotSlot& slot = snapshots_[handle];
  if (slot.csr != nullptr && slot.csr_generation == gen) return slot.csr;
  slot.csr = std::move(built);
  slot.csr_generation = gen;
  slot.head_generation = gen;
  slot.patchable = patch_options_.enabled();
  slot.trail_batches = slot.trail_removals = 0;
  slot.base_trail.clear();
  slot.view_removals.clear();
  return slot.csr;
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::BaseSnapshot() const {
  return SnapshotOf(kInvalidViewHandle, *base_);
}

std::shared_ptr<const graph::CsrGraph> ViewCatalog::SnapshotFor(
    ViewHandle handle) const {
  const CatalogEntry* entry = Get(handle);
  if (entry == nullptr) return nullptr;
  return SnapshotOf(handle, entry->view.graph);
}

}  // namespace kaskade::core
