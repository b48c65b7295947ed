/// \file catalog.h
/// \brief `ViewCatalog`: the thread-safe registry of materialized views
/// (the "view catalog" box of Fig. 2).
///
/// The catalog *owns* each materialized view together with its statistics
/// (used for cost-based plan choice) and its incremental maintainer
/// (where the view kind supports one). It also owns the base graph's
/// statistics, so the planner costs raw and rewritten plans from one
/// place without recomputing anything per plan.
///
/// Statistics refresh rule (base graph and views alike): they are
/// computed when the graph enters the catalog and recomputed, at
/// O(|V| log |V|), only once live vertex or edge counts drift more than
/// 10% (plus a small-graph floor) from the counts they were computed at
/// — plan costing tolerates that much drift. `ApplyBaseDelta` applies
/// the rule after each batch. `NoteBaseGraphChanged` always recomputes
/// the base's statistics; `RefreshAll` recomputes those of changed views,
/// and of a base changed without being announced, exactly.
///
/// Entries live behind stable `ViewHandle` ids and never move in memory
/// — they are held by `std::unique_ptr` — so maintainers and in-flight
/// readers can hold pointers into them without the pointer-stability
/// gymnastics the old monolithic facade needed (a `std::deque` that
/// must never reallocate).
///
/// Every mutation — registering a view, refreshing views, dropping a
/// view, or an announced base-graph change — bumps a monotonic
/// *generation* counter. Consumers that cache anything derived from the
/// catalog (notably the `Planner`'s plan cache) key their entries by
/// generation, which makes invalidation implicit: a stale generation
/// simply never matches again.
///
/// Thread-safety: all methods are safe to call concurrently. Reads take a
/// shared lock; mutations take an exclusive lock. `CatalogEntry` pointers
/// returned by accessors stay valid until the entry is dropped, but the
/// *contents* they point to may only be read while the caller prevents
/// concurrent catalog mutations (the `Engine` enforces this with its own
/// reader/writer discipline). Note that with background builds the
/// engine itself is such a mutator: `Publish`/`AbortBuild` land
/// asynchronously, so external introspection (`Entries`/`Find`/`Get`
/// dereferences) while builds are pending must be gated — e.g. by
/// `Engine::WaitForBuilds()` — or externally synchronized against the
/// scheduling thread.

#ifndef KASKADE_CORE_CATALOG_H_
#define KASKADE_CORE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/fault.h"
#include "core/maintenance.h"
#include "core/materializer.h"
#include "core/segment_store.h"
#include "core/view_definition.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "graph/stats.h"

namespace kaskade::core {

/// \brief Stable identifier of a catalog entry. Never reused, never
/// invalidated by other entries coming or going.
using ViewHandle = uint64_t;

inline constexpr ViewHandle kInvalidViewHandle = 0;

/// \brief Lifecycle of a catalog entry.
///
/// `kReady` views are the only ones the planner considers, the only
/// ones maintenance touches, and the only ones queries ever run on.
/// `kBuilding` entries are placeholders registered by `BeginBuild`:
/// they reserve the name (so a duplicate build cannot start) while the
/// actual materialization runs on a background worker *outside* the
/// engine's writer lock; `Publish` swaps the built view in and flips
/// the entry to `kReady` in one short writer critical section.
/// `kDropping` is the transient exit arc of the lifecycle: `Remove`
/// sets it under the writer lock immediately before erasing the entry,
/// so no concurrent reader can observe it — it exists to make the
/// lifecycle explicit (an entry leaves through exactly one arc), not as
/// an observable phase. `kQuarantined` entries are views taken out of
/// service after a failed build or a maintenance pass that could not
/// keep them exact: the name stays reserved (so monitors can see *why*
/// via `CatalogEntry::health` and a later advice round can rebuild it
/// through `BeginBuild`), but the planner never considers the entry, so
/// queries transparently fall back to the base graph or another view —
/// degraded cost, never degraded correctness.
enum class ViewState { kBuilding, kReady, kDropping, kQuarantined };

/// Human-readable state name ("building" / "ready" / "dropping" /
/// "quarantined").
const char* ViewStateName(ViewState state);

/// \brief A materialized view registered with the catalog, with the
/// statistics used for cost-based plan choice and the maintainer that
/// keeps it consistent with the base graph (null when the view kind only
/// supports re-materialization).
struct CatalogEntry {
  ViewHandle handle = kInvalidViewHandle;
  MaterializedView view;
  /// Refreshed under the catalog's drift rule (see the file comment);
  /// its live counts are the ones the rule measures drift from.
  graph::GraphStats stats;
  std::unique_ptr<ViewMaintainer> maintainer;
  /// Lifecycle state; only `kReady` entries are planner-visible. For a
  /// `kBuilding` placeholder `view.graph` is empty and `maintainer` is
  /// null until `Publish`.
  ViewState state = ViewState::kReady;
  /// Why the entry is out of service: OK unless `state` is
  /// `kQuarantined`, in which case it holds the failure that forced the
  /// quarantine (build error, maintenance fault).
  Status health = Status::OK();

  std::string name() const { return view.definition.Name(); }
};

/// \brief How `ApplyBaseDelta` brought the catalog up to date.
struct DeltaMaintenanceReport {
  /// Aggregated over every incrementally maintained view.
  MaintenanceStats stats;
  size_t views_incremental = 0;
  size_t views_rematerialized = 0;
  /// Views whose maintenance failed in a way that could not be repaired
  /// by a rebuild: they were quarantined (taken out of planning) and the
  /// rest of the batch proceeded. The base graph and every other view
  /// stay exact.
  size_t views_quarantined = 0;
};

/// \brief Thread-safe registry owning all materialized views.
class ViewCatalog {
 public:
  /// Binds to the base graph the views are materialized from. The graph
  /// must outlive the catalog and must not move (maintainers hold
  /// pointers to it). `patch_options` tunes incremental CSR snapshot
  /// production (`max_dirty_fraction = 0` disables patching: every
  /// snapshot miss is a full rebuild). `shards >= 2` routes base-graph
  /// snapshot production through a per-shard `SegmentStore` pipeline
  /// (see segment_store.h); 1 keeps the single-slot path, byte-identical
  /// to previous behavior.
  explicit ViewCatalog(const graph::PropertyGraph* base,
                       graph::CsrPatchOptions patch_options = {},
                       size_t shards = 1)
      : base_(base),
        patch_options_(patch_options),
        base_stats_(std::make_shared<const graph::GraphStats>(
            graph::GraphStats::Compute(*base))),
        announced_base_shape_(ShapeOfBase()),
        store_(shards >= 2 ? std::make_unique<SegmentStore>(base, shards)
                           : nullptr) {}

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Materializes `definition` over the base graph and registers it
  /// ready. Attaches an incremental maintainer when the view kind
  /// supports one. Fails with AlreadyExists when a view of the same name
  /// is registered (in any state).
  Result<ViewHandle> Add(const ViewDefinition& definition);

  /// \name Non-blocking registration (background materialization).
  ///
  /// `BeginBuild` registers a `kBuilding` placeholder — reserving the
  /// name, returning the handle the builder will publish under — without
  /// materializing anything and *without* bumping the generation
  /// (nothing planner-visible changed). The builder materializes off the
  /// writer lock, then calls `Publish` to swap the finished view in,
  /// attach its maintainer, refresh statistics, flip the entry to
  /// `kReady`, and bump the generation — one short writer critical
  /// section regardless of how long the build took. `AbortBuild`
  /// discards the placeholder when the build fails.
  /// @{
  Result<ViewHandle> BeginBuild(const ViewDefinition& definition);
  Status Publish(ViewHandle handle, MaterializedView built);
  Status AbortBuild(ViewHandle handle);
  /// @}

  /// Takes the entry out of service after a failure that left it unable
  /// to serve exact results: flips it to `kQuarantined`, records
  /// `reason` in `CatalogEntry::health`, detaches its maintainer, drops
  /// its cached snapshot, and bumps the generation so cached plans that
  /// referenced the view stop matching. The name stays reserved;
  /// `BeginBuild`/`Add` with the same name reclaim the entry (rebuild),
  /// and `Remove` drops it. Accepts `kReady` and `kBuilding` entries;
  /// NotFound when the handle is not registered.
  Status Quarantine(ViewHandle handle, Status reason);

  /// Drops the view named `name` (marking it `kDropping` on the way
  /// out). Plans cached against older generations stop matching;
  /// in-flight readers of the entry must be excluded by the caller (the
  /// Engine's writer lock does this). Dropping a `kBuilding` entry is
  /// refused (abort the build instead); dropping a `kQuarantined` entry
  /// is allowed — that is how an operator retires a broken view.
  Status Remove(const std::string& name);

  /// Brings every `kReady` view up to date with the base graph:
  /// incrementally where a maintainer is attached, by re-materialization
  /// otherwise — including when the base graph saw removals the
  /// maintainer was never told about (stale views are rebuilt, never
  /// served). Refreshes per-view statistics. `kBuilding` placeholders
  /// are skipped — their builder catches up at publish time.
  Status RefreshAll();

  /// Routes one already-applied base-graph delta (coalesced; removals in
  /// application order) to every `kReady` view: incrementally via its
  /// maintainer when attached and the cost model predicts the
  /// incremental pass beats a from-scratch build, by re-materialization
  /// otherwise. `kBuilding` placeholders are skipped (the engine's
  /// pending-delta log replays the batch onto them at publish time).
  /// Refreshes per-view statistics and bumps the generation exactly once
  /// for the whole batch.
  ///
  /// The batch's *footprint* (removal ids + insert counts; never the
  /// insert payloads) is recorded on the base graph's snapshot delta
  /// trail, and each incrementally-maintained view's removed view edges
  /// on that view's trail, so the next `BaseSnapshot`/`SnapshotFor`
  /// patches the previous CSR snapshot forward in O(|delta|) instead of
  /// rebuilding in O(|V| + |E|). Rematerialized views fall off the
  /// patch path (their snapshot is rebuilt from scratch). Pass the
  /// footprint the engine already shares with its pending-delta log so
  /// the batch is materialized once; the single-argument overload
  /// captures a fresh one.
  Result<DeltaMaintenanceReport> ApplyBaseDelta(
      const graph::GraphDelta& delta, graph::DeltaFootprintPtr footprint);
  Result<DeltaMaintenanceReport> ApplyBaseDelta(const graph::GraphDelta& delta);

  /// Announces an out-of-band base-graph change (e.g. appended edges)
  /// so generation-keyed caches are invalidated before the next refresh.
  /// The base graph's snapshot trail cannot describe an arbitrary
  /// mutation, so the next `BaseSnapshot` is a full rebuild, and the
  /// base's statistics are recomputed here.
  void NoteBaseGraphChanged();

  /// Statistics of the base graph for plan costing: the catalog's copy,
  /// kept under the drift rule (see the file comment), with no per-call
  /// work. When the base graph changed without being announced to the
  /// catalog (`ApplyBaseDelta` / `NoteBaseGraphChanged`), the returned
  /// statistics are computed for this call only; nothing is cached on
  /// the reader side. Callers hold off concurrent base mutation for the
  /// duration of the call (the Engine's reader lock does this).
  std::shared_ptr<const graph::GraphStats> BaseStats() const;

  /// Times the base's statistics were recomputed since construction.
  size_t base_stats_refreshes() const {
    return base_stats_refreshes_.load(std::memory_order_relaxed);
  }

  /// Monotonic counter: strictly increases on every catalog mutation or
  /// announced base-graph change. Starts at 1.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Number of registered entries, in any state.
  size_t size() const;
  bool empty() const { return size() == 0; }
  /// Number of `kReady` (planner-visible) entries.
  size_t num_ready() const;
  /// Number of `kQuarantined` (out-of-service) entries.
  size_t num_quarantined() const;
  /// Total quarantine transitions since construction (monotonic — a
  /// reclaimed-and-requarantined view counts each time).
  size_t quarantine_events() const {
    return quarantine_events_.load(std::memory_order_relaxed);
  }

  /// Entry lookup; null when absent. Returns entries in any state — the
  /// planner must skip non-`kReady` ones. See class comment for pointer
  /// validity rules.
  const CatalogEntry* Find(const std::string& name) const;
  const CatalogEntry* Get(ViewHandle handle) const;

  /// Snapshot of all registered entries (any state), in registration
  /// order.
  std::vector<const CatalogEntry*> Entries() const;

  /// \name CSR topology snapshots for the query hot path.
  ///
  /// One frozen `CsrGraph` per materialized view *and* the base graph,
  /// built lazily on first request and cached keyed by
  /// `(handle, generation)`. Because every catalog mutation and every
  /// announced base-graph change bumps the generation, invalidation is
  /// implicit: after `ApplyBaseDelta` / `MutateBaseGraph` /
  /// `NoteBaseGraphChanged` the next request simply produces a fresh
  /// snapshot. The returned `shared_ptr` owns a self-contained copy of
  /// the topology, so a reader may keep using a snapshot even after it
  /// has been superseded.
  ///
  /// A generation miss does **not** imply an O(|V| + |E|) rebuild: each
  /// handle keeps its last published snapshot plus a bounded *delta
  /// trail* of what changed since (`ApplyBaseDelta` records it), and the
  /// next request patches the old snapshot forward in O(|delta|) via
  /// `CsrGraph::PatchedFrom`. The patch path falls back to a full
  /// rebuild when the trail was truncated or bypassed (out-of-band
  /// mutation, view rematerialization, generation moved without trail
  /// coverage) or when the dirty fraction exceeds
  /// `CsrPatchOptions::max_dirty_fraction`. Telemetry splits the two:
  /// `snapshot_builds() == snapshot_patches() + snapshot_full_builds()`.
  ///
  /// Callers must hold off concurrent mutation of the underlying graphs
  /// for the duration of the call (the Engine's reader lock does this);
  /// concurrent readers are safe. Builds happen outside the cache lock,
  /// so a miss never stalls hits on other handles; concurrent missers
  /// on the same handle may build duplicate (identical) snapshots, and
  /// the first to publish wins.
  /// @{

  /// Snapshot of the base graph.
  std::shared_ptr<const graph::CsrGraph> BaseSnapshot() const;

  /// Snapshot of the view `handle`'s graph; null when the handle is not
  /// registered.
  std::shared_ptr<const graph::CsrGraph> SnapshotFor(ViewHandle handle) const;

  /// \name Snapshot-cache telemetry (for tests and operations).
  /// Snapshots produced on a cache miss, by either path.
  size_t snapshot_builds() const {
    return snapshot_builds_.load(std::memory_order_relaxed);
  }
  size_t snapshot_hits() const {
    return snapshot_hits_.load(std::memory_order_relaxed);
  }
  /// Snapshots derived from the previous snapshot in O(|delta|).
  size_t snapshot_patches() const {
    return snapshot_patches_.load(std::memory_order_relaxed);
  }
  /// Snapshots built from scratch (first build, truncated trail,
  /// rematerialized view, or dirty-fraction fallback).
  size_t snapshot_full_builds() const {
    return snapshot_full_builds_.load(std::memory_order_relaxed);
  }
  /// @}

  const graph::CsrPatchOptions& patch_options() const {
    return patch_options_;
  }

  /// \name Segment-level patch telemetry.
  ///
  /// Totals over every snapshot production on either path (the
  /// single-slot `PatchedFrom` path and, when sharded, the
  /// `SegmentStore` refreshes): immutable CSR segments produced anew
  /// vs shared by refcount with the previous generation, and the bytes
  /// the produced ones cost. `patch_bytes_copied` growing with the
  /// delta size while `patch_segments_shared` tracks |V|/segment_size
  /// is the O(delta) patching claim, measurable in production.
  /// @{
  uint64_t patch_segments_copied() const {
    uint64_t v = patch_segments_copied_.load(std::memory_order_relaxed);
    if (store_ != nullptr) v += store_->segments_copied();
    return v;
  }
  uint64_t patch_segments_shared() const {
    uint64_t v = patch_segments_shared_.load(std::memory_order_relaxed);
    if (store_ != nullptr) v += store_->segments_shared();
    return v;
  }
  uint64_t patch_bytes_copied() const {
    uint64_t v = patch_bytes_copied_.load(std::memory_order_relaxed);
    if (store_ != nullptr) v += store_->bytes_copied();
    return v;
  }
  /// @}

  /// Configured shard count (1 = unsharded).
  size_t shards() const { return store_ != nullptr ? store_->shards() : 1; }

  /// Per-shard writer-lock acquisitions (empty when unsharded).
  std::vector<uint64_t> shard_writer_acquisitions() const {
    return store_ != nullptr ? store_->writer_acquisitions()
                             : std::vector<uint64_t>{};
  }

  /// Installs the fault-injection hook for the sites the catalog owns
  /// (`kSnapshotBuild`, `kMaintainerApply`). The engine wires its
  /// `EngineOptions::fault_hooks` through here at construction; call
  /// before concurrent use begins.
  void SetFaultHook(FaultHook hook) { fault_hooks_.hook = std::move(hook); }

  /// Snapshot productions that failed via an injected `kSnapshotBuild`
  /// fault (each one degraded that query to the legacy backend).
  size_t snapshot_build_failures() const {
    return snapshot_build_failures_.load(std::memory_order_relaxed);
  }

  /// True when the base graph's snapshot slot would actually retain a
  /// delta footprint (a patchable snapshot exists). Lets `ApplyDelta`
  /// skip materializing the footprint during write-only phases where no
  /// log would keep it. Passing a null footprint to `ApplyBaseDelta`
  /// conservatively invalidates the base slot instead of recording.
  bool WantsBaseDeltaTrail() const;

 private:
  /// Snapshot state for one handle (kInvalidViewHandle = the base
  /// graph): the last published snapshot plus the delta trail that
  /// carries it forward to `head_generation`. Guarded by `snapshot_mu_`.
  ///
  /// Invariant while `patchable`: the handle's graph changed between
  /// `csr_generation` and `head_generation` only by (a) appending
  /// vertices/edges — discovered from id-space growth, no log needed —
  /// and (b) tombstoning exactly the edges recorded on the trail.
  /// Mutations the trail cannot describe (rematerialization, arbitrary
  /// `MutateBaseGraph`, maintenance failures) clear `patchable`, which
  /// makes the next snapshot request a full rebuild.
  struct SnapshotSlot {
    std::shared_ptr<const graph::CsrGraph> csr;
    uint64_t csr_generation = 0;
    bool patchable = false;
    uint64_t head_generation = 0;
    /// Removal batches recorded since `csr_generation` (bounded; see
    /// kMaxTrailBatches/kMaxTrailRemovals in catalog.cc).
    size_t trail_batches = 0;
    size_t trail_removals = 0;
    /// Base-graph slot: the applied batches' footprints, shared with
    /// the engine's pending-delta log (one allocation per batch,
    /// repo-wide; insert payloads are never pinned).
    std::vector<graph::DeltaFootprintPtr> base_trail;
    /// View slots: flattened removed view-edge ids (view inserts are
    /// discovered from id-space growth and need no log).
    std::vector<graph::EdgeId> view_removals;
  };

  std::shared_ptr<const graph::CsrGraph> SnapshotOf(
      ViewHandle handle, const graph::PropertyGraph& g) const;

  /// Bumps the generation and advances every patchable slot's trail
  /// head: a bump whose graph changes are recorded on (or irrelevant
  /// to) a slot's trail keeps that slot patchable across it.
  void BumpGeneration();

  /// Records one applied base batch on the base slot's trail (or cuts
  /// the trail when the batch alone exceeds the patch budget).
  void NoteBaseDelta(const graph::DeltaFootprintPtr& footprint);

  /// Records the view edges `handle`'s maintainer tombstoned for one
  /// batch on that view's trail.
  void NoteViewDelta(ViewHandle handle,
                     std::vector<graph::EdgeId> removed_view_edges);

  /// Marks `handle`'s graph as changed in a way the trail cannot
  /// describe: drops the cached snapshot and trail, forcing the next
  /// request onto the full-rebuild path.
  void InvalidateSnapshot(ViewHandle handle);

  /// The base graph's id-space and live counts. Any topology change
  /// moves at least one of them: inserts grow the id space, removals
  /// shrink a live count.
  struct BaseShape {
    size_t vertices = 0;
    size_t edges = 0;
    size_t live_vertices = 0;
    size_t live_edges = 0;
    bool operator==(const BaseShape&) const = default;
  };
  BaseShape ShapeOfBase() const;

  /// Records that every base change up to now was announced, and
  /// recomputes the base's statistics when `force` is set or they
  /// drifted past the rule. Callers hold `mu_` exclusively.
  void NoteBaseShapeLocked(bool force);

  /// Quarantine with `mu_` already held exclusively.
  void QuarantineLocked(CatalogEntry* entry, Status reason);

  const graph::PropertyGraph* base_;
  graph::CsrPatchOptions patch_options_;
  mutable std::shared_mutex mu_;
  /// unique_ptr: entries are pointer-stable and individually droppable.
  std::vector<std::unique_ptr<CatalogEntry>> entries_;
  ViewHandle next_handle_ = 1;
  std::atomic<uint64_t> generation_{1};
  /// Base statistics and the base shape at the last announced change.
  /// Guarded by `mu_`.
  std::shared_ptr<const graph::GraphStats> base_stats_;
  BaseShape announced_base_shape_;
  std::atomic<size_t> base_stats_refreshes_{0};
  /// Snapshot cache. Guarded by its own mutex: snapshot builds happen on
  /// the reader path (under the Engine's shared lock), where `mu_` may
  /// be held shared by many threads at once.
  mutable std::mutex snapshot_mu_;
  mutable std::unordered_map<ViewHandle, SnapshotSlot> snapshots_;
  mutable std::atomic<size_t> snapshot_builds_{0};
  mutable std::atomic<size_t> snapshot_hits_{0};
  mutable std::atomic<size_t> snapshot_patches_{0};
  mutable std::atomic<size_t> snapshot_full_builds_{0};
  mutable std::atomic<size_t> snapshot_build_failures_{0};
  mutable std::atomic<uint64_t> patch_segments_copied_{0};
  mutable std::atomic<uint64_t> patch_segments_shared_{0};
  mutable std::atomic<uint64_t> patch_bytes_copied_{0};
  /// Per-shard base-snapshot pipeline; null when `shards == 1`.
  std::unique_ptr<SegmentStore> store_;
  std::atomic<size_t> quarantine_events_{0};
  /// Fault sites owned by the catalog; no-op unless a hook is installed.
  FaultHooks fault_hooks_;
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_CATALOG_H_
