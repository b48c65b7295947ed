/// \file match_common.h
/// \brief Internal MATCH machinery shared by the legacy backtracker
/// (`query/executor.cc`) and the CSR runner (`query/fused_runner.cc`):
/// pattern resolution, plan ordering, the
/// per-candidate acceptance check, the allocation-free distinct-row
/// sink, and the CSR traversal primitives (typed-slice gathers,
/// variable-length BFS, filter-edge probes) with their epoch-stamped
/// visited arrays.
///
/// Everything here is deterministic in a way the CSR runner relies on:
/// `PlanMatchOrder` depends only on the pattern structure and graph
/// statistics (never on predicate constants), gathers enumerate
/// candidates in first-occurrence order of the typed CSR slice, and
/// `RowSet` preserves insertion order — so every member of a fused
/// group sees the candidates, and emits its rows, in the order of its
/// own solo walk.
///
/// Top-level seeds need not be a type scan: the CSR runner takes a
/// typed first node's candidates from the graph's equality
/// index (`PropertyGraph::ProbeStringEquality`) when it carries a
/// string `=` conjunct. The index returns ids in ascending order, the
/// order `VerticesOfType` scans in, and drops only vertices the
/// conjunct rejects; the per-candidate acceptance check still runs on
/// every seed, so hash collisions cannot leak rows and the walk emits
/// exactly the scan's rows in the scan's order. The legacy backtracker
/// always scans.
///
/// This header is internal to `src/query/`; it is not part of the
/// engine-facing API.

#ifndef KASKADE_QUERY_MATCH_COMMON_H_
#define KASKADE_QUERY_MATCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/table.h"

namespace kaskade::query::internal {

/// \brief Cooperative deadline / sibling-cancellation guard shared by
/// both MATCH backends (the legacy backtracker, and the CSR runner and
/// its partition workers).
///
/// Reading the clock per expansion would dominate the traversal inner
/// loops, so the guard is *epoch-counted*: `Charge(work)` accumulates
/// traversal progress and only tests the clock (and the shared cancel
/// flag) once at least `kCheckInterval` units have accrued since the
/// last test. A parallel worker whose deadline fires broadcasts through
/// the shared flag so every sibling stops within one check interval.
///
/// The guard never alters enumeration order — it only decides *when* to
/// unwind — so a run that finishes before its deadline is byte-identical
/// to a run with no deadline at all.
class CancelGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Work units between clock tests. Expansion counting charges one
  /// unit per candidate, so this bounds both the clock-read overhead
  /// (<1% of traversal work) and the cancellation latency.
  static constexpr uint64_t kCheckInterval = 256;

  CancelGuard() = default;
  /// `deadline` of time_point{} means "no deadline"; `cancel` may be
  /// null (sequential execution) or shared between sibling workers.
  CancelGuard(Clock::time_point deadline, std::atomic<bool>* cancel)
      : deadline_(deadline),
        has_deadline_(deadline != Clock::time_point{}),
        cancel_(cancel) {}

  bool active() const { return has_deadline_ || cancel_ != nullptr; }

  /// Charges `work` traversal units; tests the stop conditions once per
  /// `kCheckInterval` accrued units. Returns true when the caller must
  /// unwind.
  bool Charge(uint64_t work) {
    if (stopped_) return true;
    if (!active()) return false;
    pending_ += work;
    if (pending_ < kCheckInterval) return false;
    pending_ = 0;
    return CheckNow();
  }

  /// Unconditional stop-condition test (coarse boundaries: query entry,
  /// post-BFS). Cheap when inactive.
  bool CheckNow() {
    if (stopped_) return true;
    if (!active()) return false;
    ++checks_;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      stopped_ = true;
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      stopped_ = true;
      // Broadcast so sibling workers stop promptly too.
      if (cancel_ != nullptr) cancel_->store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool stopped() const { return stopped_; }
  /// Number of actual clock/flag tests performed (telemetry).
  uint64_t checks() const { return checks_; }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool>* cancel_ = nullptr;
  uint64_t pending_ = 0;
  uint64_t checks_ = 0;
  bool stopped_ = false;
};

inline Status DeadlineExceededError() {
  return Status::DeadlineExceeded("query deadline exceeded");
}

/// Resolved pattern: names mapped to dense slots, types to ids.
struct ResolvedPattern {
  struct Node {
    std::string name;
    graph::VertexTypeId type = graph::kInvalidTypeId;  // kInvalidTypeId = any
    bool has_type_constraint = false;
  };
  struct Edge {
    int from = -1;
    int to = -1;
    graph::EdgeTypeId type = graph::kInvalidTypeId;  // kInvalidTypeId = any
    bool variable_length = false;
    int min_hops = 1;
    int max_hops = 1;
    /// Expansion across this edge needs no per-candidate NodeAccepts:
    /// the free endpoint carries no WHERE conditions and its type
    /// constraint (if any) is already implied — by the edge type's
    /// schema (domain, range) declaration for fixed typed edges, which
    /// `AddEdge` validates on every insert. Forward = `to` free,
    /// backward = `from` free. Used by the CSR backend's hot loop.
    bool trivial_forward = false;
    bool trivial_backward = false;
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;
  /// Conditions indexed by the node slot they constrain.
  std::vector<std::vector<Condition>> node_conditions;

  int SlotOf(const std::string& name) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// One step of the evaluation plan.
struct Step {
  enum Kind { kSeed, kEdge } kind;
  int node_slot;
  int edge_index;
};

/// Everything a backend needs to evaluate one MATCH: the resolved
/// pattern, the step plan, and the projection.
struct ResolvedMatch {
  ResolvedPattern pattern;
  std::vector<Step> plan;
  std::vector<int> return_slots;
  std::vector<Column> columns;
};

Status ResolvePattern(const graph::PropertyGraph& graph,
                      const MatchQuery& match, ResolvedPattern* pattern);

/// Chooses an evaluation order: seed at the node with the smallest
/// candidate count, then repeatedly take an edge with a bound endpoint
/// (connected expansion); falls back to new seeds for disconnected
/// components. Cycle-closing edges come last, as filters. Depends only
/// on the pattern structure and the graph's type statistics — never on
/// predicate constants — so same-shape queries share one plan.
std::vector<Step> PlanMatchOrder(const graph::PropertyGraph& graph,
                                 const ResolvedPattern& pattern);

Result<ResolvedMatch> ResolveMatch(const graph::PropertyGraph& graph,
                                   const MatchQuery& match);

/// Type constraint + WHERE conditions for binding `v` to `slot`.
bool NodeAccepts(const graph::PropertyGraph& graph,
                 const ResolvedPattern& pattern, size_t slot,
                 graph::VertexId v);

/// \brief Distinct-row sink: flat integer row storage plus an
/// open-addressed index set keyed by row contents. No string keys, no
/// per-row allocation (amortized). Rows are kept in insertion order.
class RowSet {
 public:
  explicit RowSet(size_t width) : width_(width == 0 ? 1 : width) {}

  size_t size() const { return num_rows_; }
  const graph::VertexId* row(size_t i) const {
    return data_.data() + i * width_;
  }

  /// Inserts a row of `width` vertex ids; returns true when it is new.
  bool Insert(const graph::VertexId* row) {
    if ((num_rows_ + 1) * 10 >= slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = HashRow(row) & mask;
    while (slots_[i] != 0) {
      if (std::memcmp(this->row(slots_[i] - 1), row,
                      width_ * sizeof(graph::VertexId)) == 0) {
        return false;
      }
      i = (i + 1) & mask;
    }
    data_.insert(data_.end(), row, row + width_);
    ++num_rows_;
    slots_[i] = num_rows_;  // row index + 1; 0 marks an empty slot
    return true;
  }

 private:
  uint64_t HashRow(const graph::VertexId* row) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < width_; ++i) {
      uint64_t x = row[i];
      x *= 0x9e3779b97f4a7c15ULL;
      x ^= x >> 29;
      h = (h ^ x) * 0x100000001b3ULL;
    }
    return h ^ (h >> 32);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<uint64_t> bigger(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t r = 0; r < num_rows_; ++r) {
      size_t i = HashRow(row(r)) & mask;
      while (bigger[i] != 0) i = (i + 1) & mask;
      bigger[i] = r + 1;
    }
    slots_ = std::move(bigger);
  }

  size_t width_;
  std::vector<graph::VertexId> data_;  ///< Distinct rows, flat, in order.
  std::vector<uint64_t> slots_;        ///< Open-addressed row-index set.
  size_t num_rows_ = 0;
};

/// Per-plan-step reusable buffers: gathered candidates survive across
/// the recursion into deeper steps, so they cannot be shared between
/// steps.
struct StepScratch {
  std::vector<graph::VertexId> candidates;
  std::vector<graph::VertexId> cur;
  std::vector<graph::VertexId> next;
};

/// \brief CSR traversal primitives with epoch-stamped visited arrays:
/// distinct-neighbor gathers, variable-length frontier BFS, and
/// filter-edge probes. Owns the `mark_`/`result_mark_` arrays so inner
/// loops allocate nothing after warmup. Not thread-safe; one instance
/// per runner.
class CsrTraversal {
 public:
  explicit CsrTraversal(const graph::CsrGraph& csr) : csr_(csr) {
    mark_.assign(csr.NumVertices(), 0);
    result_mark_.assign(csr.NumVertices(), 0);
  }

  /// Installs a cancellation guard: the variable-length BFS loops charge
  /// traversal work against it and bail out early when it fires. Results
  /// are then partial — the caller must test `guard->stopped()` after
  /// any BFS call before using them. Null disables the checks.
  void set_guard(CancelGuard* guard) { guard_ = guard; }

  /// Distinct neighbors of `anchor` over edges of `type`, into `out`
  /// (first-occurrence order of the typed CSR slice).
  void GatherDistinctNeighbors(graph::VertexId anchor, graph::EdgeTypeId type,
                               bool forward, std::vector<graph::VertexId>* out);

  /// Variable-length targets as a frontier BFS over typed CSR slices:
  /// vertices at some depth in [min_hops, max_hops] from `start`, into
  /// `s->candidates`. Per-level dedup on `mark_`, whole-call result
  /// dedup on `result_mark_` — same (vertex, depth) semantics as the
  /// legacy evaluator.
  void VarLengthTargets(graph::VertexId start, graph::EdgeTypeId type,
                        int min_hops, int max_hops, bool backward,
                        StepScratch* s);

  /// True if some path start->...->end with length in [min,max] exists;
  /// stops the BFS the moment `end` enters the hop window.
  bool VarLengthConnected(graph::VertexId start, graph::VertexId end,
                          graph::EdgeTypeId type, int min_hops, int max_hops,
                          StepScratch* s);

  /// Fixed filter edge: any from->to edge of `type`? Binary-searches
  /// the smaller of the two typed slices (typed slices are sorted by
  /// neighbor id). With a type wildcard the slices are only sorted per
  /// type group, so fall back to a linear scan.
  bool HasFixedEdge(graph::VertexId from, graph::VertexId to,
                    graph::EdgeTypeId type) const;

 private:
  /// Fresh epoch for `mark_` (per-gather / per-BFS-level dedup). The
  /// array is only consulted while one gather runs, and gathers finish
  /// before the recursion descends, so one array serves every step.
  uint32_t NextMark() {
    if (++mark_epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      mark_epoch_ = 1;
    }
    return mark_epoch_;
  }

  /// Fresh epoch for `result_mark_` (whole-BFS result dedup; lives
  /// across the per-level epochs of one variable-length expansion).
  uint32_t NextResultMark() {
    if (++result_epoch_ == 0) {
      std::fill(result_mark_.begin(), result_mark_.end(), 0u);
      result_epoch_ = 1;
    }
    return result_epoch_;
  }

  const graph::CsrGraph& csr_;
  CancelGuard* guard_ = nullptr;
  std::vector<uint32_t> mark_;
  uint32_t mark_epoch_ = 0;
  std::vector<uint32_t> result_mark_;
  uint32_t result_epoch_ = 0;
};

/// The staleness tripwire the CSR runner raises when a snapshot does
/// not match its property graph (generation keying at the engine layer
/// is the real guarantee; this catches misuse).
inline bool CsrSnapshotIsStale(const graph::PropertyGraph& graph,
                               const graph::CsrGraph& csr) {
  return csr.NumVertices() != graph.NumVertices() ||
         csr.NumEdges() != graph.NumLiveEdges() ||
         csr.edge_id_space() != graph.NumEdges();
}

inline Status StaleSnapshotError() {
  return Status::Internal(
      "CSR snapshot is stale relative to its property graph");
}

}  // namespace kaskade::query::internal

#endif  // KASKADE_QUERY_MATCH_COMMON_H_
