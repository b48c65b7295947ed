/// \file executor.h
/// \brief Evaluates hybrid queries against a `PropertyGraph`.
///
/// This plays the role of Neo4j's execution engine in the paper's stack
/// (Fig. 2): MATCH patterns run as a backtracking join over the adjacency
/// lists, variable-length paths expand with a level-synchronized BFS, and
/// the relational shell evaluates filters, grouping and aggregates over
/// the match rows.
///
/// MATCH projection has *set semantics*: the executor returns distinct
/// rows of the returned variables. This is the semantics under which the
/// paper's raw-vs-connector rewrites return identical results (§VII-C
/// "These rewritings are equivalent and produce the same results").
///
/// Two MATCH backends share one resolver and planner:
///
/// - The *legacy* backtracker walks `PropertyGraph`'s per-vertex edge-id
///   vectors with an `EdgeRecord` lookup per edge. It is the semantic
///   oracle the differential tests trust, the baseline the latency bench
///   measures against, and the path taken without a snapshot.
/// - The *CSR* runner (selected by constructing the executor with a
///   `CsrGraph` snapshot) is `ExecuteFusedMatch` (query/fused_runner.h)
///   run as a group of one member: it expands over type-partitioned
///   contiguous neighbor slices with allocation-free inner loops and
///   returns exactly the same row set as the legacy backtracker (row
///   *order* may differ, as set semantics permit). Its seed partitioner
///   serves `ExecutorOptions::parallelism` and `shards` alike; every
///   partitioned run is byte-identical to the sequential one, which
///   therefore remains the oracle.

#ifndef KASKADE_QUERY_EXECUTOR_H_
#define KASKADE_QUERY_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/table.h"

namespace kaskade::query {

/// \brief Cross-query fusion knobs for the engine's batch path: queries
/// in one `ExecuteBatch` whose plans share a canonical shape (identical
/// MATCH topology, edge types, plan order, and WHERE structure — only
/// predicate constants may differ) are run as one shared CSR traversal
/// by `ExecuteFusedMatch` (query/fused_runner.h) instead of N
/// independent ones. Fused output is byte-identical to per-query
/// sequential execution.
struct FusionOptions {
  /// Master switch; off reverts every batch member to the solo path.
  /// On, every shape group of two or more members fuses.
  bool enabled = true;
};

/// \brief Executor resource limits and execution knobs.
struct ExecutorOptions {
  /// Abort with ResourceExhausted when a MATCH produces more distinct
  /// rows than this.
  size_t max_rows = 50'000'000;
  /// Worker threads for the top-level MATCH backtracking (CSR backend
  /// only, solo queries and fused groups alike). 1 = sequential — the
  /// differential-test oracle; 0 = hardware concurrency. Above 1 the
  /// top-level seeds are split into contiguous blocks that workers
  /// claim; the per-seed row spans merge back in seed order with global
  /// first-occurrence dedup, so parallel output is identical to
  /// sequential output, including row order.
  size_t parallelism = 1;
  /// Engine shard count (`EngineOptions::shards`). When > 1 the CSR
  /// backend splits the top-level seeds by `graph::ShardOfVertex`
  /// instead — one piece per shard, claimed by the `parallelism`
  /// workers — with the same seed-order merge, so the table is
  /// byte-identical to the unsharded run, row order included.
  size_t shards = 1;
  /// Cross-query fusion on the engine's batch path.
  FusionOptions fusion;
  /// Cooperative evaluation deadline. `time_point{}` (the default)
  /// disables it. MATCH backends test the clock roughly once per
  /// `internal::CancelGuard::kCheckInterval` traversal expansions —
  /// including inside variable-length BFS levels — and fail with
  /// `kDeadlineExceeded`; parallel workers and fused-group members
  /// cancel their siblings promptly and never publish a torn table. A
  /// query that finishes in time is byte-identical to one run with no
  /// deadline. The relational SELECT shell is only covered by the
  /// entry check and its MATCH input; its own loops are bounded by the
  /// (already row-capped) match output.
  std::chrono::steady_clock::time_point deadline{};
};

/// \brief Measured timing of one execution, filled in by the executor so
/// callers (the engine's workload tracker) see the evaluation cost, not
/// their own lock-acquisition overhead.
struct ExecutionTiming {
  double elapsed_us = 0;  ///< Wall-clock microseconds of evaluation.
  /// Traversal expansions performed by the CSR MATCH backend: candidate
  /// vertices enumerated at seed and expansion steps plus filter-edge
  /// probes. The unit the fusion telemetry compares — a fused group
  /// pays these once where N solo runs pay them N times. 0 for the
  /// legacy (non-CSR) backend and for SELECT shells.
  uint64_t expansions = 0;
  /// Deadline/cancellation clock tests actually performed (epoch-counted,
  /// so orders of magnitude below `expansions`). 0 when no deadline and
  /// no sibling-cancel flag was installed.
  uint64_t deadline_checks = 0;
  /// The CSR MATCH backend took its top-level seeds from the equality
  /// seed index (`FusedGroupStats::index_seeded`) instead of a scan.
  bool index_seeded = false;
};

/// \brief Executes parsed or textual queries against one graph.
class QueryExecutor {
 public:
  explicit QueryExecutor(const graph::PropertyGraph* graph,
                         ExecutorOptions options = {})
      : graph_(graph), options_(options) {}

  /// CSR-backed executor: `csr` must be a topology snapshot of `*graph`
  /// (vertex ids shared). MATCH expansion then runs over the snapshot's
  /// typed slices; schema and property access still go to `graph`.
  QueryExecutor(const graph::PropertyGraph* graph, const graph::CsrGraph* csr,
                ExecutorOptions options = {})
      : graph_(graph), csr_(csr), options_(options) {}

  /// Runs a parsed query. When `timing` is non-null it receives the
  /// measured evaluation wall clock (set on success and on failure).
  Result<Table> Execute(const Query& query, ExecutionTiming* timing = nullptr);

  /// Runs a parsed bare MATCH (e.g. a plan's cached AST), exactly as
  /// `Execute` runs a `Query` holding it.
  Result<Table> Execute(const MatchQuery& match,
                        ExecutionTiming* timing = nullptr);

  /// Parses and runs `text`; `timing` covers evaluation only, not the
  /// parse.
  Result<Table> ExecuteText(const std::string& text,
                            ExecutionTiming* timing = nullptr);

 private:
  /// Times one evaluation and applies the entry deadline check; exactly
  /// one of `match` and `select` is non-null.
  Result<Table> Evaluate(const MatchQuery* match, const SelectQuery* select,
                         ExecutionTiming* timing);
  /// `stats` accumulates expansions + deadline checks (never null).
  Result<Table> ExecuteMatch(const MatchQuery& match, ExecutionTiming* stats);
  Result<Table> ExecuteSelect(const SelectQuery& select,
                              ExecutionTiming* stats);

  const graph::PropertyGraph* graph_;
  const graph::CsrGraph* csr_ = nullptr;
  ExecutorOptions options_;
};

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_EXECUTOR_H_
