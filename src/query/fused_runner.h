/// \file fused_runner.h
/// \brief Cross-query fusion: one shared CSR traversal for a group of
/// same-shape MATCH queries (GraFS-style fusion of concurrent graph
/// analytics, applied to Kaskade's batch path).
///
/// A *shape group* is a set of MATCH queries with identical topology,
/// node/edge types, WHERE structure (same lhs property and operator per
/// conjunct, in the same order), and RETURN items — only the predicate
/// *constants* may differ (`core/planner.h` computes the grouping key).
/// Because `PlanMatchOrder` never looks at constants, every member
/// shares one plan, one seed enumeration, and one candidate gather per
/// expansion step. The fused runner walks that shared tree exactly once,
/// carrying a per-member *alive bitmask*: binding a vertex to a slot
/// evaluates each member's constants against the (once-fetched) property
/// value and clears the bits of members the binding fails, so a member
/// that fails a constant check stops paying for deeper expansions; a
/// subtree with no alive member is pruned outright. Rows are split per
/// member at emit time.
///
/// Identity guarantee: each member's output table is byte-identical to
/// its solo sequential run — same rows, same order. A member's solo DFS
/// explores exactly the subtree where its own predicates pass; the fused
/// DFS explores the union of those subtrees in the same candidate order,
/// and member m emits precisely at the leaves where its bit survived
/// every binding — the same leaves, in the same depth-first order. The
/// differential suite (`tests/differential_test.cc`) enforces this
/// across mutation streams.
///
/// This is the only CSR MATCH walk: `QueryExecutor` runs a solo query as
/// a group of one, so a one-member group's identity with the solo run
/// holds by construction. The top-level seeds are split by one
/// partitioner — contiguous blocks for `ExecutorOptions::parallelism`,
/// `graph::ShardOfVertex` groups for `ExecutorOptions::shards`, one
/// piece otherwise — whose pieces workers claim; the per-seed row spans
/// merge back in seed order with first-occurrence dedup, so every
/// partitioned run is byte-identical to the one-piece run. When the
/// first plan step's node has a type and an `=` conjunct whose constant
/// is a string for every member, the partitioner takes its seeds from
/// `PropertyGraph::ProbeStringEquality` instead of scanning the type:
/// the sorted union of the members' probes, in the scan's (ascending
/// id) order. Every other seed — other operators or constant types,
/// untyped nodes, secondary seeds — is still a scan.

#ifndef KASKADE_QUERY_FUSED_RUNNER_H_
#define KASKADE_QUERY_FUSED_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/table.h"

namespace kaskade::query {

/// \brief What one fused group execution cost, for engine telemetry.
struct FusedGroupStats {
  /// Traversal expansions of the one shared walk (same unit as
  /// `ExecutionTiming::expansions`) — what N solo runs would each have
  /// paid separately.
  uint64_t expansions = 0;
  /// Wall clock of the whole group (microseconds).
  double elapsed_us = 0;
  /// Deadline clock tests the shared traversal performed (see
  /// `ExecutionTiming::deadline_checks`).
  uint64_t deadline_checks = 0;
  /// The top-level seeds came from the equality seed index.
  bool index_seeded = false;
};

/// \brief Where the CSR runner takes a MATCH's top-level seeds from.
struct SeedSource {
  std::string node;       ///< The first plan step's variable.
  std::string type;       ///< Its type name; empty for an untyped node.
  std::string index_key;  ///< The probed property; empty for a scan.
};

/// The seed source `ExecuteFusedMatch` uses for `match` run solo on
/// `graph` (EXPLAIN prints it). Fails as resolving `match` fails.
Result<SeedSource> PlannedSeedSource(const graph::PropertyGraph& graph,
                                     const MatchQuery& match);

/// Runs `members` — same-shape MATCH queries — as one shared traversal
/// over `csr` (a topology snapshot of `graph`) and returns one result
/// per member, in member order. Per-member failures (e.g. a member
/// exceeding `options.max_rows`) are per-slot errors and do not abort
/// the other members; group-level failures (stale snapshot, resolution
/// errors — shape-determined, so every solo run would hit them too)
/// fill every slot with the same error. When `options.deadline` fires
/// mid-traversal the shared walk stops at the next check and every
/// member that has not already produced a complete result fails with
/// `kDeadlineExceeded` — a partial table is never returned; a member's
/// own error (the row limit) wins over the deadline. With
/// `options.parallelism` or `options.shards` above 1 the walk is split
/// across up to `parallelism` threads, the calling thread included.
std::vector<Result<Table>> ExecuteFusedMatch(
    const graph::PropertyGraph& graph, const graph::CsrGraph& csr,
    const std::vector<const MatchQuery*>& members,
    const ExecutorOptions& options, FusedGroupStats* stats = nullptr);

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_FUSED_RUNNER_H_
