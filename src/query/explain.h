/// \file explain.h
/// \brief Human-readable plan explanations (EXPLAIN) for hybrid queries.
///
/// Renders the evaluation strategy the executor will follow — seed scan,
/// expansion steps, relational layers — annotated with the cost model's
/// estimates, so users can see *why* the rewriter preferred a plan
/// (mirrors the role of Neo4j's EXPLAIN in the paper's workflow).

#ifndef KASKADE_QUERY_EXPLAIN_H_
#define KASKADE_QUERY_EXPLAIN_H_

#include <string>

#include "graph/property_graph.h"
#include "graph/stats.h"
#include "query/ast.h"
#include "query/cost.h"

namespace kaskade::query {

/// Renders a multi-line plan for `query` against `graph`. The seed line
/// names the CSR runner's first plan node and its source: `index
/// Person.handle` when it probes the equality seed index, else `scan
/// <type>` (or `scan all`) with the candidate count. E.g.:
///
/// ```
/// SELECT [2 items, GROUP BY A.pipelineName]          ~1.1x input
///   MATCH
///     seed (q_j1:Job)  scan Job, 2,000 vertices
///     expand -[:WRITES_TO]-> (q_f1:File)              x2.0
///     expand -[*0..8]-> (q_f2:File)                   8 graph sweeps
///     expand -[:IS_READ_BY]-> (q_j2:Job)              x1.0
///   estimated cost: 3.9e+08
/// ```
std::string ExplainQuery(const Query& query, const graph::PropertyGraph& graph,
                         const graph::GraphStats& stats,
                         const CostModelOptions& options = {});

}  // namespace kaskade::query

#endif  // KASKADE_QUERY_EXPLAIN_H_
