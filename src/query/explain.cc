#include "query/explain.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "query/fused_runner.h"

namespace kaskade::query {

namespace {

void ExplainMatch(const MatchQuery& match, const graph::PropertyGraph& graph,
                  const graph::GraphStats& stats,
                  const CostModelOptions& options, const std::string& indent,
                  std::string* out) {
  *out += indent + "MATCH\n";
  if (!match.nodes.empty()) {
    // Name the seed the CSR runner actually takes: the plan's first node
    // and where its candidates come from. A pattern that does not
    // resolve falls back to a scan of the first node.
    Result<SeedSource> source = PlannedSeedSource(graph, match);
    if (!source.ok()) {
      source = SeedSource{match.nodes.front().name, match.nodes.front().type,
                          ""};
    }
    *out += indent + "  seed (" + source->node;
    if (!source->type.empty()) *out += ":" + source->type;
    *out += ")  ";
    if (!source->index_key.empty()) {
      *out += "index " + source->type + "." + source->index_key + "\n";
    } else {
      graph::VertexTypeId type =
          source->type.empty() ? graph::kInvalidTypeId
                               : graph.schema().FindVertexType(source->type);
      size_t cardinality = type == graph::kInvalidTypeId
                               ? graph.NumLiveVertices()
                               : graph.NumVerticesOfType(type);
      *out += "scan " + (source->type.empty() ? "all" : source->type) +
              ", " + FormatWithCommas(static_cast<long long>(cardinality)) +
              " vertices\n";
    }
  }
  for (const EdgePattern& edge : match.edges) {
    *out += indent + "  expand -[";
    if (!edge.type.empty()) *out += ":" + edge.type;
    if (edge.variable_length) {
      *out += "*" + std::to_string(edge.min_hops) + ".." +
              std::to_string(edge.max_hops);
    }
    *out += "]-> (" + edge.to;
    const NodePattern* to = match.FindNode(edge.to);
    if (to != nullptr && !to->type.empty()) *out += ":" + to->type;
    *out += ")  ";
    if (edge.variable_length) {
      *out += std::to_string(edge.max_hops) + " bounded graph sweeps";
    } else {
      const NodePattern* from = match.FindNode(edge.from);
      graph::VertexTypeId from_type =
          (from != nullptr && !from->type.empty())
              ? graph.schema().FindVertexType(from->type)
              : graph::kInvalidTypeId;
      const graph::TypeDegreeSummary& summary =
          from_type == graph::kInvalidTypeId ? stats.overall()
                                             : stats.ForType(from_type);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "x%.1f",
                    std::max(summary.Percentile(options.degree_alpha),
                             options.min_expansion));
      *out += buf;
    }
    *out += "\n";
  }
  if (!match.where.empty()) {
    *out += indent + "  filter: " + std::to_string(match.where.size()) +
            " condition(s)\n";
  }
}

void ExplainNode(const Query& query, const graph::PropertyGraph& graph,
                 const graph::GraphStats& stats,
                 const CostModelOptions& options, const std::string& indent,
                 std::string* out) {
  if (query.is_match()) {
    ExplainMatch(query.match(), graph, stats, options, indent, out);
    return;
  }
  const SelectQuery& select = query.select();
  *out += indent + "SELECT [" + std::to_string(select.items.size()) +
          " item(s)";
  if (!select.group_by.empty()) {
    *out += ", GROUP BY ";
    for (size_t i = 0; i < select.group_by.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += select.group_by[i].ToString();
    }
  }
  if (!select.where.empty()) {
    *out += ", WHERE " + std::to_string(select.where.size()) +
            " condition(s)";
  }
  *out += "]\n";
  ExplainNode(*select.from, graph, stats, options, indent + "  ", out);
}

}  // namespace

std::string ExplainQuery(const Query& query, const graph::PropertyGraph& graph,
                         const graph::GraphStats& stats,
                         const CostModelOptions& options) {
  std::string out;
  ExplainNode(query, graph, stats, options, "", &out);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "estimated cost: %.3g\n",
                EstimateEvalCost(query, graph, stats, options));
  out += buf;
  return out;
}

}  // namespace kaskade::query
