#include "core/planner.h"

#include <algorithm>

#include "core/rewriter.h"
#include "graph/stats.h"
#include "query/parser.h"

namespace kaskade::core {
namespace {

/// Serializes everything of a MATCH except its predicate constants.
/// Variable names are part of the shape: the fused runner resolves every
/// member's WHERE and RETURN against one shared pattern, and output
/// column names must match each member's solo run.
std::string MatchShapeKey(const query::MatchQuery& match) {
  std::string key;
  key.reserve(64);
  for (const query::NodePattern& n : match.nodes) {
    key += "n|";
    key += n.name;
    key += '|';
    key += n.type;
    key += ';';
  }
  for (const query::EdgePattern& e : match.edges) {
    key += "e|";
    key += e.from;
    key += '|';
    key += e.to;
    key += '|';
    key += e.type;
    key += '|';
    if (e.variable_length) {
      key += 'v';
      key += std::to_string(e.min_hops);
      key += "..";
      key += std::to_string(e.max_hops);
    } else {
      key += 'f';
    }
    key += ';';
  }
  for (const query::Condition& c : match.where) {
    key += "w|";
    key += c.lhs.base;
    key += '|';
    key += c.lhs.property;
    key += '|';
    key += std::to_string(static_cast<int>(c.op));
    key += ';';
  }
  for (const query::ReturnItem& r : match.return_items) {
    key += "r|";
    key += r.variable;
    key += '|';
    key += r.alias;
    key += ';';
  }
  return key;
}

}  // namespace

Planner::Planner(PlannerOptions options)
    : options_(options),
      shards_(std::max<size_t>(1, options.cache_shards)) {
  per_shard_capacity_ =
      (options_.cache_capacity + shards_.size() - 1) / shards_.size();
}

Status Planner::ChoosePlan(const query::Query& query,
                           const graph::PropertyGraph& base,
                           const ViewCatalog& catalog, Plan* plan) const {
  // Plan 0: the raw graph, costed on the catalog's base statistics.
  const std::shared_ptr<const graph::GraphStats> base_stats =
      catalog.BaseStats();
  plan->estimated_cost =
      query::EstimateEvalCost(query, base, *base_stats, options_.eval_cost);
  plan->view_name.clear();
  plan->executed_query = query.ToString();
  plan->canonical_query = plan->executed_query;
  plan->planned_generation = catalog.generation();
  plan->shape_key.clear();
  plan->match_ast.reset();
  if (query.is_match()) {
    plan->match_ast = std::make_shared<query::MatchQuery>(query.match());
  }

  // Plans 1..n: one per *ready* materialized view (single-view
  // rewritings, §V-C). Entries mid-build or mid-drop are never planned
  // against.
  for (const CatalogEntry* entry : catalog.Entries()) {
    if (entry->state != ViewState::kReady) continue;
    Result<query::Query> rewritten =
        RewriteQueryWithView(query, entry->view.definition, base.schema());
    if (!rewritten.ok()) continue;
    double cost = query::EstimateEvalCost(*rewritten, entry->view.graph,
                                          entry->stats, options_.eval_cost);
    if (cost < plan->estimated_cost) {
      plan->estimated_cost = cost;
      plan->view_name = entry->name();
      plan->executed_query = rewritten->ToString();
      // The winning AST must be captured here: `rewritten` dies with
      // this loop iteration.
      plan->match_ast =
          rewritten->is_match()
              ? std::make_shared<query::MatchQuery>(rewritten->match())
              : nullptr;
    }
  }
  if (plan->match_ast != nullptr) {
    plan->shape_key = MatchShapeKey(*plan->match_ast);
  }
  return Status::OK();
}

Result<Plan> Planner::PlanFor(const std::string& query_text,
                              const graph::PropertyGraph& base,
                              const ViewCatalog& catalog) {
  CacheKey key{query_text, catalog.generation()};
  const bool cache_enabled = options_.cache_capacity > 0;
  if (cache_enabled) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  KASKADE_ASSIGN_OR_RETURN(query::Query query,
                           query::ParseQueryText(query_text));
  Plan plan;
  KASKADE_RETURN_IF_ERROR(ChoosePlan(query, base, catalog, &plan));

  if (cache_enabled) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(key) == shard.index.end()) {
      shard.lru.emplace_front(key, plan);
      shard.index.emplace(key, shard.lru.begin());
      while (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
      }
    }
  }
  return plan;
}

void Planner::ClearCache() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t Planner::cache_size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace kaskade::core
