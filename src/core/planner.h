/// \file planner.h
/// \brief `Planner`: plan enumeration and costing (the "query rewriter"
/// box of Fig. 2, §V-C), with a sharded LRU plan cache.
///
/// For a query, the planner considers the raw graph plus one single-view
/// rewriting per catalog entry (the paper's single-view-per-rewrite
/// restriction) and picks the cheapest by estimated evaluation cost.
///
/// Costing reads statistics; it never computes them. The `ViewCatalog`
/// owns the base graph's statistics and every view's, and refreshes
/// both under one drift rule (catalog.h): computed when the graph
/// enters the catalog, recomputed once live vertex or edge counts drift
/// more than 10%, and always after an announced out-of-band base
/// change. A plan-cache miss therefore costs parsing plus rewriting,
/// not an O(|V| log |V|) statistics pass. Only a base graph mutated
/// without telling the catalog is costed on statistics computed for
/// that one call.
///
/// Plan choice is cached per `(query text, catalog generation)` — the
/// paper amortizes constraint extraction and view inference over
/// repeated runs of the same query (§VII-A). Keying by the catalog's
/// monotonic generation makes invalidation implicit: after any catalog
/// or base-graph change the generation moves on and stale entries simply
/// never match again (they age out of the LRU). The cache is sharded and
/// mutex-striped so concurrent executors contend only per shard, not on
/// one global lock.

#ifndef KASKADE_CORE_PLANNER_H_
#define KASKADE_CORE_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/catalog.h"
#include "graph/property_graph.h"
#include "query/ast.h"
#include "query/cost.h"

namespace kaskade::core {

/// \brief A chosen execution plan for one query.
struct Plan {
  std::string view_name;       ///< Empty = run on the raw graph.
  std::string executed_query;  ///< Rendered (possibly rewritten) text.
  /// Canonical (parsed-and-rendered) text of the *original* query — the
  /// workload tracker's aggregation key, shared by the textual and
  /// pre-parsed Execute overloads.
  std::string canonical_query;
  double estimated_cost = 0;
  /// Catalog generation the plan (and its cache entry) was computed
  /// against. Execution resolves the CSR topology snapshot for this
  /// exact generation — a plan never runs over a snapshot newer or
  /// older than the catalog state it was costed on.
  uint64_t planned_generation = 0;
  /// Canonical shape of the *executed* query when it is a bare MATCH:
  /// node names/types, edge topology/types/hop bounds, WHERE structure
  /// (variable, property, operator — the constants are lifted out), and
  /// RETURN items. Two plans with equal shape keys (and equal view /
  /// generation) differ at most in predicate constants, so the batch
  /// executor can run them as one fused traversal
  /// (query/fused_runner.h). Empty = not fusable (SELECT shell, parse
  /// shapes fusion does not cover).
  std::string shape_key;
  /// Parsed AST of `executed_query` when `shape_key` is set — what solo
  /// execution and the fused runner consume, saving a re-parse per
  /// execution. Shared (and
  /// immutable) so `Plan` stays cheaply copyable through the LRU cache.
  std::shared_ptr<const query::MatchQuery> match_ast;
};

/// \brief Planner configuration.
struct PlannerOptions {
  /// Cost-proxy options forwarded to `query::EstimateEvalCost`.
  query::CostModelOptions eval_cost;
  /// Target total cached plans; 0 disables caching. Enforced per shard
  /// as ceil(capacity / shards), so the live total can exceed this by
  /// up to shards-1 entries.
  size_t cache_capacity = 4096;
  /// Mutex stripes. Bounded lock contention under concurrent execution.
  size_t cache_shards = 8;
};

/// \brief Plan enumeration + costing with a generation-keyed plan cache.
///
/// Thread-safety: all methods are safe to call concurrently; cache
/// shards carry their own mutexes and telemetry counters are atomic.
/// The caller must prevent concurrent mutation of `base` and `catalog`
/// for the duration of a call (the Engine's reader lock does this).
class Planner {
 public:
  explicit Planner(PlannerOptions options = {});

  /// Uncached plan search: considers the raw graph and every catalog
  /// entry, returns the cheapest plan. `base` is the graph `catalog` is
  /// bound to; the raw plan is costed on `catalog.BaseStats()`.
  Status ChoosePlan(const query::Query& query,
                    const graph::PropertyGraph& base,
                    const ViewCatalog& catalog, Plan* plan) const;

  /// Cached plan lookup keyed by `(query_text, catalog.generation())`;
  /// parses + plans on miss and inserts into the LRU.
  Result<Plan> PlanFor(const std::string& query_text,
                       const graph::PropertyGraph& base,
                       const ViewCatalog& catalog);

  /// Drops every cached plan (telemetry is preserved). Rarely needed —
  /// generation keying already invalidates — but useful for tests and
  /// for bounding memory after bursts.
  void ClearCache();

  /// \name Plan-cache telemetry (for tests and operations).
  /// @{
  size_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  size_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  size_t cache_size() const;
  /// @}

 private:
  struct CacheKey {
    std::string text;
    uint64_t generation = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      size_t h = std::hash<std::string>{}(key.text);
      return h ^ (std::hash<uint64_t>{}(key.generation) + 0x9e3779b97f4a7c15ULL +
                  (h << 6) + (h >> 2));
    }
  };
  /// One LRU stripe: most-recently-used at the front.
  struct Shard {
    std::mutex mu;
    std::list<std::pair<CacheKey, Plan>> lru;
    std::unordered_map<CacheKey, std::list<std::pair<CacheKey, Plan>>::iterator,
                       CacheKeyHash>
        index;
  };

  Shard& ShardFor(const CacheKey& key) const {
    return shards_[CacheKeyHash{}(key) % shards_.size()];
  }

  PlannerOptions options_;
  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
};

}  // namespace kaskade::core

#endif  // KASKADE_CORE_PLANNER_H_
