#include "query/executor.h"

#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "query/fused_runner.h"
#include "query/match_common.h"
#include "query/parser.h"

namespace kaskade::query {

using graph::EdgeId;
using graph::EdgeTypeId;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

using internal::CancelGuard;
using internal::NodeAccepts;
using internal::ResolvedMatch;
using internal::ResolvedPattern;
using internal::ResolveMatch;
using internal::Step;

namespace {

// ---------------------------------------------------------------------------
// Legacy MATCH backend: backtracking over PropertyGraph adjacency lists.
// Kept structurally intact as the semantic oracle (and the bench
// baseline) for the CSR backend (query/fused_runner.cc), and as the
// path taken when no snapshot is attached.
// ---------------------------------------------------------------------------

/// \brief Backtracking pattern matcher with set-semantics projection.
class MatchEvaluator {
 public:
  MatchEvaluator(const PropertyGraph& graph, const ExecutorOptions& options)
      : graph_(graph),
        options_(options),
        guard_(options.deadline, /*cancel=*/nullptr) {}

  Result<Table> Run(const MatchQuery& match) {
    KASKADE_ASSIGN_OR_RETURN(rm_, ResolveMatch(graph_, match));
    table_ = Table(std::move(rm_.columns));
    binding_.assign(rm_.pattern.nodes.size(), graph::kInvalidId);
    Status st = Backtrack(0);
    if (!st.ok()) return st;
    return std::move(table_);
  }

  uint64_t deadline_checks() const { return guard_.checks(); }

 private:
  /// Vertices reachable from `start` in exactly d hops for some d in
  /// [min_hops, max_hops], following edges of `type` (reverse when
  /// `backward`). Level-synchronized BFS so all reachable depths are seen
  /// (bipartite graphs reach vertices at several parities).
  std::vector<VertexId> VarLengthTargets(VertexId start, EdgeTypeId type,
                                         int min_hops, int max_hops,
                                         bool backward) {
    std::vector<VertexId> result;
    std::unordered_set<VertexId> result_set;
    if (min_hops == 0) {
      result.push_back(start);
      result_set.insert(start);
    }
    // Per-level frontiers: a vertex may recur at several depths (e.g. at
    // both parities of a bipartite lineage graph), and membership in
    // [min_hops, max_hops] is decided per depth, so dedup is on
    // (vertex, depth) rather than vertex.
    std::vector<std::vector<VertexId>> levels(max_hops + 1);
    levels[0] = {start};
    std::unordered_set<uint64_t> visited_at_level;
    visited_at_level.insert(static_cast<uint64_t>(start) << 32);
    for (int depth = 1; depth <= max_hops; ++depth) {
      std::vector<VertexId>& prev = levels[depth - 1];
      if (prev.empty()) break;
      std::vector<VertexId>& cur = levels[depth];
      for (VertexId v : prev) {
        const std::vector<EdgeId>& incident =
            backward ? graph_.InEdges(v) : graph_.OutEdges(v);
        if (guard_.Charge(incident.size() + 1)) return result;
        for (EdgeId e : incident) {
          const graph::EdgeRecord& rec = graph_.Edge(e);
          if (type != graph::kInvalidTypeId && rec.type != type) continue;
          VertexId next = backward ? rec.source : rec.target;
          uint64_t key = (static_cast<uint64_t>(next) << 32) |
                         static_cast<uint64_t>(depth);
          if (!visited_at_level.insert(key).second) continue;
          cur.push_back(next);
          if (depth >= min_hops && result_set.insert(next).second) {
            result.push_back(next);
          }
        }
      }
    }
    return result;
  }

  /// True if some path start->...->end with length in [min,max] exists.
  /// The BFS stops the moment `end` is reached inside the hop window,
  /// instead of materializing every target and scanning for `end`.
  bool VarLengthConnected(VertexId start, VertexId end, EdgeTypeId type,
                          int min_hops, int max_hops) {
    if (min_hops == 0 && start == end) return true;
    std::vector<VertexId> cur{start};
    std::vector<VertexId> next;
    std::unordered_set<VertexId> level_seen;
    for (int depth = 1; depth <= max_hops && !cur.empty(); ++depth) {
      next.clear();
      level_seen.clear();
      for (VertexId v : cur) {
        if (guard_.Charge(graph_.OutEdges(v).size() + 1)) return false;
        for (EdgeId e : graph_.OutEdges(v)) {
          const graph::EdgeRecord& rec = graph_.Edge(e);
          if (type != graph::kInvalidTypeId && rec.type != type) continue;
          VertexId n = rec.target;
          if (!level_seen.insert(n).second) continue;
          if (depth >= min_hops && n == end) return true;
          next.push_back(n);
        }
      }
      std::swap(cur, next);
    }
    return false;
  }

  Status EmitRow() {
    if (guard_.Charge(1)) return internal::DeadlineExceededError();
    Table::Row row;
    row.reserve(rm_.return_slots.size());
    std::string key;
    for (int slot : rm_.return_slots) {
      VertexId v = binding_[slot];
      row.emplace_back(static_cast<int64_t>(v));
      key += std::to_string(v);
      key += ",";
    }
    if (!distinct_rows_.insert(key).second) return Status::OK();
    if (table_.num_rows() >= options_.max_rows) {
      return Status::ResourceExhausted("MATCH row limit exceeded");
    }
    table_.AddRow(std::move(row));
    return Status::OK();
  }

  Status Backtrack(size_t step_index) {
    if (step_index == rm_.plan.size()) return EmitRow();
    const Step& step = rm_.plan[step_index];
    const ResolvedPattern& pattern = rm_.pattern;
    if (step.kind == Step::kSeed) {
      size_t slot = static_cast<size_t>(step.node_slot);
      if (binding_[slot] != graph::kInvalidId) {
        return Backtrack(step_index + 1);
      }
      const ResolvedPattern::Node& n = pattern.nodes[slot];
      if (n.has_type_constraint) {
        for (VertexId v : graph_.VerticesOfType(n.type)) {
          if (guard_.Charge(1)) return internal::DeadlineExceededError();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      } else {
        for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
          if (!graph_.IsVertexLive(v)) continue;
          if (guard_.Charge(1)) return internal::DeadlineExceededError();
          if (!NodeAccepts(graph_, pattern, slot, v)) continue;
          binding_[slot] = v;
          KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
          binding_[slot] = graph::kInvalidId;
        }
      }
      return Status::OK();
    }

    const ResolvedPattern::Edge& edge = pattern.edges[step.edge_index];
    VertexId from = binding_[edge.from];
    VertexId to = binding_[edge.to];
    bool from_bound = from != graph::kInvalidId;
    bool to_bound = to != graph::kInvalidId;

    if (from_bound && to_bound) {
      // Filter edge (closes a cycle).
      bool connected =
          edge.variable_length
              ? VarLengthConnected(from, to, edge.type, edge.min_hops,
                                   edge.max_hops)
              : [&] {
                  for (EdgeId e : graph_.OutEdges(from)) {
                    const graph::EdgeRecord& rec = graph_.Edge(e);
                    if (rec.target == to &&
                        (edge.type == graph::kInvalidTypeId ||
                         rec.type == edge.type)) {
                      return true;
                    }
                  }
                  return false;
                }();
      if (guard_.stopped()) return internal::DeadlineExceededError();
      if (connected) return Backtrack(step_index + 1);
      return Status::OK();
    }

    const bool forward = from_bound;  // else expand backward from `to`
    size_t free_slot = forward ? edge.to : edge.from;
    VertexId anchor = forward ? from : to;

    if (edge.variable_length) {
      std::vector<VertexId> targets = VarLengthTargets(
          anchor, edge.type, edge.min_hops, edge.max_hops, !forward);
      if (guard_.stopped()) return internal::DeadlineExceededError();
      for (VertexId v : targets) {
        if (!NodeAccepts(graph_, pattern, free_slot, v)) continue;
        binding_[free_slot] = v;
        KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
        binding_[free_slot] = graph::kInvalidId;
      }
      return Status::OK();
    }

    const std::vector<EdgeId>& incident =
        forward ? graph_.OutEdges(anchor) : graph_.InEdges(anchor);
    // Distinct neighbor set: parallel edges must not multiply rows under
    // set semantics, and NodeAccepts can be expensive.
    std::unordered_set<VertexId> tried;
    for (EdgeId e : incident) {
      if (guard_.Charge(1)) return internal::DeadlineExceededError();
      const graph::EdgeRecord& rec = graph_.Edge(e);
      if (edge.type != graph::kInvalidTypeId && rec.type != edge.type) continue;
      VertexId next = forward ? rec.target : rec.source;
      if (!tried.insert(next).second) continue;
      if (!NodeAccepts(graph_, pattern, free_slot, next)) continue;
      binding_[free_slot] = next;
      KASKADE_RETURN_IF_ERROR(Backtrack(step_index + 1));
      binding_[free_slot] = graph::kInvalidId;
    }
    return Status::OK();
  }

  const PropertyGraph& graph_;
  ExecutorOptions options_;
  CancelGuard guard_;
  ResolvedMatch rm_;
  std::vector<VertexId> binding_;
  std::unordered_set<std::string> distinct_rows_;
  Table table_;
};

// ---------------------------------------------------------------------------
// SELECT evaluation
// ---------------------------------------------------------------------------

/// Evaluates a column reference against an input row; vertex property
/// references go through the graph.
Result<PropertyValue> EvalRef(const PropertyGraph& graph, const Table& input,
                              const Table::Row& row, const ColumnRef& ref) {
  if (ref.property.empty()) {
    int col = input.FindColumn(ref.base);
    if (col < 0) return Status::NotFound("unknown column '" + ref.base + "'");
    return row[col];
  }
  // Try a literal "base.property" column first (propagated group key).
  int direct = input.FindColumn(ref.ToString());
  if (direct >= 0) return row[direct];
  int col = input.FindColumn(ref.base);
  if (col < 0) return Status::NotFound("unknown column '" + ref.base + "'");
  if (!input.columns()[col].is_vertex) {
    return Status::InvalidArgument("column '" + ref.base +
                                   "' is not a vertex; cannot read property '" +
                                   ref.property + "'");
  }
  VertexId v = static_cast<VertexId>(row[col].as_int());
  return graph.VertexProperty(v, ref.property);
}

bool ConditionPasses(const Condition& cond, const PropertyValue& value) {
  return EvaluateCompare(cond.op, value, cond.rhs);
}

/// Streaming aggregate accumulator.
struct Accumulator {
  AggFunc func = AggFunc::kNone;
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  int64_t isum = 0;
  std::optional<PropertyValue> extreme;

  void Add(const PropertyValue& v) {
    if (v.is_null()) return;  // SQL semantics: NULLs are skipped
    ++count;
    if (v.is_int()) {
      isum += v.as_int();
    } else {
      all_int = false;
    }
    sum += v.ToDouble();
    if (func == AggFunc::kMin) {
      if (!extreme.has_value() || v < *extreme) extreme = v;
    } else if (func == AggFunc::kMax) {
      if (!extreme.has_value() || *extreme < v) extreme = v;
    }
  }

  PropertyValue Finish() const {
    switch (func) {
      case AggFunc::kCount:
        return PropertyValue(count);
      case AggFunc::kSum:
        if (count == 0) return PropertyValue();
        return all_int ? PropertyValue(isum) : PropertyValue(sum);
      case AggFunc::kAvg:
        if (count == 0) return PropertyValue();
        return PropertyValue(sum / static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme.has_value() ? *extreme : PropertyValue();
      case AggFunc::kNone:
        break;
    }
    return PropertyValue();
  }
};

}  // namespace

Result<Table> QueryExecutor::ExecuteMatch(const MatchQuery& match,
                                          ExecutionTiming* stats) {
  if (csr_ != nullptr) {
    // A solo query is a fused group of one.
    FusedGroupStats group;
    std::vector<Result<Table>> results =
        ExecuteFusedMatch(*graph_, *csr_, {&match}, options_, &group);
    stats->expansions += group.expansions;
    stats->deadline_checks += group.deadline_checks;
    stats->index_seeded |= group.index_seeded;
    return std::move(results[0]);
  }
  MatchEvaluator evaluator(*graph_, options_);
  Result<Table> result = evaluator.Run(match);
  stats->deadline_checks += evaluator.deadline_checks();
  return result;
}

Result<Table> QueryExecutor::ExecuteSelect(const SelectQuery& select,
                                           ExecutionTiming* stats) {
  KASKADE_ASSIGN_OR_RETURN(
      Table input, select.from->is_match()
                       ? ExecuteMatch(select.from->match(), stats)
                       : ExecuteSelect(select.from->select(), stats));

  // WHERE filter.
  std::vector<const Table::Row*> rows;
  rows.reserve(input.num_rows());
  for (const Table::Row& row : input.rows()) {
    bool pass = true;
    for (const Condition& cond : select.where) {
      KASKADE_ASSIGN_OR_RETURN(PropertyValue v,
                               EvalRef(*graph_, input, row, cond.lhs));
      if (!ConditionPasses(cond, v)) {
        pass = false;
        break;
      }
    }
    if (pass) rows.push_back(&row);
  }

  bool has_aggregates = false;
  for (const SelectItem& item : select.items) {
    if (item.agg != AggFunc::kNone) has_aggregates = true;
  }

  // Output schema. A bare vertex-column reference stays a vertex column.
  std::vector<Column> out_columns;
  for (const SelectItem& item : select.items) {
    bool is_vertex = false;
    if (item.agg == AggFunc::kNone && item.ref.property.empty()) {
      int col = input.FindColumn(item.ref.base);
      is_vertex = col >= 0 && input.columns()[col].is_vertex;
    }
    out_columns.push_back(Column{item.OutputName(), is_vertex});
  }
  Table out(std::move(out_columns));

  if (!has_aggregates && select.group_by.empty()) {
    // Plain projection.
    for (const Table::Row* row : rows) {
      Table::Row out_row;
      out_row.reserve(select.items.size());
      for (const SelectItem& item : select.items) {
        KASKADE_ASSIGN_OR_RETURN(PropertyValue v,
                                 EvalRef(*graph_, input, *row, item.ref));
        out_row.push_back(std::move(v));
      }
      out.AddRow(std::move(out_row));
    }
    return out;
  }

  // Grouped aggregation (no GROUP BY + aggregates = one global group).
  struct Group {
    const Table::Row* representative;
    std::vector<Accumulator> accumulators;
  };
  std::unordered_map<std::string, Group> groups;
  std::vector<std::string> group_order;

  for (const Table::Row* row : rows) {
    std::string key;
    for (const ColumnRef& ref : select.group_by) {
      KASKADE_ASSIGN_OR_RETURN(PropertyValue v,
                               EvalRef(*graph_, input, *row, ref));
      key += v.ToString();
      key += "\x1f";
    }
    auto [it, inserted] = groups.try_emplace(key);
    Group& group = it->second;
    if (inserted) {
      group.representative = row;
      group.accumulators.resize(select.items.size());
      for (size_t i = 0; i < select.items.size(); ++i) {
        group.accumulators[i].func = select.items[i].agg;
      }
      group_order.push_back(key);
    }
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.agg == AggFunc::kNone) continue;
      if (item.star) {
        group.accumulators[i].Add(PropertyValue(static_cast<int64_t>(1)));
        continue;
      }
      KASKADE_ASSIGN_OR_RETURN(PropertyValue v,
                               EvalRef(*graph_, input, *row, item.ref));
      group.accumulators[i].Add(v);
    }
  }

  for (const std::string& key : group_order) {
    const Group& group = groups.at(key);
    Table::Row out_row;
    out_row.reserve(select.items.size());
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.agg != AggFunc::kNone) {
        out_row.push_back(group.accumulators[i].Finish());
      } else {
        KASKADE_ASSIGN_OR_RETURN(
            PropertyValue v,
            EvalRef(*graph_, input, *group.representative, item.ref));
        out_row.push_back(std::move(v));
      }
    }
    out.AddRow(std::move(out_row));
  }
  return out;
}

Result<Table> QueryExecutor::Execute(const Query& query,
                                     ExecutionTiming* timing) {
  return query.is_match() ? Evaluate(&query.match(), nullptr, timing)
                          : Evaluate(nullptr, &query.select(), timing);
}

Result<Table> QueryExecutor::Execute(const MatchQuery& match,
                                     ExecutionTiming* timing) {
  return Evaluate(&match, nullptr, timing);
}

Result<Table> QueryExecutor::Evaluate(const MatchQuery* match,
                                      const SelectQuery* select,
                                      ExecutionTiming* timing) {
  const auto started = std::chrono::steady_clock::now();
  ExecutionTiming stats;
  Result<Table> result = [&]() -> Result<Table> {
    if (options_.deadline != std::chrono::steady_clock::time_point{} &&
        started >= options_.deadline) {
      // Already past the deadline at entry (e.g. the op queued behind a
      // stall): fail deterministically without touching the graph.
      stats.deadline_checks = 1;
      return internal::DeadlineExceededError();
    }
    return match != nullptr ? ExecuteMatch(*match, &stats)
                            : ExecuteSelect(*select, &stats);
  }();
  if (timing != nullptr) {
    timing->elapsed_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - started)
            .count();
    timing->expansions = stats.expansions;
    timing->deadline_checks = stats.deadline_checks;
    timing->index_seeded = stats.index_seeded;
  }
  return result;
}

Result<Table> QueryExecutor::ExecuteText(const std::string& text,
                                         ExecutionTiming* timing) {
  KASKADE_ASSIGN_OR_RETURN(Query query, ParseQueryText(text));
  return Execute(query, timing);
}

}  // namespace kaskade::query
