#include "query/fused_runner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "query/match_common.h"

namespace kaskade::query {

using graph::CsrGraph;
using graph::EdgeSpan;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

using internal::CancelGuard;
using internal::CsrTraversal;
using internal::ResolvedMatch;
using internal::ResolvedPattern;
using internal::ResolveMatch;
using internal::RowSet;
using internal::Step;
using internal::StepScratch;

namespace {

/// One WHERE conjunct of the group with its constant lifted into a
/// per-member binding vector: the structure (lhs property, operator) is
/// shared by every member — that is what the plan shape guarantees —
/// and `rhs[m]` is member m's constant.
struct FusedCondition {
  std::string property;
  CompareOp op = CompareOp::kEq;
  std::vector<PropertyValue> rhs;
};

/// \brief The top-level seeds of one walk, collected once in sequential
/// enumeration order and split into the pieces workers claim. Piece p is
/// `seeds[bounds[p], bounds[p + 1])`, walked in order; `rank[i]` is
/// `seeds[i]`'s position in the sequential enumeration (empty when
/// `seeds` is still in that order).
struct SeedPartition {
  std::vector<VertexId> seeds;
  std::vector<uint32_t> rank;
  std::vector<size_t> bounds;

  size_t num_pieces() const { return bounds.size() - 1; }
  uint32_t RankOf(size_t i) const {
    return rank.empty() ? static_cast<uint32_t>(i) : rank[i];
  }
};

/// Splits the first plan step's candidates (always an unbound seed):
/// one group per `graph::ShardOfVertex` shard when `shards > 1`,
/// contiguous blocks when `workers > 1` (small, for load balance),
/// otherwise one piece.
SeedPartition PartitionSeeds(const PropertyGraph& graph,
                             const ResolvedMatch& rm, size_t workers,
                             size_t shards) {
  const ResolvedPattern::Node& n =
      rm.pattern.nodes[static_cast<size_t>(rm.plan[0].node_slot)];
  std::vector<VertexId> seeds;
  if (n.has_type_constraint) {
    seeds = graph.VerticesOfType(n.type);
  } else {
    seeds.reserve(graph.NumLiveVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (graph.IsVertexLive(v)) seeds.push_back(v);
    }
  }
  SeedPartition part;
  const size_t count = seeds.size();
  if (shards > 1) {
    // Stable bucketing: each shard keeps its seeds in sequential order.
    part.bounds.assign(shards + 1, 0);
    for (VertexId v : seeds) ++part.bounds[graph::ShardOfVertex(v, shards) + 1];
    for (size_t s = 0; s < shards; ++s) part.bounds[s + 1] += part.bounds[s];
    std::vector<size_t> cursor(part.bounds.begin(), part.bounds.end() - 1);
    part.seeds.resize(count);
    part.rank.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t at = cursor[graph::ShardOfVertex(seeds[i], shards)]++;
      part.seeds[at] = seeds[i];
      part.rank[at] = static_cast<uint32_t>(i);
    }
    return part;
  }
  const size_t block =
      workers > 1 ? std::max<size_t>(1, count / (workers * 8)) : count;
  part.bounds.push_back(0);
  for (size_t b = block; b < count; b += block) part.bounds.push_back(b);
  part.bounds.push_back(count);
  part.seeds = std::move(seeds);
  return part;
}

/// Rows one seed added to a member's piece row set: `rows[begin, end)`
/// of piece `piece`, emitted by the seed of sequential rank `rank`.
struct SeedSpan {
  uint32_t rank;
  uint32_t piece;
  size_t begin;
  size_t end;
};

/// What walking one piece produced, per member. A piece that stopped
/// early (deadline, peer cancellation, every member failed) is not
/// `complete` and its rows are partial.
struct PieceRows {
  bool complete = false;
  std::vector<RowSet> rows;
  /// Only non-empty spans, in the piece's seed order. Unused when the
  /// walk is one piece: its row sets are the result as they stand.
  std::vector<std::vector<SeedSpan>> spans;
};

/// \brief The CSR MATCH backtracker. It walks one plan for a group of
/// same-shape members — a solo query is a group of one — carrying a
/// per-member alive bitmask instead of evaluating one query's
/// predicates, and splits rows into per-member row sets at emit time.
/// One runner per partition worker; it walks the pieces that worker
/// claims, keeping its traversal buffers (and member failures) across
/// them.
class FusedMatchRunner {
 public:
  FusedMatchRunner(const PropertyGraph& graph, const CsrGraph& csr,
                   const ResolvedMatch& rm,
                   const std::vector<std::vector<FusedCondition>>&
                       slot_conditions,
                   size_t num_members, size_t max_rows, CancelGuard guard)
      : graph_(graph),
        csr_(csr),
        rm_(rm),
        slot_conditions_(slot_conditions),
        num_members_(num_members),
        words_((num_members + 63) / 64),
        max_rows_(max_rows),
        guard_(guard),
        traversal_(csr) {
    traversal_.set_guard(&guard_);
    binding_.assign(rm.pattern.nodes.size(), graph::kInvalidId);
    scratch_.resize(rm.plan.size());
    row_buf_.assign(std::max<size_t>(1, rm.return_slots.size()), 0);
    masks_.assign(rm.plan.size(), std::vector<uint64_t>(words_, 0));
    root_mask_.assign(words_, 0);
    for (size_t m = 0; m < num_members; ++m) {
      root_mask_[m / 64] |= uint64_t(1) << (m % 64);
    }
    failed_.assign(words_, 0);
    member_errors_.assign(num_members, Status::OK());
  }

  /// Walks piece `p` of `part` into `out`. With `record_spans`, notes
  /// per member which rows each seed added, for the seed-order merge.
  void RunPiece(const SeedPartition& part, size_t p, bool record_spans,
                PieceRows* out) {
    member_rows_.clear();
    for (size_t m = 0; m < num_members_; ++m) {
      member_rows_.emplace_back(rm_.return_slots.size());
    }
    if (record_spans) out->spans.assign(num_members_, {});
    const size_t slot = static_cast<size_t>(rm_.plan[0].node_slot);
    uint64_t* narrowed = masks_[0].data();
    const size_t end = part.bounds[p + 1];
    for (size_t i = part.bounds[p]; i < end; ++i) {
      if (all_members_failed()) break;
      ++expansions_;
      if (guard_.Charge(1)) break;
      const VertexId v = part.seeds[i];
      if (!FusedAccept(slot, v, root_mask_.data(), narrowed)) continue;
      binding_[slot] = v;
      Backtrack(1, narrowed);
      binding_[slot] = graph::kInvalidId;
      if (!record_spans) continue;
      for (size_t m = 0; m < num_members_; ++m) {
        std::vector<SeedSpan>& spans = out->spans[m];
        const size_t begin = spans.empty() ? 0 : spans.back().end;
        const size_t size = member_rows_[m].size();
        if (size != begin) {
          spans.push_back(SeedSpan{part.RankOf(i), static_cast<uint32_t>(p),
                                   begin, size});
        }
      }
    }
    out->complete = !guard_.stopped() && !all_members_failed();
    out->rows = std::move(member_rows_);
  }

  bool all_members_failed() const { return num_failed_ == num_members_; }
  const Status& error_of(size_t member) const {
    return member_errors_[member];
  }
  const CancelGuard& guard() const { return guard_; }
  uint64_t expansions() const { return expansions_; }

 private:
  bool AnyAlive(const uint64_t* mask) const {
    uint64_t any = 0;
    for (size_t w = 0; w < words_; ++w) any |= mask[w] & ~failed_[w];
    return any != 0;
  }

  void FailMember(size_t m, Status status) {
    member_errors_[m] = std::move(status);
    failed_[m / 64] |= uint64_t(1) << (m % 64);
    ++num_failed_;
  }

  /// Binding `v` to `slot`: the shared type constraint first (clears
  /// everyone at once), then each conjunct reads the property value
  /// once and compares it against every still-alive member's constant.
  /// Writes the narrowed mask into `out`; returns false (and leaves
  /// `out` unspecified) when no member survives.
  bool FusedAccept(size_t slot, VertexId v, const uint64_t* in,
                   uint64_t* out) const {
    const ResolvedPattern::Node& n = rm_.pattern.nodes[slot];
    if (n.has_type_constraint && graph_.VertexType(v) != n.type) return false;
    uint64_t any = 0;
    for (size_t w = 0; w < words_; ++w) {
      out[w] = in[w] & ~failed_[w];
      any |= out[w];
    }
    if (any == 0) return false;
    static const PropertyValue kNull;
    for (const FusedCondition& cond : slot_conditions_[slot]) {
      const PropertyValue* found =
          graph_.VertexProperties(v).Find(cond.property);
      const PropertyValue& value = found != nullptr ? *found : kNull;
      any = 0;
      for (size_t w = 0; w < words_; ++w) {
        uint64_t bits = out[w];
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          bits &= bits - 1;
          if (!EvaluateCompare(cond.op, value, cond.rhs[w * 64 + size_t(b)])) {
            out[w] &= ~(uint64_t(1) << b);
          }
        }
        any |= out[w];
      }
      if (any == 0) return false;
    }
    return true;
  }

  /// Every alive member receives the current binding's row. The row
  /// content is shared (bindings are group-wide); distinctness and the
  /// row limit are per member — a member past `max_rows_` fails with
  /// the row-limit error, and its bit leaves the traversal.
  void EmitRows(const uint64_t* mask) {
    const size_t width = rm_.return_slots.size();
    for (size_t k = 0; k < width; ++k) {
      row_buf_[k] = binding_[rm_.return_slots[k]];
    }
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = mask[w] & ~failed_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const size_t m = w * 64 + size_t(b);
        if (member_rows_[m].Insert(row_buf_.data()) &&
            member_rows_[m].size() > max_rows_) {
          FailMember(m, Status::ResourceExhausted("MATCH row limit exceeded"));
        }
      }
    }
  }

  void Backtrack(size_t step_index, const uint64_t* mask) {
    if (guard_.stopped()) return;  // prompt unwind of the whole walk
    if (!AnyAlive(mask)) return;
    if (step_index == rm_.plan.size()) {
      EmitRows(mask);
      return;
    }
    const Step& step = rm_.plan[step_index];
    const ResolvedPattern& pattern = rm_.pattern;
    uint64_t* narrowed = masks_[step_index].data();

    if (step.kind == Step::kSeed) {
      // Secondary seed (disconnected pattern component).
      size_t slot = static_cast<size_t>(step.node_slot);
      if (binding_[slot] != graph::kInvalidId) {
        Backtrack(step_index + 1, mask);
        return;
      }
      const ResolvedPattern::Node& n = pattern.nodes[slot];
      auto try_seed = [&](VertexId v) {
        ++expansions_;
        if (guard_.Charge(1)) return;
        if (!FusedAccept(slot, v, mask, narrowed)) return;
        binding_[slot] = v;
        Backtrack(step_index + 1, narrowed);
        binding_[slot] = graph::kInvalidId;
      };
      if (n.has_type_constraint) {
        for (VertexId v : graph_.VerticesOfType(n.type)) {
          if (all_members_failed() || guard_.stopped()) return;
          try_seed(v);
        }
      } else {
        for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
          if (!graph_.IsVertexLive(v)) continue;
          if (all_members_failed() || guard_.stopped()) return;
          try_seed(v);
        }
      }
      return;
    }

    const ResolvedPattern::Edge& edge = pattern.edges[step.edge_index];
    VertexId from = binding_[edge.from];
    VertexId to = binding_[edge.to];
    bool from_bound = from != graph::kInvalidId;
    bool to_bound = to != graph::kInvalidId;
    StepScratch* scratch = &scratch_[step_index];

    if (from_bound && to_bound) {
      // Filter edge (closes a cycle): purely structural, so shared.
      ++expansions_;
      if (guard_.Charge(1)) return;
      bool connected =
          edge.variable_length
              ? traversal_.VarLengthConnected(from, to, edge.type,
                                              edge.min_hops, edge.max_hops,
                                              scratch)
              : traversal_.HasFixedEdge(from, to, edge.type);
      if (guard_.stopped()) return;
      if (connected) Backtrack(step_index + 1, mask);
      return;
    }

    const bool forward = from_bound;  // else expand backward from `to`
    size_t free_slot = forward ? edge.to : edge.from;
    VertexId anchor = forward ? from : to;
    // A trivial endpoint narrows no member (no conditions, type
    // implied): the parent mask flows through untouched.
    const bool trivial = forward ? edge.trivial_forward : edge.trivial_backward;

    if (!edge.variable_length && step_index + 1 == rm_.plan.size()) {
      // Final fixed expansion: the recursion below this step is just
      // EmitRows, and the row sets already deduplicate, so duplicate
      // neighbors (parallel edges) need no expansion-level dedup —
      // iterate the typed slice directly, no gather, no buffers.
      // First-occurrence emission order is unchanged.
      EdgeSpan span = forward ? csr_.TypedOutEdges(anchor, edge.type)
                              : csr_.TypedInEdges(anchor, edge.type);
      expansions_ += span.size;
      if (guard_.Charge(span.size)) return;
      for (size_t i = 0; i < span.size; ++i) {
        VertexId v = span.vertices[i];
        if (trivial) {
          binding_[free_slot] = v;
          EmitRows(mask);
        } else if (FusedAccept(free_slot, v, mask, narrowed)) {
          binding_[free_slot] = v;
          EmitRows(narrowed);
        }
      }
      binding_[free_slot] = graph::kInvalidId;
      return;
    }

    if (edge.variable_length) {
      traversal_.VarLengthTargets(anchor, edge.type, edge.min_hops,
                                  edge.max_hops, !forward, scratch);
    } else {
      // Distinct neighbors: parallel edges must not multiply rows under
      // set semantics, and the subtree below this step would otherwise
      // be re-explored per duplicate.
      traversal_.GatherDistinctNeighbors(anchor, edge.type, forward,
                                         &scratch->candidates);
    }
    expansions_ += scratch->candidates.size();
    if (guard_.Charge(scratch->candidates.size()) || guard_.stopped()) return;
    for (VertexId v : scratch->candidates) {
      if (trivial) {
        binding_[free_slot] = v;
        Backtrack(step_index + 1, mask);
        binding_[free_slot] = graph::kInvalidId;
      } else if (FusedAccept(free_slot, v, mask, narrowed)) {
        binding_[free_slot] = v;
        Backtrack(step_index + 1, narrowed);
        binding_[free_slot] = graph::kInvalidId;
      }
    }
  }

  const PropertyGraph& graph_;
  const CsrGraph& csr_;
  const ResolvedMatch& rm_;
  const std::vector<std::vector<FusedCondition>>& slot_conditions_;
  const size_t num_members_;
  const size_t words_;
  const size_t max_rows_;
  CancelGuard guard_;
  CsrTraversal traversal_;
  std::vector<VertexId> binding_;
  std::vector<StepScratch> scratch_;
  std::vector<VertexId> row_buf_;
  /// Per-plan-step narrowed-mask buffer: the mask a binding at that step
  /// passes to the subtree below it. Reused per candidate; deeper steps
  /// use deeper buffers, so a parent's mask is never clobbered while a
  /// child still reads it.
  std::vector<std::vector<uint64_t>> masks_;
  std::vector<uint64_t> root_mask_;
  std::vector<uint64_t> failed_;
  size_t num_failed_ = 0;
  std::vector<Status> member_errors_;
  /// The current piece's distinct rows per member.
  std::vector<RowSet> member_rows_;
  uint64_t expansions_ = 0;
};

/// Lifts each member's WHERE constants into the group's shared conjunct
/// structure (taken from member 0's resolved pattern). Conjuncts map to
/// (slot, position) exactly as `ResolvePattern` assigned them — by
/// walking `where` in order — so member m's k-th conjunct on a slot
/// lines up with member 0's. Structure mismatches mean the caller
/// grouped queries that do not share a shape.
Status LiftConstants(const ResolvedMatch& rm,
                     const std::vector<const MatchQuery*>& members,
                     std::vector<std::vector<FusedCondition>>* slot_conditions) {
  const size_t num_slots = rm.pattern.nodes.size();
  slot_conditions->assign(num_slots, {});
  for (size_t s = 0; s < num_slots; ++s) {
    for (const Condition& cond : rm.pattern.node_conditions[s]) {
      FusedCondition fused;
      fused.property = cond.lhs.property;
      fused.op = cond.op;
      fused.rhs.assign(members.size(), PropertyValue());
      (*slot_conditions)[s].push_back(std::move(fused));
    }
  }
  std::vector<size_t> cursor(num_slots);
  for (size_t m = 0; m < members.size(); ++m) {
    std::fill(cursor.begin(), cursor.end(), 0);
    for (const Condition& cond : members[m]->where) {
      int slot = rm.pattern.SlotOf(cond.lhs.base);
      if (slot < 0 || cursor[slot] >= (*slot_conditions)[slot].size()) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
      FusedCondition& fused = (*slot_conditions)[slot][cursor[slot]++];
      if (fused.property != cond.lhs.property || fused.op != cond.op) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
      fused.rhs[m] = cond.rhs;
    }
    for (size_t s = 0; s < num_slots; ++s) {
      if (cursor[s] != (*slot_conditions)[s].size()) {
        return Status::Internal(
            "fused group members do not share one plan shape");
      }
    }
  }
  return Status::OK();
}

Table ToTable(const ResolvedMatch& rm, const RowSet& rows) {
  Table table(std::vector<Column>(rm.columns));
  const size_t width = rm.return_slots.size();
  for (size_t r = 0; r < rows.size(); ++r) {
    const VertexId* row = rows.row(r);
    Table::Row out;
    out.reserve(width);
    for (size_t k = 0; k < width; ++k) {
      out.emplace_back(static_cast<int64_t>(row[k]));
    }
    table.AddRow(std::move(out));
  }
  return table;
}

/// Member `m`'s table from a multi-piece walk: its spans replayed in
/// sequential seed order with global first-occurrence dedup. Identical
/// to the one-piece table, row order included: a row's first emitter in
/// the sequential walk is some seed k; no earlier seed of k's piece
/// emitted it (a piece walks its seeds in order, into its own row set),
/// so k's span holds it, and the replay meets it first at k.
Result<Table> MergeMember(const ResolvedMatch& rm,
                          const std::vector<PieceRows>& pieces, size_t m,
                          size_t max_rows) {
  std::vector<SeedSpan> spans;
  for (const PieceRows& piece : pieces) {
    spans.insert(spans.end(), piece.spans[m].begin(), piece.spans[m].end());
  }
  std::sort(spans.begin(), spans.end(),
            [](const SeedSpan& a, const SeedSpan& b) { return a.rank < b.rank; });
  RowSet merged(rm.return_slots.size());
  for (const SeedSpan& sp : spans) {
    const RowSet& rows = pieces[sp.piece].rows[m];
    for (size_t r = sp.begin; r < sp.end; ++r) {
      if (merged.Insert(rows.row(r)) && merged.size() > max_rows) {
        return Status::ResourceExhausted("MATCH row limit exceeded");
      }
    }
  }
  return ToTable(rm, merged);
}

}  // namespace

std::vector<Result<Table>> ExecuteFusedMatch(
    const PropertyGraph& graph, const CsrGraph& csr,
    const std::vector<const MatchQuery*>& members,
    const ExecutorOptions& options, FusedGroupStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  std::vector<Result<Table>> results;
  results.reserve(members.size());
  auto finish_timing = [&] {
    if (stats != nullptr) {
      stats->elapsed_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    }
  };
  auto fail_all = [&](const Status& status) {
    results.clear();
    for (size_t m = 0; m < members.size(); ++m) results.push_back(status);
    finish_timing();
    return results;
  };

  if (members.empty()) {
    finish_timing();
    return results;
  }
  if (options.deadline != CancelGuard::Clock::time_point{} &&
      started >= options.deadline) {
    // Already past the deadline at entry: every member's solo run would
    // fail the same way, so fail the group without touching the graph.
    if (stats != nullptr) stats->deadline_checks = 1;
    return fail_all(internal::DeadlineExceededError());
  }
  // Group-level failures are shape-determined: every member's solo run
  // would raise the identical error, so filling each slot with it keeps
  // the fused path indistinguishable from the sequential one. The
  // staleness check is a tripwire; generation keying at the engine
  // layer is the real guarantee.
  if (internal::CsrSnapshotIsStale(graph, csr)) {
    return fail_all(internal::StaleSnapshotError());
  }
  Result<ResolvedMatch> rm = ResolveMatch(graph, *members[0]);
  if (!rm.ok()) return fail_all(rm.status());

  std::vector<std::vector<FusedCondition>> slot_conditions;
  Status lifted = LiftConstants(*rm, members, &slot_conditions);
  if (!lifted.ok()) return fail_all(lifted);

  const size_t parallelism =
      options.parallelism == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : options.parallelism;
  const SeedPartition part =
      PartitionSeeds(graph, *rm, parallelism, options.shards);
  const size_t num_pieces = part.num_pieces();
  const bool merge = num_pieces > 1;
  const size_t workers = std::min(parallelism, num_pieces);

  // Workers claim pieces in increasing order, each with its own runner.
  // A runner whose deadline fires raises `cancel` through its guard; one
  // whose members have all failed raises it here — nothing is left to
  // compute anywhere, since a failure in one piece fails the member.
  // Either way the siblings stop within one check interval.
  std::vector<PieceRows> pieces(num_pieces);
  std::vector<std::unique_ptr<FusedMatchRunner>> runners(workers);
  std::atomic<size_t> next_piece{0};
  std::atomic<bool> cancel{false};
  auto work = [&](size_t w) {
    runners[w] = std::make_unique<FusedMatchRunner>(
        graph, csr, *rm, slot_conditions, members.size(), options.max_rows,
        CancelGuard(options.deadline, workers > 1 ? &cancel : nullptr));
    FusedMatchRunner& runner = *runners[w];
    while (!cancel.load(std::memory_order_relaxed)) {
      const size_t p = next_piece.fetch_add(1, std::memory_order_relaxed);
      if (p >= num_pieces) break;
      runner.RunPiece(part, p, merge, &pieces[p]);
      if (runner.guard().stopped()) break;
      if (runner.all_members_failed()) {
        cancel.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();

  bool complete = true;
  for (const PieceRows& piece : pieces) complete &= piece.complete;
  if (stats != nullptr) {
    stats->expansions = 0;
    stats->deadline_checks = 0;
    for (const auto& runner : runners) {
      stats->expansions += runner->expansions();
      stats->deadline_checks += runner->guard().checks();
    }
  }

  for (size_t m = 0; m < members.size(); ++m) {
    // A member's own error beats the group deadline. The only one is
    // the row limit, so whichever runner noted it holds the same
    // status the member's sequential walk raises.
    Status member_error = Status::OK();
    for (const auto& runner : runners) {
      if (!runner->error_of(m).ok()) {
        member_error = runner->error_of(m);
        break;
      }
    }
    if (!member_error.ok()) {
      results.push_back(std::move(member_error));
    } else if (!complete) {
      // The walk stopped early without failing this member, so a
      // deadline fired (in this runner or a peer's) and its rows are
      // partial.
      results.push_back(internal::DeadlineExceededError());
    } else if (merge) {
      results.push_back(MergeMember(*rm, pieces, m, options.max_rows));
    } else {
      results.push_back(ToTable(*rm, pieces[0].rows[m]));
    }
  }
  finish_timing();
  return results;
}

}  // namespace kaskade::query
