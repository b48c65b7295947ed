// Traced replay: the workload's op stream replayed on a stack of engine
// layers the benchmark owns (a PropertyGraph, a ViewCatalog, a Planner
// and a WriteAheadLog), calling each layer's public function the way
// Engine does and recording one span per call. The stack is replayed
// twice on fresh copies, untraced then traced; the difference of the two
// is the tracing overhead. Counters come from the timed run's
// Engine::TelemetrySnapshot().

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "core/catalog.h"
#include "core/cost_model.h"
#include "core/enumerator.h"
#include "core/materializer.h"
#include "core/planner.h"
#include "core/view_selector.h"
#include "durability/wal.h"
#include "graph/serialization.h"
#include "query/executor.h"
#include "query/fused_runner.h"
#include "query/parser.h"

namespace perfbench {
namespace {

enum Layer : uint8_t {
  kOpRead,
  kOpBatch,
  kOpWrite,
  kParse,
  kChoosePlan,
  kSnapshot,
  kExec,
  kFusedExec,
  kRemap,
  kTableBuild,
  kDeltaApply,
  kWal,
  kMaintenance,
  kEnumerate,
  kSelect,
  kMaterialize,
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "op.read",           "op.batch",          "op.write",
    "query.parse",       "planner.choose_plan", "catalog.snapshot",
    "query.exec",        "query.fused_exec",  "query.remap",
    "query.table_build", "graph.delta_apply", "wal.append",
    "maintenance.apply", "advisor.enumerate", "advisor.select",
    "advisor.materialize"};

/// Op id of spans outside the measured stream (set-up and warmup).
constexpr int64_t kSetupOp = -1;

struct Span {
  Layer layer;
  int32_t parent;  ///< Index of the enclosing span, -1 for a root.
  int64_t op;      ///< Measured op index; kSetupOp otherwise.
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder; spans are written out after the replay.
/// Disabled, it records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
      index_ = tracer_->Begin(layer);
    }
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  void SetOp(int64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Begin(Layer layer) {
    if (!enabled_) return -1;
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{layer, parent, op_, Clock::now(), {}});
    open_.push_back(int32_t(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    if (index < 0) return;
    spans_[size_t(index)].end = Clock::now();
    open_.pop_back();
  }

  bool enabled_;
  int64_t op_ = kSetupOp;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Same remap Engine applies to rewritten plans: view-local vertex ids
/// back to base ids through the view's lineage.
query::Table MapToBase(const core::MaterializedView& view, query::Table table) {
  bool any_vertex = false;
  for (const query::Column& c : table.columns()) any_vertex |= c.is_vertex;
  if (!any_vertex) return table;
  query::Table mapped{std::vector<query::Column>(table.columns())};
  for (const query::Table::Row& row : table.rows()) {
    query::Table::Row out = row;
    for (size_t c = 0; c < out.size(); ++c) {
      if (!table.columns()[c].is_vertex || !out[c].is_int()) continue;
      const auto v = size_t(out[c].as_int());
      if (v < view.view_to_base.size()) out[c] = int64_t(view.view_to_base[v]);
    }
    mapped.AddRow(std::move(out));
  }
  return mapped;
}

/// Advisor figures of the stack's set-up.
struct AdvisorFigures {
  double candidates = 0;
  double estimated_edges = 0;
  double materialized_edges = 0;
  std::vector<std::string> views;
};

/// Per measured op of one replay.
struct ReplayOp {
  bool write = false;
  bool batch = false;
  double us = 0;              ///< Op end-to-end on the owned stack.
  uint64_t digest = kFnvOffset;
  double rows = 0;            ///< Solo reads: result rows.
  double expansions = 0;      ///< Solo reads: traversal expansions.
  uint64_t fused_expansions = 0;
  uint64_t solo_expansions = 0;
  size_t planned = 0;
  size_t view_plans = 0;
};

/// The benchmark-owned engine stack.
class Stack {
 public:
  Stack(const WorkloadConfig& config, Tracer* tracer, const std::string& dir)
      : config_(config),
        tracer_(tracer),
        base_(MakeDataset(config.id)),
        catalog_(&base_, config.engine.snapshot_patch, config.engine.shards),
        planner_(PlannerOptionsFor(config.engine)),
        dir_(dir) {
    exec_options_ = config.engine.executor;
    exec_options_.shards = std::max<size_t>(1, config.engine.shards);
  }

  Status SetUp(const std::vector<std::string>& templates,
               const std::vector<core::ViewDefinition>& explicit_views) {
    if (!templates.empty()) {
      std::vector<core::WorkloadEntry> workload;
      for (const std::string& text : templates) {
        KASKADE_ASSIGN_OR_RETURN(query::Query q, query::ParseQueryText(text));
        workload.push_back(core::WorkloadEntry{std::move(q), 1.0});
      }
      std::set<std::string> names;
      {
        Tracer::Scope span(tracer_, kEnumerate);
        core::ViewEnumerator enumerator(&base_.schema(),
                                        config_.engine.selector.enumerator);
        for (const core::WorkloadEntry& entry : workload) {
          KASKADE_ASSIGN_OR_RETURN(auto views, enumerator.Enumerate(entry.query));
          for (const core::CandidateView& v : views) {
            names.insert(v.definition.Name());
          }
        }
      }
      advisor_.candidates = double(names.size());
      core::SelectionReport report;
      {
        Tracer::Scope span(tracer_, kSelect);
        core::ViewSelector selector(&base_, config_.engine.selector);
        KASKADE_ASSIGN_OR_RETURN(report, selector.Select(workload));
      }
      for (const core::ScoredView& scored : report.selected) {
        KASKADE_RETURN_IF_ERROR(
            Build(scored.definition, scored.estimated_size_edges));
      }
    }
    for (const core::ViewDefinition& def : explicit_views) {
      core::CostModel cost(&base_, config_.engine.selector.cost);
      KASKADE_RETURN_IF_ERROR(Build(def, cost.ViewSizeEdges(def)));
    }
    if (config_.durable()) {
      durability::WalOptions options;
      options.fsync_policy = config_.engine.durability.fsync_policy;
      options.flush_interval = config_.engine.durability.flush_interval;
      options.segment_bytes = config_.engine.durability.wal_segment_bytes;
      std::filesystem::create_directories(dir_);
      KASKADE_ASSIGN_OR_RETURN(
          wal_, durability::WriteAheadLog::Open(dir_, 1, options));
    }
    return Status::OK();
  }

  /// One read: plan (cache hit, or parse + ChoosePlan), snapshot,
  /// parse of the executed text, execution, id remap.
  Status Read(const std::string& text, ReplayOp* op, query::Table* out) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope root(tracer_, kOpRead);
      KASKADE_ASSIGN_OR_RETURN(const core::Plan* plan, PlanFor(text));
      const core::CatalogEntry* entry = nullptr;
      const graph::PropertyGraph* target = &base_;
      std::shared_ptr<const graph::CsrGraph> snapshot;
      KASKADE_RETURN_IF_ERROR(Attach(*plan, &entry, &target, &snapshot));
      query::Query executed;
      {
        Tracer::Scope span(tracer_, kParse);
        KASKADE_ASSIGN_OR_RETURN(executed,
                                 query::ParseQueryText(plan->executed_query));
      }
      query::ExecutionTiming timing;
      {
        Tracer::Scope span(tracer_, kExec);
        query::QueryExecutor executor(target, snapshot.get(), exec_options_);
        KASKADE_ASSIGN_OR_RETURN(*out, executor.Execute(executed, &timing));
      }
      if (entry != nullptr) {
        Tracer::Scope span(tracer_, kRemap);
        *out = MapToBase(entry->view, std::move(*out));
      }
      op->rows = double(out->num_rows());
      op->expansions = double(timing.expansions);
      ++op->planned;
      op->view_plans += entry != nullptr ? 1 : 0;
    }
    op->us = MicrosBetween(t0, Clock::now());
    return Status::OK();
  }

  /// One ExecuteBatch group of same-shape reads: plan every member, one
  /// snapshot, one fused traversal, per-member remap.
  Status Batch(const std::vector<std::string>& texts, ReplayOp* op,
               std::vector<query::Table>* out) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope root(tracer_, kOpBatch);
      std::vector<core::Plan> plans;
      for (const std::string& text : texts) {
        KASKADE_ASSIGN_OR_RETURN(const core::Plan* plan, PlanFor(text));
        plans.push_back(*plan);
      }
      for (const core::Plan& plan : plans) {
        if (plan.match_ast == nullptr || plan.shape_key != plans[0].shape_key ||
            plan.view_name != plans[0].view_name) {
          return Status::Internal("batch is not one fusable shape group");
        }
      }
      const core::CatalogEntry* entry = nullptr;
      const graph::PropertyGraph* target = &base_;
      std::shared_ptr<const graph::CsrGraph> snapshot;
      KASKADE_RETURN_IF_ERROR(Attach(plans[0], &entry, &target, &snapshot));
      std::vector<const query::MatchQuery*> members;
      for (const core::Plan& plan : plans) members.push_back(plan.match_ast.get());
      query::FusedGroupStats stats;
      std::vector<Result<query::Table>> tables;
      {
        Tracer::Scope span(tracer_, kFusedExec);
        tables = query::ExecuteFusedMatch(*target, *snapshot, members,
                                          exec_options_, &stats);
      }
      out->clear();
      for (Result<query::Table>& table : tables) {
        KASKADE_RETURN_IF_ERROR(table.status());
        if (entry != nullptr) {
          Tracer::Scope span(tracer_, kRemap);
          out->push_back(MapToBase(entry->view, std::move(*table)));
        } else {
          out->push_back(std::move(*table));
        }
      }
      op->fused_expansions = stats.expansions;
      op->planned += plans.size();
      op->view_plans += entry != nullptr ? plans.size() : 0;
    }
    op->us = MicrosBetween(t0, Clock::now());
    return Status::OK();
  }

  /// One ApplyDelta: graph apply, WAL append + durability wait, view
  /// maintenance (Engine's order).
  Status Write(graph::GraphDelta delta, ReplayOp* op) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope root(tracer_, kOpWrite);
      delta.Coalesce();
      {
        Tracer::Scope span(tracer_, kDeltaApply);
        KASKADE_RETURN_IF_ERROR(
            graph::ApplyDeltaToGraph(&base_, delta).status());
      }
      graph::DeltaFootprintPtr footprint;
      if (catalog_.WantsBaseDeltaTrail()) {
        footprint = std::make_shared<const graph::DeltaFootprint>(delta);
      }
      if (wal_ != nullptr) {
        Tracer::Scope span(tracer_, kWal);
        KASKADE_ASSIGN_OR_RETURN(auto token,
                                 wal_->Append(graph::SerializeDelta(delta)));
        KASKADE_RETURN_IF_ERROR(wal_->WaitDurable(token));
      }
      {
        Tracer::Scope span(tracer_, kMaintenance);
        KASKADE_RETURN_IF_ERROR(
            catalog_.ApplyBaseDelta(delta, std::move(footprint)).status());
      }
    }
    op->write = true;
    op->us = MicrosBetween(t0, Clock::now());
    return Status::OK();
  }

  /// Solo traversal expansions of `text` (the fused-ratio baseline),
  /// computed once per text outside any span.
  uint64_t SoloExpansions(const std::string& text) {
    auto it = solo_expansions_.find(text);
    if (it != solo_expansions_.end()) return it->second;
    Tracer detached(false);
    Tracer* saved = tracer_;
    tracer_ = &detached;
    ReplayOp probe;
    query::Table table;
    const Status status = Read(text, &probe, &table);
    tracer_ = saved;
    const uint64_t expansions = status.ok() ? uint64_t(probe.expansions) : 0;
    solo_expansions_.emplace(text, expansions);
    return expansions;
  }

  const graph::PropertyGraph& base() const { return base_; }
  const AdvisorFigures& advisor() const { return advisor_; }

 private:
  static core::PlannerOptions PlannerOptionsFor(const core::EngineOptions& o) {
    core::PlannerOptions options = o.planner;
    options.eval_cost = o.selector.cost.eval;
    return options;
  }

  Status Build(const core::ViewDefinition& def, double estimated_edges) {
    KASKADE_ASSIGN_OR_RETURN(core::ViewHandle handle, catalog_.BeginBuild(def));
    std::optional<Result<core::MaterializedView>> built;
    {
      Tracer::Scope span(tracer_, kMaterialize);
      built.emplace(core::Materialize(base_, def));
    }
    KASKADE_RETURN_IF_ERROR(built->status());
    advisor_.estimated_edges += estimated_edges;
    advisor_.materialized_edges += double((*built)->graph.NumLiveEdges());
    advisor_.views.push_back(def.Name());
    return catalog_.Publish(handle, std::move(**built));
  }

  /// Plan-cache lookup keyed like the Planner's: (text, generation).
  Result<const core::Plan*> PlanFor(const std::string& text) {
    const uint64_t generation = catalog_.generation();
    auto it = plans_.find(text);
    if (it != plans_.end() && it->second.planned_generation == generation) {
      return &it->second;
    }
    query::Query parsed;
    {
      Tracer::Scope span(tracer_, kParse);
      KASKADE_ASSIGN_OR_RETURN(parsed, query::ParseQueryText(text));
    }
    core::Plan plan;
    {
      Tracer::Scope span(tracer_, kChoosePlan);
      KASKADE_RETURN_IF_ERROR(
          planner_.ChoosePlan(parsed, base_, catalog_, &plan));
    }
    if (plans_.size() >= config_.engine.planner.cache_capacity) plans_.clear();
    core::Plan& slot = plans_[text];
    slot = std::move(plan);
    return &slot;
  }

  Status Attach(const core::Plan& plan, const core::CatalogEntry** entry,
                const graph::PropertyGraph** target,
                std::shared_ptr<const graph::CsrGraph>* snapshot) {
    Tracer::Scope span(tracer_, kSnapshot);
    if (plan.view_name.empty()) {
      *snapshot = catalog_.BaseSnapshot();
    } else {
      *entry = catalog_.Find(plan.view_name);
      if (*entry == nullptr) return Status::Internal("plan lost its view");
      *target = &(*entry)->view.graph;
      *snapshot = catalog_.SnapshotFor((*entry)->handle);
    }
    if (*snapshot == nullptr) return Status::Internal("no CSR snapshot");
    return Status::OK();
  }

  const WorkloadConfig& config_;
  Tracer* tracer_;
  graph::PropertyGraph base_;
  core::ViewCatalog catalog_;
  core::Planner planner_;
  query::ExecutorOptions exec_options_;
  std::string dir_;
  std::unique_ptr<durability::WriteAheadLog> wal_;
  std::unordered_map<std::string, core::Plan> plans_;
  std::unordered_map<std::string, uint64_t> solo_expansions_;
  AdvisorFigures advisor_;
};

/// Result of one replay.
struct Replay {
  std::vector<ReplayOp> ops;  ///< Measured client ops, then writes.
  AdvisorFigures advisor;
  size_t edges_before = 0;
  size_t edges_after = 0;
  std::vector<std::string> failures;
};

/// One replay of the op stream on its own stack: Prepare() sets the stack
/// up and warms it like SetUp warms the engine; Step(k) replays measured
/// client op k and, on social_churn, the delta released with it.
class Replayer {
 public:
  Replayer(const WorkloadConfig& config, const Inputs& inputs, size_t ops,
           size_t writes, Tracer* tracer, const std::string& dir)
      : config_(config),
        inputs_(inputs),
        ops_(ops),
        writes_(writes),
        tracer_(tracer),
        stack_(config, tracer, dir) {}

  void Prepare() {
    Status status = stack_.SetUp(SetUpTemplates(config_), SetUpViews(config_));
    if (!status.ok()) return Fail("stack set-up", status);
    replay_.advisor = stack_.advisor();
    replay_.edges_before = stack_.base().NumLiveEdges();
    ReplayOp scratch;
    WarmupHooks hooks;
    hooks.read = [&](const std::string& text) {
      return stack_.Read(text, &scratch, &table_);
    };
    hooks.batch = [&](const std::vector<std::string>& texts) {
      return stack_.Batch(texts, &scratch, &tables_);
    };
    hooks.write = [&](const graph::GraphDelta& delta) {
      return stack_.Write(delta, &scratch);
    };
    status = Warmup(config_, inputs_, hooks);
    if (!status.ok()) Fail("warmup", status);
  }

  void Step(size_t k) {
    const size_t i = inputs_.warmup_ops + k;
    const ClientOp& op = inputs_.client[i % inputs_.client.size()];
    ReplayOp record;
    tracer_->SetOp(int64_t(k));
    Status status = op.batch ? stack_.Batch(op.texts, &record, &tables_)
                             : stack_.Read(op.texts[0], &record, &table_);
    record.batch = op.batch;
    if (!status.ok()) {
      Fail("read", status);
    } else {
      for (const query::Table* t : Results(op.batch)) {
        const uint64_t d = TableDigest(*t);
        record.digest = Fnv(record.digest, &d, sizeof d);
        // Result-table construction probe, outside the op: rebuild the
        // result row by row through Table::AddRow.
        Tracer::Scope probe(tracer_, kTableBuild);
        query::Table rebuilt{std::vector<query::Column>(t->columns())};
        for (const query::Table::Row& row : t->rows()) rebuilt.AddRow(row);
      }
      if (op.batch) {
        for (const std::string& text : op.texts) {
          record.solo_expansions += stack_.SoloExpansions(text);
        }
      }
    }
    replay_.ops.push_back(record);
    // social_churn: the delta released at the start of this read lands
    // after it (in the timed run it waits for the in-flight read).
    if (config_.release_every > 0 && (i + 1) % config_.release_every == 0) {
      const size_t j =
          (i + 1) / config_.release_every - 1 - inputs_.warmup_deltas;
      if (j < writes_) {
        tracer_->SetOp(int64_t(ops_ + j));
        ReplayOp write;
        status = stack_.Write(inputs_.deltas[inputs_.warmup_deltas + j], &write);
        if (!status.ok()) Fail("write", status);
        writes_done_.push_back(write);
      }
    }
  }

  Replay Finish() {
    replay_.ops.insert(replay_.ops.end(), writes_done_.begin(),
                       writes_done_.end());
    replay_.edges_after = stack_.base().NumLiveEdges();
    return std::move(replay_);
  }

 private:
  std::vector<const query::Table*> Results(bool batch) const {
    std::vector<const query::Table*> out;
    if (!batch) return {&table_};
    for (const query::Table& t : tables_) out.push_back(&t);
    return out;
  }

  void Fail(const std::string& what, const Status& status) {
    if (replay_.failures.size() < 8) {
      replay_.failures.push_back(what + ": " + status.ToString());
    }
  }

  const WorkloadConfig& config_;
  const Inputs& inputs_;
  const size_t ops_;     ///< Measured client ops replayed; writes follow.
  const size_t writes_;
  Tracer* tracer_;
  Stack stack_;
  Replay replay_;
  std::vector<ReplayOp> writes_done_;
  query::Table table_;
  std::vector<query::Table> tables_;
};

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Highest of a fixed ladder of percentiles with at least 10 samples
/// beyond it.
double TailPct(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0}) {
    if (double(n) * (100.0 - pct) / 100.0 >= 10.0) return pct;
  }
  return 50.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

TracedResult RunTraced(const WorkloadConfig& config, const Inputs& inputs,
                       const TimedResult& timed, const std::string& dir,
                       const std::string& trace_prefix) {
  TracedResult result;
  // Replay the first half of the ops the timed run measured (bounded, to
  // keep the span buffer small): two replays then take about as long as
  // the timed run.
  const size_t ops = std::min<size_t>(timed.op_us.size() / 2, 40000);
  size_t writes = 0;
  if (config.release_every > 0) {
    const size_t released =
        (inputs.warmup_ops + ops) / config.release_every - inputs.warmup_deltas;
    writes = std::min(released, timed.write_us.size());
  }

  // The untraced and the traced replay run side by side on two stacks,
  // alternating which goes first, so host speed drift hits both alike.
  Tracer off(false);
  Tracer tracer(true);
  Replayer untraced_replay(config, inputs, ops, writes, &off,
                           dir + "/untraced");
  Replayer traced_replay(config, inputs, ops, writes, &tracer, dir + "/traced");
  untraced_replay.Prepare();
  traced_replay.Prepare();
  for (size_t k = 0; k < ops; ++k) {
    if (k % 2 == 0) {
      untraced_replay.Step(k);
      traced_replay.Step(k);
    } else {
      traced_replay.Step(k);
      untraced_replay.Step(k);
    }
  }
  const Replay untraced = untraced_replay.Finish();
  const Replay traced = traced_replay.Finish();
  result.failures = traced.failures;
  result.failures.insert(result.failures.end(), untraced.failures.begin(),
                         untraced.failures.end());
  if (!result.failures.empty()) return result;
  if (traced.ops.size() != untraced.ops.size()) {
    result.failures.push_back("replays differ in length");
    return result;
  }

  // The replay must give the same answers as the engine did.
  if (config.release_every == 0) {
    for (size_t k = 0; k < ops; ++k) {
      if (traced.ops[k].digest != timed.op_digest[k] ||
          untraced.ops[k].digest != timed.op_digest[k]) {
        result.failures.push_back("replayed op " + std::to_string(k) +
                                  " disagrees with the engine's output");
        break;
      }
    }
  } else if (traced.edges_after != traced.edges_before) {
    result.failures.push_back("replay changed the edge count");
  }

  // Self time per span, and per measured op the sum of its layer spans.
  const std::vector<Span>& spans = tracer.spans();
  auto duration = [&](const Span& span) {
    return MicrosBetween(span.start, span.end);
  };
  std::vector<double> child_us(spans.size(), 0.0);
  for (size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].parent >= 0) {
      child_us[size_t(spans[s].parent)] += duration(spans[s]);
    }
  }
  std::vector<double> self_us[kNumLayers];
  const size_t total_ops = traced.ops.size();
  std::vector<double> op_layer_sum(total_ops, 0.0);
  std::vector<double> op_root_self(total_ops, 0.0);
  std::vector<double> op_root_us(total_ops, 0.0);
  std::vector<std::vector<double>> op_layer(kNumLayers,
                                            std::vector<double>(total_ops, 0));
  for (size_t s = 0; s < spans.size(); ++s) {
    const Span& span = spans[s];
    const double self = duration(span) - child_us[s];
    self_us[span.layer].push_back(self);
    if (span.op < 0 || size_t(span.op) >= total_ops) continue;
    const size_t op = size_t(span.op);
    if (span.layer <= kOpWrite) {
      op_root_self[op] = self;
      op_root_us[op] = duration(span);
    } else if (span.layer != kTableBuild) {
      op_layer_sum[op] += self;
      op_layer[span.layer][op] += self;
    }
  }

  // Engine residuals: the timed run's end-to-end latency minus the
  // layer spans of the same op.
  std::vector<double> read_residual;
  std::vector<double> write_wait;
  double rows = 0, expansions = 0, solo_reads = 0;
  double fused = 0, solo = 0, planned = 0, view_plans = 0;
  for (size_t k = 0; k < total_ops; ++k) {
    const ReplayOp& op = traced.ops[k];
    planned += double(op.planned);
    view_plans += double(op.view_plans);
    if (op.write) {
      write_wait.push_back(timed.write_us[k - ops] - op_layer_sum[k]);
    } else if (op.batch) {
      fused += double(op.fused_expansions);
      solo += double(op.solo_expansions);
    } else {
      read_residual.push_back(timed.op_us[k] - op_layer_sum[k]);
      rows += op.rows;
      expansions += op.expansions;
      solo_reads += 1;
    }
  }
  std::vector<double> traced_us, untraced_us;
  for (size_t k = 0; k < total_ops; ++k) {
    traced_us.push_back(traced.ops[k].us);
    untraced_us.push_back(untraced.ops[k].us);
  }

  const core::EngineTelemetry& a = timed.before;
  const core::EngineTelemetry& b = timed.after;
  const double deltas = double(timed.write_us.size());
  const double hits = double(b.plan_cache_hits - a.plan_cache_hits);
  const double misses = double(b.plan_cache_misses - a.plan_cache_misses);
  const double copied =
      double(b.patch_segments_copied - a.patch_segments_copied);
  const double shared =
      double(b.patch_segments_shared - a.patch_segments_shared);
  auto ms_total = [&](Layer layer) {
    return std::accumulate(self_us[layer].begin(), self_us[layer].end(), 0.0) /
           1000.0;
  };
  const std::vector<double>& exec = self_us[kExec];
  const std::vector<double>& snap = self_us[kSnapshot];
  std::map<std::string, double>& m = result.metrics;
  m["query.parse_us"] = Median(self_us[kParse]);
  m["query.exec_us"] = Median(exec);
  m["query.exec_tail_us"] = Percentile(exec, TailPct(exec.size()));
  m["query.expansions_per_read"] = Ratio(expansions, solo_reads);
  m["query.rows_per_read"] = Ratio(rows, solo_reads);
  m["query.table_build_us"] = Median(self_us[kTableBuild]);
  m["query.fused_exec_us"] = Median(self_us[kFusedExec]);
  m["query.fused_expansion_ratio"] = Ratio(fused, solo);
  m["planner.plan_us"] = Median(self_us[kChoosePlan]);
  m["planner.view_plan_ratio"] = Ratio(view_plans, planned);
  m["planner.cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["catalog.snapshot_us"] = Median(snap);
  m["catalog.snapshot_tail_us"] = Percentile(snap, TailPct(snap.size()));
  m["catalog.patches_per_delta"] =
      Ratio(double(b.snapshot_patches - a.snapshot_patches), deltas);
  m["catalog.full_builds"] =
      double(b.snapshot_full_builds - a.snapshot_full_builds);
  m["catalog.patch_bytes_per_delta"] =
      Ratio(double(b.patch_bytes_copied - a.patch_bytes_copied), deltas);
  m["catalog.segments_shared_ratio"] = Ratio(shared, shared + copied);
  m["graph.delta_apply_us"] = Median(self_us[kDeltaApply]);
  m["maintenance.apply_us"] = Median(self_us[kMaintenance]);
  m["maintenance.incremental_ratio"] =
      Ratio(double(timed.views_incremental),
            double(timed.views_incremental + timed.views_rematerialized));
  m["wal.append_us"] = Median(self_us[kWal]);
  m["wal.bytes_per_delta"] = Ratio(double(b.wal_bytes - a.wal_bytes),
                                   double(b.wal_appends - a.wal_appends));
  m["engine.read_residual_us"] = Median(read_residual);
  m["engine.write_wait_us"] = Median(write_wait);
  m["advisor.enumerate_ms"] = ms_total(kEnumerate);
  m["advisor.select_ms"] = ms_total(kSelect);
  m["advisor.materialize_ms"] = ms_total(kMaterialize);
  m["advisor.candidates"] = traced.advisor.candidates;
  m["advisor.size_est_ratio"] =
      Ratio(traced.advisor.estimated_edges, traced.advisor.materialized_edges);
  m["trace.residual_us"] = Mean(op_root_self);
  m["trace.overhead_us"] = Mean(traced_us) - Mean(untraced_us);

  // Span file: one line per span, raw times relative to the first span.
  std::filesystem::create_directories(
      std::filesystem::path(trace_prefix).parent_path());
  const Clock::time_point origin =
      spans.empty() ? Clock::now() : spans.front().start;
  {
    std::ofstream out(trace_prefix + ".spans.tsv");
    out << "span\tparent\top\tname\tstart_us\tend_us\n";
    for (size_t s = 0; s < spans.size(); ++s) {
      out << s << '\t' << spans[s].parent << '\t' << spans[s].op << '\t'
          << kLayerNames[spans[s].layer] << '\t'
          << MicrosBetween(origin, spans[s].start) << '\t'
          << MicrosBetween(origin, spans[s].end) << '\n';
    }
  }
  // Summary: per-layer self time per measured op, and the
  // reconciliation of the op's end-to-end time against it.
  {
    std::ofstream out(trace_prefix + ".summary.json");
    out << "{\"workload\":\"" << config.name << "\",\"ops\":" << total_ops
        << ",\"spans\":" << spans.size() << ",\"layers\":{";
    bool first = true;
    for (int layer = kParse; layer < kNumLayers; ++layer) {
      if (layer == kTableBuild) continue;
      out << (first ? "" : ",") << "\"" << kLayerNames[layer]
          << "\":{\"calls\":" << self_us[layer].size()
          << ",\"self_us_per_op\":" << Mean(op_layer[size_t(layer)]) << "}";
      first = false;
    }
    out << "},\"reconciliation\":{\"e2e_us_per_op\":" << Mean(op_root_us)
        << ",\"layer_self_us_per_op\":" << Mean(op_layer_sum)
        << ",\"residual_us_per_op\":" << Mean(op_root_self)
        << "},\"tracing_overhead\":{\"traced_us_per_op\":" << Mean(traced_us)
        << ",\"untraced_us_per_op\":" << Mean(untraced_us)
        << ",\"overhead_us_per_op\":" << m["trace.overhead_us"] << "}"
        << ",\"engine\":{\"timed_read_us_mean\":"
        << Mean(timed.op_us)
        << ",\"read_residual_us_median\":" << m["engine.read_residual_us"]
        << ",\"write_wait_us_median\":" << m["engine.write_wait_us"] << "}"
        << ",\"views\":[";
    for (size_t v = 0; v < traced.advisor.views.size(); ++v) {
      out << (v ? "," : "") << "\"" << traced.advisor.views[v] << "\"";
    }
    out << "]}\n";
  }
  return result;
}

}  // namespace perfbench
