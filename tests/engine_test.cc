// Tests for the decomposed Engine / ViewCatalog / Planner architecture:
// plan-cache correctness under catalog and base-graph changes, generation
// monotonicity, stable view handles, batched execution, and concurrent
// reader execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/materializer.h"
#include "core/planner.h"
#include "datasets/generators.h"
#include "datasets/workloads.h"
#include "graph/delta.h"
#include "query/parser.h"

namespace kaskade::core {
namespace {

using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

PropertyGraph SmallProv(uint64_t seed = 42) {
  datasets::ProvOptions options;
  options.num_jobs = 60;
  options.num_files = 120;
  options.include_auxiliary = false;
  options.seed = seed;
  return datasets::MakeProvenanceGraph(options);
}

ViewDefinition JobConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

ViewDefinition FileConnector() {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "File";
  def.target_type = "File";
  return def;
}

/// Appends one isolated Job vertex through the writer API.
Status AppendJob(Engine* engine) {
  return engine->MutateBaseGraph([](PropertyGraph* g) {
    return g->AddVertex("Job", {{"CPU", PropertyValue(1.0)}}).status();
  });
}

// ---------------------------------------------------------------------------
// ViewCatalog
// ---------------------------------------------------------------------------

TEST(ViewCatalogTest, HandlesAreStableAcrossMutations) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  auto job = catalog.Add(JobConnector());
  ASSERT_TRUE(job.ok()) << job.status();
  auto file = catalog.Add(FileConnector());
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_NE(*job, *file);
  EXPECT_NE(*job, kInvalidViewHandle);

  const CatalogEntry* by_handle = catalog.Get(*job);
  ASSERT_NE(by_handle, nullptr);
  EXPECT_EQ(by_handle->name(), JobConnector().Name());
  // Dropping one entry leaves the other handle valid.
  ASSERT_TRUE(catalog.Remove(FileConnector().Name()).ok());
  EXPECT_EQ(catalog.Get(*file), nullptr);
  ASSERT_NE(catalog.Get(*job), nullptr);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(ViewCatalogTest, GenerationIsMonotonic) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  uint64_t g0 = catalog.generation();
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  uint64_t g1 = catalog.generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(catalog.RefreshAll().ok());
  uint64_t g2 = catalog.generation();
  EXPECT_GT(g2, g1);
  catalog.NoteBaseGraphChanged();
  uint64_t g3 = catalog.generation();
  EXPECT_GT(g3, g2);
  ASSERT_TRUE(catalog.Remove(JobConnector().Name()).ok());
  EXPECT_GT(catalog.generation(), g3);
}

TEST(ViewCatalogTest, DuplicateAndMissingNames) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  EXPECT_EQ(catalog.Add(JobConnector()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Remove("no_such_view").code(), StatusCode::kNotFound);
}

TEST(ViewCatalogTest, MaintainerAttachedOnlyForSupportedKinds) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());
  ViewDefinition agg;
  agg.kind = ViewKind::kVertexAggregatorSummarizer;
  agg.source_type = "Job";
  agg.group_by_property = "pipelineName";
  ASSERT_TRUE(catalog.Add(agg).ok());

  const CatalogEntry* connector = catalog.Find(JobConnector().Name());
  ASSERT_NE(connector, nullptr);
  EXPECT_NE(connector->maintainer, nullptr);
  const CatalogEntry* aggregator = catalog.Find(agg.Name());
  ASSERT_NE(aggregator, nullptr);
  EXPECT_EQ(aggregator->maintainer, nullptr);
}

// ---------------------------------------------------------------------------
// Plan cache correctness
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, InvalidatedByAddMaterializedView) {
  Engine engine(SmallProv());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto before = engine.Execute(text);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_FALSE(before->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  auto after = engine.Execute(text);
  ASSERT_TRUE(after.ok()) << after.status();
  // The cached raw plan must not survive the catalog change.
  EXPECT_TRUE(after->used_view);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
}

TEST(PlanCacheTest, InvalidatedByRefreshViews) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  ASSERT_TRUE(engine.Execute(text).ok());
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  ASSERT_TRUE(engine.RefreshViews().ok());
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 2u);  // stale generation: miss
  EXPECT_EQ(engine.plan_cache_hits(), 1u);    // telemetry preserved
}

TEST(PlanCacheTest, InvalidatedByBaseGraphMutation) {
  Engine engine(SmallProv());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  ASSERT_TRUE(AppendJob(&engine).ok());
  ASSERT_TRUE(engine.Execute(text).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
}

TEST(PlanCacheTest, RepeatedQueriesHitWithoutIntermediateChanges) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto first = engine.Execute(text);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto repeat = engine.Execute(text);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(repeat->view_name, first->view_name);
    EXPECT_EQ(repeat->table.num_rows(), first->table.num_rows());
  }
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 5u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PropertyGraph base = SmallProv();
  PlannerOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;  // deterministic eviction order
  Planner planner(options);
  ViewCatalog catalog(&base);

  const std::string q1 = datasets::AncestorsQueryText("Job", 4);
  const std::string q2 = datasets::DescendantsQueryText("Job", 4);
  const std::string q3 = "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";

  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());
  ASSERT_TRUE(planner.PlanFor(q2, base, catalog).ok());
  EXPECT_EQ(planner.cache_size(), 2u);
  ASSERT_TRUE(planner.PlanFor(q3, base, catalog).ok());  // evicts q1
  EXPECT_EQ(planner.cache_size(), 2u);
  EXPECT_EQ(planner.cache_misses(), 3u);

  ASSERT_TRUE(planner.PlanFor(q2, base, catalog).ok());  // still cached
  EXPECT_EQ(planner.cache_hits(), 1u);
  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());  // was evicted
  EXPECT_EQ(planner.cache_misses(), 4u);
}

TEST(PlanCacheTest, MissDropsEntriesOfOlderGenerations) {
  PropertyGraph base = SmallProv();
  PlannerOptions options;
  options.cache_shards = 1;
  Planner planner(options);
  ViewCatalog catalog(&base);

  const std::string q1 = datasets::AncestorsQueryText("Job", 4);
  const std::string q2 = datasets::DescendantsQueryText("Job", 4);
  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());
  ASSERT_TRUE(planner.PlanFor(q2, base, catalog).ok());
  EXPECT_EQ(planner.cache_size(), 2u);

  // Lookups key on the current generation, so plans of the old one can
  // never hit again: the next insert drops them.
  catalog.NoteBaseGraphChanged();
  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());
  EXPECT_EQ(planner.cache_size(), 1u);
  ASSERT_TRUE(planner.PlanFor(q1, base, catalog).ok());
  EXPECT_EQ(planner.cache_hits(), 1u);
  EXPECT_EQ(planner.cache_misses(), 3u);
}

TEST(PlanCacheTest, RemoveViewFallsBackToRawPlan) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);
  auto with_view = engine.Execute(text);
  ASSERT_TRUE(with_view.ok());
  EXPECT_TRUE(with_view->used_view);

  ASSERT_TRUE(engine.RemoveView(JobConnector().Name()).ok());
  auto without_view = engine.Execute(text);
  ASSERT_TRUE(without_view.ok()) << without_view.status();
  EXPECT_FALSE(without_view->used_view);
  // Row counts agree: the view was an equivalent rewrite.
  EXPECT_EQ(without_view->table.num_rows(), with_view->table.num_rows());
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

TEST(ExecuteBatchTest, MatchesSequentialExecute) {
  EngineOptions options;
  options.batch_workers = 4;
  Engine engine(SmallProv(), options);
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());

  std::vector<std::string> batch = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
      datasets::AncestorsQueryText("Job", 4),  // repeat: cache hit path
      "MATCH (this is not a query",            // per-query error isolation
  };

  std::vector<Result<ExecutionResult>> batched = engine.ExecuteBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto sequential = engine.Execute(batch[i]);
    ASSERT_EQ(batched[i].ok(), sequential.ok()) << batch[i];
    if (!sequential.ok()) continue;
    EXPECT_EQ(batched[i]->used_view, sequential->used_view);
    EXPECT_EQ(batched[i]->view_name, sequential->view_name);
    EXPECT_EQ(batched[i]->executed_query, sequential->executed_query);
    EXPECT_EQ(batched[i]->table.SortedRows(), sequential->table.SortedRows());
  }
}

TEST(ExecuteBatchTest, SingleWorkerAndEmptyBatch) {
  EngineOptions options;
  options.batch_workers = 1;
  Engine engine(SmallProv(), options);
  EXPECT_TRUE(engine.ExecuteBatch({}).empty());
  auto results = engine.ExecuteBatch({datasets::AncestorsQueryText("Job", 4)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

TEST(ExecuteBatchTest, PersistentPoolIsReusedAcrossBatches) {
  EngineOptions options;
  options.batch_workers = 4;
  Engine engine(SmallProv(), options);
  // Distinct shapes, so each query is its own task and the batch needs
  // multiple workers.
  std::vector<std::string> batch = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
  };
  EXPECT_EQ(engine.batch_pool_size(), 0u);  // lazy: nothing started yet
  for (int round = 0; round < 5; ++round) {
    auto results = engine.ExecuteBatch(batch);
    for (const auto& result : results) ASSERT_TRUE(result.ok());
    // The caller is one of the 4 workers, so the pool holds 3 threads —
    // started by the first batch and reused (not respawned) afterwards.
    EXPECT_EQ(engine.batch_pool_size(), 3u) << "round " << round;
  }
}

TEST(ExecuteBatchTest, ShapeGroupsFuseAndMatchSolo) {
  Engine engine(SmallProv());
  // Same shape, different constants: one fused group of 3. The
  // no-WHERE query is a different shape and runs solo.
  std::vector<std::string> batch = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_0' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_1' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_2' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
  };
  auto results = engine.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << batch[i] << ": " << results[i].status();
    auto solo = engine.Execute(batch[i]);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(results[i]->table.rows(), solo->table.rows()) << batch[i];
  }
  EXPECT_TRUE(results[0]->fused);
  EXPECT_TRUE(results[1]->fused);
  EXPECT_TRUE(results[2]->fused);
  EXPECT_FALSE(results[3]->fused);

  EngineTelemetry t = engine.TelemetrySnapshot();
  EXPECT_EQ(t.fused_groups, 1u);
  EXPECT_EQ(t.fused_members, 3u);
  EXPECT_GT(t.traversal_expansions, 0u);
  // The tracker saw the fused members as fused executions.
  size_t fused_hits = 0;
  for (const QueryObservation& obs : engine.workload().Snapshot().entries) {
    fused_hits += obs.fused_hits;
  }
  EXPECT_EQ(fused_hits, 3u);
}

TEST(ExecuteBatchTest, FusionRespectsGate) {
  std::vector<std::string> batch = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_0' "
      "RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_1' "
      "RETURN j, f",
  };
  {
    EngineOptions options;
    options.executor.fusion.enabled = false;
    Engine engine(SmallProv(), options);
    auto results = engine.ExecuteBatch(batch);
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok());
      EXPECT_FALSE(result->fused);
    }
    EXPECT_EQ(engine.TelemetrySnapshot().fused_groups, 0u);
  }
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, FourThreadExecuteSmoke) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::vector<std::string> queries = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::DescendantsQueryText("Job", 4),
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
      datasets::BlastRadiusQueryText(),
  };
  // Reference results, computed single-threaded.
  std::vector<size_t> expected_rows;
  for (const std::string& text : queries) {
    auto r = engine.Execute(text);
    ASSERT_TRUE(r.ok()) << r.status();
    expected_rows.push_back(r->table.num_rows());
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        size_t qi = (t + i) % queries.size();
        auto r = engine.Execute(queries[qi]);
        if (!r.ok() || r->table.num_rows() != expected_rows[qi]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every execution was either a hit or a miss; nothing was lost.
  EXPECT_EQ(engine.plan_cache_hits() + engine.plan_cache_misses(),
            static_cast<size_t>(kThreads * kItersPerThread) + queries.size());
}

TEST(ConcurrencyTest, ReadersInterleaveWithWriters) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  const std::string text = datasets::AncestorsQueryText("Job", 4);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine.Execute(text);
        if (!r.ok()) reader_failures.fetch_add(1);
      }
    });
  }
  // Writer: append vertices and refresh views while readers hammer away.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendJob(&engine).ok());
    ASSERT_TRUE(engine.RefreshViews().ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  // Still consistent after the dust settles.
  auto final_result = engine.Execute(text);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(final_result->used_view);
}

// ---------------------------------------------------------------------------
// ApplyDelta writer path
// ---------------------------------------------------------------------------

/// Canonical (orig_src, orig_dst, paths) multiset of a connector view.
std::multiset<std::tuple<int64_t, int64_t, int64_t>> ConnectorCanon(
    const MaterializedView& view) {
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> canon;
  const PropertyGraph& g = view.graph;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!g.IsEdgeLive(e)) continue;
    const graph::EdgeRecord& rec = g.Edge(e);
    canon.insert({g.VertexProperty(rec.source, "orig_id").as_int(),
                  g.VertexProperty(rec.target, "orig_id").as_int(),
                  g.EdgeProperty(e, "paths").as_int()});
  }
  return canon;
}

/// The deterministic delta sequence the ApplyDelta tests apply: delete
/// the i-th surviving seed edge on even steps, insert a fresh
/// WRITES_TO/IS_READ_BY pairing on odd ones.
std::vector<graph::GraphDelta> MakeDeltaSequence(const PropertyGraph& base,
                                                 int count) {
  std::vector<graph::GraphDelta> deltas;
  VertexId some_job = base.VerticesOfType(base.schema().FindVertexType("Job"))
                          .front();
  std::vector<VertexId> files =
      base.VerticesOfType(base.schema().FindVertexType("File"));
  for (int i = 0; i < count; ++i) {
    graph::GraphDelta delta;
    if (i % 2 == 0) {
      delta.RemoveEdge(static_cast<graph::EdgeId>(i));
    } else {
      VertexId file = files[static_cast<size_t>(i) % files.size()];
      delta.AddEdge(some_job, file, "WRITES_TO");
      delta.AddEdge(file, some_job, "IS_READ_BY");
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

TEST(ApplyDeltaTest, BatchMatchesSingletonDeltasAndScratch) {
  // The same mixed mutation set applied (a) as one batch, (b) as
  // singleton deltas, (c) by re-materializing from scratch must agree.
  PropertyGraph base_a = SmallProv();
  PropertyGraph base_b = SmallProv();
  Engine engine_a(std::move(base_a));
  Engine engine_b(std::move(base_b));
  ASSERT_TRUE(engine_a.AddMaterializedView(JobConnector()).ok());
  ASSERT_TRUE(engine_b.AddMaterializedView(JobConnector()).ok());

  std::vector<graph::GraphDelta> ops =
      MakeDeltaSequence(engine_a.base_graph(), 9);
  graph::GraphDelta batch;
  for (const graph::GraphDelta& op : ops) {
    for (const auto& ins : op.edge_inserts) batch.edge_inserts.push_back(ins);
    for (graph::EdgeId e : op.edge_removals) batch.RemoveEdge(e);
  }

  auto batched = engine_a.ApplyDelta(batch);
  ASSERT_TRUE(batched.ok()) << batched.status();
  for (const graph::GraphDelta& op : ops) {
    auto single = engine_b.ApplyDelta(op);
    ASSERT_TRUE(single.ok()) << single.status();
  }

  const CatalogEntry* view_a = engine_a.catalog().Find(JobConnector().Name());
  const CatalogEntry* view_b = engine_b.catalog().Find(JobConnector().Name());
  ASSERT_NE(view_a, nullptr);
  ASSERT_NE(view_b, nullptr);
  EXPECT_EQ(ConnectorCanon(view_a->view), ConnectorCanon(view_b->view));

  auto scratch = Materialize(engine_a.base_graph(), JobConnector());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(ConnectorCanon(view_a->view), ConnectorCanon(*scratch));
}

TEST(ApplyDeltaTest, GenerationBumpsOncePerBatch) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  graph::GraphDelta batch;
  std::vector<graph::GraphDelta> ops =
      MakeDeltaSequence(engine.base_graph(), 7);
  for (const graph::GraphDelta& op : ops) {
    for (const auto& ins : op.edge_inserts) batch.edge_inserts.push_back(ins);
    for (graph::EdgeId e : op.edge_removals) batch.RemoveEdge(e);
  }
  uint64_t before = engine.catalog().generation();
  ASSERT_TRUE(engine.ApplyDelta(batch).ok());
  EXPECT_EQ(engine.catalog().generation(), before + 1);
}

TEST(ApplyDeltaTest, RejectsInvalidDeltasWithoutMutating) {
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  size_t edges_before = engine.base_graph().NumLiveEdges();
  uint64_t gen_before = engine.catalog().generation();

  graph::GraphDelta bad;
  bad.RemoveEdge(static_cast<graph::EdgeId>(1u << 30));  // no such edge
  EXPECT_EQ(engine.ApplyDelta(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.base_graph().NumLiveEdges(), edges_before);

  graph::GraphDelta bad_type;
  bad_type.AddEdge(0, 0, "NO_SUCH_TYPE");
  EXPECT_EQ(engine.ApplyDelta(bad_type).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.base_graph().NumLiveEdges(), edges_before);
  // Failed deltas never advanced the catalog.
  EXPECT_EQ(engine.catalog().generation(), gen_before);
}

TEST(ConcurrencyTest, ApplyDeltaRacingReadersSeesOnlyDeltaBoundaries) {
  // Readers racing the ApplyDelta writer must observe a result that
  // matches some delta prefix — never a torn view. Row counts for every
  // prefix are precomputed on an engine without views (raw plans), then
  // readers hammer a view-rewritten engine while the writer applies the
  // same deltas.
  const std::string query =
      "MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) "
      "RETURN x, y";
  constexpr int kDeltas = 14;

  std::vector<graph::GraphDelta> deltas;
  std::set<size_t> expected_rows;
  size_t final_rows = 0;
  {
    Engine reference(SmallProv());
    deltas = MakeDeltaSequence(reference.base_graph(), kDeltas);
    auto r0 = reference.Execute(query);
    ASSERT_TRUE(r0.ok()) << r0.status();
    expected_rows.insert(r0->table.num_rows());
    for (const graph::GraphDelta& delta : deltas) {
      ASSERT_TRUE(reference.ApplyDelta(delta).ok());
      auto r = reference.Execute(query);
      ASSERT_TRUE(r.ok()) << r.status();
      expected_rows.insert(r->table.num_rows());
      final_rows = r->table.num_rows();
    }
  }

  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int> torn_results{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine.Execute(query);
        if (!r.ok()) {
          reader_failures.fetch_add(1);
          continue;
        }
        if (expected_rows.count(r->table.num_rows()) == 0) {
          torn_results.fetch_add(1);
        }
      }
    });
  }
  for (const graph::GraphDelta& delta : deltas) {
    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << report.status();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(torn_results.load(), 0);

  // After the dust settles the view-backed answer matches the reference
  // final state, and the rewrite is still in play.
  auto final_result = engine.Execute(query);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(final_result->used_view);
  EXPECT_EQ(final_result->table.num_rows(), final_rows);
}

// ---------------------------------------------------------------------------
// Base statistics: owned by the catalog, refreshed under the drift rule
// ---------------------------------------------------------------------------

const char kChainQuery[] =
    "MATCH (x:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(y:Job) "
    "RETURN x, y";

/// Count-preserving churn: removes the oldest live edge and re-inserts
/// one with the same endpoints and type.
graph::GraphDelta SwapOldestEdge(const PropertyGraph& g) {
  graph::EdgeId e = 0;
  while (!g.IsEdgeLive(e)) ++e;
  graph::GraphDelta delta;
  delta.RemoveEdge(e);
  delta.AddEdge(g.Edge(e).source, g.Edge(e).target, g.EdgeTypeName(e));
  return delta;
}

/// One batch of Job->File edges that grows |E| by about 20%, spread
/// round-robin over the jobs so their out-degree profile moves.
graph::GraphDelta GrowJobEdges(const PropertyGraph& g) {
  std::vector<VertexId> jobs =
      g.VerticesOfType(g.schema().FindVertexType("Job"));
  std::vector<VertexId> files =
      g.VerticesOfType(g.schema().FindVertexType("File"));
  graph::GraphDelta delta;
  const size_t count = g.NumLiveEdges() / 5 + 8;
  for (size_t i = 0; i < count; ++i) {
    delta.AddEdge(jobs[i % jobs.size()], files[(i * 7) % files.size()],
                  "WRITES_TO");
  }
  return delta;
}

/// The plan a planner picks for `text` over a catalog built fresh on
/// `base`, i.e. over freshly computed base statistics.
Plan FreshPlan(const PropertyGraph& base, const std::string& text) {
  ViewCatalog fresh(&base);
  Planner planner;
  Plan plan;
  auto query = query::ParseQueryText(text);
  EXPECT_TRUE(query.ok());
  EXPECT_TRUE(planner.ChoosePlan(*query, base, fresh, &plan).ok());
  return plan;
}

/// Runs `text` on `engine` and expects the plan it ran to equal the
/// plan over freshly computed statistics; returns its estimated cost.
double ExpectPlanOnFreshStats(Engine* engine, const std::string& text) {
  auto result = engine->Execute(text);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0;
  const Plan fresh = FreshPlan(engine->base_graph(), text);
  EXPECT_EQ(result->view_name, fresh.view_name);
  EXPECT_EQ(result->executed_query, fresh.executed_query);
  EXPECT_DOUBLE_EQ(result->estimated_cost, fresh.estimated_cost);
  return result->estimated_cost;
}

TEST(BaseStatsTest, RefreshFollowsTheDriftRule) {
  Engine engine(SmallProv());
  auto refreshes = [&] {
    return engine.TelemetrySnapshot().base_stats_refreshes;
  };
  ASSERT_EQ(refreshes(), 0u);
  const double cost_before = ExpectPlanOnFreshStats(&engine, kChainQuery);

  // Count-preserving edge swaps never drift the live counts.
  const size_t edges = engine.base_graph().NumLiveEdges();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.ApplyDelta(SwapOldestEdge(engine.base_graph())).ok());
    ASSERT_TRUE(engine.Execute(kChainQuery).ok());
  }
  EXPECT_EQ(engine.base_graph().NumLiveEdges(), edges);
  EXPECT_EQ(refreshes(), 0u);

  // One batch growing |E| past 10%: exactly one refresh, and the plan
  // is costed on exact statistics again.
  ASSERT_TRUE(engine.ApplyDelta(GrowJobEdges(engine.base_graph())).ok());
  EXPECT_EQ(refreshes(), 1u);
  const double cost_after = ExpectPlanOnFreshStats(&engine, kChainQuery);
  EXPECT_NE(cost_after, cost_before);  // the statistics moved the plan

  // An announced out-of-band change always refreshes.
  ASSERT_TRUE(AppendJob(&engine).ok());
  EXPECT_EQ(refreshes(), 2u);
  ExpectPlanOnFreshStats(&engine, kChainQuery);
}

TEST(BaseStatsTest, UnannouncedBaseChangeIsCostedFreshWithoutCaching) {
  PropertyGraph base = SmallProv();
  ViewCatalog catalog(&base);
  const std::shared_ptr<const graph::GraphStats> owned = catalog.BaseStats();
  EXPECT_EQ(catalog.BaseStats(), owned);  // no per-call work

  // Mutated behind the catalog's back: each call computes its own.
  const VertexId job =
      base.VerticesOfType(base.schema().FindVertexType("Job")).front();
  const VertexId file =
      base.VerticesOfType(base.schema().FindVertexType("File")).front();
  ASSERT_TRUE(base.AddEdge(job, file, "WRITES_TO").ok());
  const std::shared_ptr<const graph::GraphStats> fresh = catalog.BaseStats();
  EXPECT_NE(fresh, owned);
  EXPECT_EQ(fresh->num_edges(), base.NumLiveEdges());
  EXPECT_NE(catalog.BaseStats(), fresh);
  EXPECT_EQ(catalog.base_stats_refreshes(), 0u);

  // Announcing the change makes the catalog's copy current again.
  catalog.NoteBaseGraphChanged();
  EXPECT_EQ(catalog.base_stats_refreshes(), 1u);
  EXPECT_EQ(catalog.BaseStats()->num_edges(), base.NumLiveEdges());
  EXPECT_EQ(catalog.BaseStats(), catalog.BaseStats());
}

TEST(ConcurrencyTest, PlanCacheMissesRaceBaseStatsRefresh) {
  // Four readers plan a new text on every call (all plan-cache misses)
  // while a writer churns the base and then crosses the drift
  // threshold once.
  Engine engine(SmallProv());
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string text =
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'job_" +
            std::to_string(t * 1000000 + i) + "' RETURN j, f";
        if (!engine.Execute(text).ok()) reader_failures.fetch_add(1);
        reads.fetch_add(1);
        // Leaves the writer gaps between shared-lock holds.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  // Each delta waits for a few more reads, so every write lands among
  // planning readers.
  int reads_before_next = 4;
  auto apply = [&](const graph::GraphDelta& delta) {
    while (reads.load() < reads_before_next) std::this_thread::yield();
    reads_before_next += 4;
    return engine.ApplyDelta(delta).status();
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(apply(SwapOldestEdge(engine.base_graph())).ok());
  }
  ASSERT_TRUE(apply(GrowJobEdges(engine.base_graph())).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(apply(SwapOldestEdge(engine.base_graph())).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(engine.TelemetrySnapshot().base_stats_refreshes, 1u);
  EXPECT_GT(engine.TelemetrySnapshot().plan_cache_misses, 0u);
  // The swaps re-insert the edges they remove, so the statistics of
  // the one refresh are still exact for the final graph.
  ExpectPlanOnFreshStats(&engine, kChainQuery);
}

// Four readers make the first probe of one (type, key) equality index at
// the same moment while ExecuteBatch runs index-seeded fused groups
// beside them. The lazy build is serialized by the graph's index mutex
// (the CI TSan job runs this test); every answer equals what a
// single-threaded engine returns.
TEST(ConcurrencyTest, FirstIndexProbesRaceExecuteBatch) {
  datasets::SocialOptions social;
  social.num_vertices = 2000;
  const PropertyGraph graph = datasets::MakeSocialGraph(social);
  auto text_for = [](int person) {
    return "MATCH (a:Person)-[:FOLLOWS]->(b:Person) WHERE a.handle = "
           "'person_" +
           std::to_string(person) + "' RETURN a, b";
  };
  std::vector<std::string> reader_texts;
  std::vector<std::string> batch;
  for (int i = 0; i < 4; ++i) reader_texts.push_back(text_for(i * 7));
  for (int i = 0; i < 6; ++i) batch.push_back(text_for(100 + i * 13));

  // Reference answers from a separate engine, one query at a time.
  Engine reference{PropertyGraph(graph)};
  auto expected = [&](const std::string& text) {
    auto r = reference.Execute(text);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->table.rows() : std::vector<query::Table::Row>{};
  };

  Engine engine{PropertyGraph(graph)};
  std::latch start(5);
  std::atomic<int> reader_failures{0};
  std::vector<std::vector<query::Table::Row>> reader_results(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      start.arrive_and_wait();
      auto r = engine.Execute(reader_texts[t]);
      if (!r.ok()) reader_failures.fetch_add(1);
      reader_results[t] = r.ok() ? r->table.rows()
                                 : std::vector<query::Table::Row>{};
    });
  }
  start.arrive_and_wait();
  auto batch_results = engine.ExecuteBatch(batch);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(reader_failures.load(), 0);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(reader_results[t], expected(reader_texts[t])) << reader_texts[t];
  }
  ASSERT_EQ(batch_results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch_results[i].ok()) << batch_results[i].status();
    EXPECT_EQ(batch_results[i]->table.rows(), expected(batch[i])) << batch[i];
  }
  const EngineTelemetry telemetry = engine.TelemetrySnapshot();
  EXPECT_GT(telemetry.fused_groups, 0u);
  // Four solo reads plus at least the one fused group.
  EXPECT_GE(telemetry.index_seeded_matches, 5u);
}

}  // namespace
}  // namespace kaskade::core
