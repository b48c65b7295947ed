// Randomized differential-testing harness for full delta maintenance
// and for the CSR-backed query executor:
//
// - seeded mutation sequences (single inserts, single deletes, and mixed
//   batches; uniform and skewed operand choice) run through
//   Engine::ApplyDelta, asserting after every prefix that each
//   registered view's live edge multiset — including "paths"
//   multiplicities and view_to_base lineage — equals Materialize() run
//   from scratch over the mutated base graph;
// - the same mutation generator drives the executor differential: after
//   every delta batch the CSR snapshot is rebuilt and a query suite must
//   return the legacy evaluator's exact row set, with parallel CSR
//   execution byte-identical to sequential CSR execution.
//
// Doubles as a sanitizer fuzz driver under the CI ASan/UBSan job.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/maintenance.h"
#include "core/materializer.h"
#include "core/segment_store.h"
#include "csr_test_util.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "graph/schema.h"
#include "query/executor.h"
#include "query/fused_runner.h"
#include "query/parser.h"
#include "table_test_util.h"

namespace kaskade::core {
namespace {

using graph::EdgeId;
using graph::GraphDelta;
using graph::GraphSchema;
using graph::PropertyGraph;
using graph::PropertyMap;
using graph::PropertyValue;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Fixture graph: a heterogeneous lineage schema exercising every
// supported view kind (bipartite Job/File core for connectors, auxiliary
// Task/User types for the summarizers to keep or prune).
// ---------------------------------------------------------------------------

GraphSchema DeltaSchema() {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  schema.AddVertexType("Task");
  schema.AddVertexType("User");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
  EXPECT_TRUE(schema.AddEdgeType("SPAWNS", "Job", "Task").ok());
  EXPECT_TRUE(schema.AddEdgeType("SUBMITS", "User", "Job").ok());
  return schema;
}

/// Every view kind the maintainer supports, plus predicate coverage.
std::vector<ViewDefinition> AllMaintainableViews() {
  std::vector<ViewDefinition> defs;
  {
    ViewDefinition d;
    d.kind = ViewKind::kKHopConnector;
    d.k = 2;
    d.source_type = "Job";
    d.target_type = "Job";
    defs.push_back(d);
    d.k = 4;  // longer paths: deeper splits, closed paths, orphan GC
    defs.push_back(d);
  }
  {
    ViewDefinition d;
    d.kind = ViewKind::kVertexInclusionSummarizer;
    d.type_list = {"Job", "File"};
    defs.push_back(d);
  }
  {
    ViewDefinition d;
    d.kind = ViewKind::kVertexRemovalSummarizer;
    d.type_list = {"Task"};
    defs.push_back(d);
  }
  {
    ViewDefinition d;
    d.kind = ViewKind::kEdgeInclusionSummarizer;
    d.type_list = {"WRITES_TO", "IS_READ_BY"};
    defs.push_back(d);
  }
  {
    ViewDefinition d;
    d.kind = ViewKind::kEdgeRemovalSummarizer;
    d.type_list = {"SUBMITS"};
    defs.push_back(d);
  }
  {
    // Footnote-5 predicate path: only hot WRITES_TO edges survive.
    ViewDefinition d;
    d.kind = ViewKind::kEdgeInclusionSummarizer;
    d.type_list = {"WRITES_TO"};
    d.predicate_property = "hot";
    d.predicate_op = PredicateOp::kEq;
    d.predicate_value = PropertyValue(static_cast<int64_t>(1));
    defs.push_back(d);
  }
  return defs;
}

// ---------------------------------------------------------------------------
// Canonicalization: a view graph keyed by base-graph lineage, invariant
// under vertex/edge id assignment and insertion order.
// ---------------------------------------------------------------------------

struct CanonicalView {
  std::multiset<std::tuple<int64_t, int64_t, std::string, int64_t>> edges;
  std::multiset<int64_t> vertices;

  bool operator==(const CanonicalView&) const = default;
};

CanonicalView Canonicalize(const MaterializedView& view) {
  CanonicalView canon;
  const PropertyGraph& g = view.graph;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!g.IsVertexLive(v)) continue;
    int64_t orig = g.VertexProperty(v, "orig_id").as_int();
    // Lineage invariant: the orig_id property and the view_to_base
    // vector must agree for every live view vertex.
    EXPECT_EQ(orig, static_cast<int64_t>(view.view_to_base[v]))
        << "lineage mismatch for view vertex " << v;
    canon.vertices.insert(orig);
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!g.IsEdgeLive(e)) continue;
    const graph::EdgeRecord& rec = g.Edge(e);
    PropertyValue paths = g.EdgeProperty(e, "paths");
    canon.edges.insert({g.VertexProperty(rec.source, "orig_id").as_int(),
                        g.VertexProperty(rec.target, "orig_id").as_int(),
                        g.schema().edge_type(rec.type).name,
                        paths.is_int() ? paths.as_int() : 1});
  }
  return canon;
}

// ---------------------------------------------------------------------------
// Mutation-sequence generator.
// ---------------------------------------------------------------------------

struct MutationState {
  std::mt19937_64 rng;
  bool skewed = false;
  std::vector<VertexId> by_type[4];  // Job, File, Task, User
  std::vector<EdgeId> live_edges;

  explicit MutationState(uint64_t seed, bool skew)
      : rng(seed), skewed(skew) {}

  double UniformReal() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  }

  /// Index into [0, n): uniform, or biased toward low indices (skewed
  /// operand choice concentrates mutations on a few hub vertices).
  size_t PickIndex(size_t n) {
    double u = UniformReal();
    if (skewed) u = u * u;
    size_t i = static_cast<size_t>(u * static_cast<double>(n));
    return i < n ? i : n - 1;
  }

  /// Live edge to delete: uniform, or biased toward recent insertions.
  EdgeId PickLiveEdge() {
    double u = UniformReal();
    if (skewed) u = 1.0 - u * u;  // favour the back (newest)
    size_t i = static_cast<size_t>(u * static_cast<double>(live_edges.size()));
    if (i >= live_edges.size()) i = live_edges.size() - 1;
    return live_edges[i];
  }

  void ForgetEdge(EdgeId e) {
    for (size_t i = 0; i < live_edges.size(); ++i) {
      if (live_edges[i] == e) {
        live_edges.erase(live_edges.begin() + i);
        return;
      }
    }
  }

  PropertyMap RandomVertexProps() {
    PropertyMap props;
    props.Set("hot", PropertyValue(static_cast<int64_t>(rng() % 2)));
    return props;
  }

  /// One random edge insert (endpoints drawn per the skew mode).
  GraphDelta::EdgeInsert RandomEdgeInsert() {
    static const struct {
      const char* name;
      int src_type;
      int dst_type;
    } kEdgeKinds[] = {{"WRITES_TO", 0, 1},
                      {"IS_READ_BY", 1, 0},
                      {"SPAWNS", 0, 2},
                      {"SUBMITS", 3, 0}};
    const auto& kind = kEdgeKinds[rng() % 4];
    PropertyMap props;
    props.Set("hot", PropertyValue(static_cast<int64_t>(rng() % 2)));
    return GraphDelta::EdgeInsert{
        by_type[kind.src_type][PickIndex(by_type[kind.src_type].size())],
        by_type[kind.dst_type][PickIndex(by_type[kind.dst_type].size())],
        kind.name, std::move(props)};
  }
};

/// Seeds `engine`'s base graph population into `state` (ids are dense,
/// so the test can reconstruct them from counts). `scale` multiplies
/// every count: 100 spans three CSR segments, the last one partial.
void SeedGraph(PropertyGraph* g, MutationState* state, size_t scale = 1) {
  const char* kTypes[4] = {"Job", "File", "Task", "User"};
  const size_t kCounts[4] = {8, 10, 5, 3};
  for (int t = 0; t < 4; ++t) {
    for (size_t i = 0; i < kCounts[t] * scale; ++i) {
      state->by_type[t].push_back(
          g->AddVertex(kTypes[t], state->RandomVertexProps()).value());
    }
  }
  for (size_t i = 0; i < 20 * scale; ++i) {
    GraphDelta::EdgeInsert ins = state->RandomEdgeInsert();
    state->live_edges.push_back(
        g->AddEdge(ins.source, ins.target, ins.type_name, ins.properties)
            .value());
  }
}

// ---------------------------------------------------------------------------
// The differential harness.
// ---------------------------------------------------------------------------

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DifferentialTest, MaintainedViewsMatchScratchAtEveryPrefix) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed, skewed);
  PropertyGraph base(DeltaSchema());
  SeedGraph(&base, &state);

  Engine engine(std::move(base));
  std::vector<ViewDefinition> defs = AllMaintainableViews();
  for (const ViewDefinition& def : defs) {
    ASSERT_TRUE(engine.AddMaterializedView(def).ok()) << def.Name();
  }

  constexpr int kSteps = 210;
  size_t incremental_total = 0;
  for (int step = 0; step < kSteps; ++step) {
    GraphDelta delta;
    double dice = state.UniformReal();
    if (dice < 0.55 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
      if (state.UniformReal() < 0.03) {
        // Occasionally grow the vertex population through the delta
        // path, wiring the newcomer in by its future id.
        delta.AddVertex("Job", state.RandomVertexProps());
        delta.AddEdge(
            static_cast<VertexId>(engine.base_graph().NumVertices()),
            state.by_type[1][state.PickIndex(state.by_type[1].size())],
            "WRITES_TO", state.RandomVertexProps());
      }
    } else if (dice < 0.85) {
      delta.RemoveEdge(state.PickLiveEdge());
    } else {
      // Mixed batch: several inserts and distinct deletes in one delta.
      size_t ops = 2 + state.rng() % 5;
      std::set<EdgeId> doomed;
      for (size_t i = 0; i < ops; ++i) {
        if (state.UniformReal() < 0.6 ||
            doomed.size() + 4 > state.live_edges.size()) {
          delta.edge_inserts.push_back(state.RandomEdgeInsert());
        } else {
          doomed.insert(state.PickLiveEdge());
        }
      }
      for (EdgeId e : doomed) delta.RemoveEdge(e);
    }

    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.status();
    incremental_total += report->views_incremental;
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : report->new_edges) state.live_edges.push_back(e);
    for (VertexId v : report->new_vertices) state.by_type[0].push_back(v);

    for (const ViewDefinition& def : defs) {
      const CatalogEntry* entry = engine.catalog().Find(def.Name());
      ASSERT_NE(entry, nullptr) << def.Name();
      auto scratch = Materialize(engine.base_graph(), def);
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      ASSERT_EQ(Canonicalize(entry->view), Canonicalize(*scratch))
          << def.Name() << " diverged at step " << step << " (seed " << seed
          << (skewed ? ", skewed)" : ", uniform)");
    }
  }
  // The harness must actually exercise the incremental path, not pass
  // trivially because the cost model re-materialized everything.
  EXPECT_GT(incremental_total, static_cast<size_t>(kSteps) * defs.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, DifferentialTest,
    ::testing::Combine(::testing::Values(11u, 22u, 33u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Executor differential: the CSR-backed MATCH backend must return the
// legacy evaluator's exact row set across randomized mutation sequences
// (snapshot rebuilt after each delta batch), and parallel execution must
// be byte-identical to sequential execution for every query.
// ---------------------------------------------------------------------------

/// Query suite over the DeltaSchema: typed chains, untyped nodes,
/// variable-length expansions incl. min_hops == 0, WHERE filters, a
/// cycle-closing filter edge, and a variable-length filter edge.
const char* const kExecutorQueries[] = {
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a, b",
    "MATCH (x)-[:SUBMITS]->(j:Job) RETURN x, j",
    "MATCH (a:File)-[r*0..4]->(b:File) RETURN a, b",
    "MATCH (a:Job)-[r*1..3]->(b:Task) RETURN a, b",
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 RETURN j, f",
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (a:Job)-[:SPAWNS]->(t:Task) "
    "(a:Job)-[:WRITES_TO]->(g:File) RETURN f, t, g",
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
    "(a:Job)-[r*2..2]->(b:Job) RETURN a, b",
};

using testutil::CanonicalRows;

TEST_P(DifferentialTest, CsrExecutorMatchesLegacyAcrossMutations) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed + 5000, skewed);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);

  constexpr int kSteps = 40;
  for (int step = 0; step < kSteps; ++step) {
    GraphDelta delta;
    double dice = state.UniformReal();
    if (dice < 0.55 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
    } else if (dice < 0.8) {
      delta.RemoveEdge(state.PickLiveEdge());
    } else {
      size_t ops = 2 + state.rng() % 4;
      std::set<EdgeId> doomed;
      for (size_t i = 0; i < ops; ++i) {
        if (state.UniformReal() < 0.6 ||
            doomed.size() + 4 > state.live_edges.size()) {
          delta.edge_inserts.push_back(state.RandomEdgeInsert());
        } else {
          doomed.insert(state.PickLiveEdge());
        }
      }
      for (EdgeId e : doomed) delta.RemoveEdge(e);
    }
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);

    // Snapshot rebuilt after each delta batch, exactly as the catalog's
    // generation-keyed cache would.
    graph::CsrGraph csr = graph::CsrGraph::Build(g);
    query::QueryExecutor legacy(&g);
    query::QueryExecutor csr_seq(&g, &csr);
    query::ExecutorOptions parallel_opts;
    parallel_opts.parallelism = 4;
    query::QueryExecutor csr_par(&g, &csr, parallel_opts);
    for (const char* text : kExecutorQueries) {
      auto expected = legacy.ExecuteText(text);
      ASSERT_TRUE(expected.ok()) << text << ": " << expected.status();
      auto sequential = csr_seq.ExecuteText(text);
      ASSERT_TRUE(sequential.ok()) << text << ": " << sequential.status();
      EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*sequential))
          << text << " diverged from legacy at step " << step << " (seed "
          << seed << (skewed ? ", skewed)" : ", uniform)");
      auto parallel = csr_par.ExecuteText(text);
      ASSERT_TRUE(parallel.ok()) << text << ": " << parallel.status();
      ASSERT_EQ(sequential->num_rows(), parallel->num_rows()) << text;
      for (size_t r = 0; r < sequential->num_rows(); ++r) {
        ASSERT_EQ(sequential->rows()[r], parallel->rows()[r])
            << text << " row " << r << " differs between sequential and "
            << "parallel at step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-fusion differential: ExecuteBatch with cross-query fusion on
// and off must both return tables byte-identical (rows *in order*) to
// sequential Execute of the same texts, across randomized mutation
// sequences. The batch deliberately mixes shapes: a 3-member
// constant-variant group, a 2-member group, duplicate texts, the full
// mixed-shape suite as singletons, and non-fusable SELECT shells.
// ---------------------------------------------------------------------------

/// The batch the fusion differential executes: same-shape groups arise
/// from constant variants (hot = 0 vs 1) and duplicate texts.
std::vector<std::string> FusionBatch() {
  std::vector<std::string> batch = {
      // Shape group of 3: identical structure, constants differ.
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 0 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 RETURN j, f",
      // Shape group of 2.
      "MATCH (x:User)-[:SUBMITS]->(j:Job) WHERE j.hot = 0 RETURN x, j",
      "MATCH (x:User)-[:SUBMITS]->(j:Job) WHERE j.hot = 1 RETURN x, j",
      // Variable-length shape group of 2 via duplicate text.
      "MATCH (a:File)-[r*0..4]->(b:File) RETURN a, b",
      "MATCH (a:File)-[r*0..4]->(b:File) RETURN a, b",
      // A SELECT shell: never fusable, must still batch correctly.
      "SELECT COUNT(*) FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) "
      "RETURN j, f)",
  };
  for (const char* text : kExecutorQueries) batch.emplace_back(text);
  return batch;
}

void ExpectTablesIdentical(const query::Table& expected,
                           const query::Table& actual,
                           const std::string& context) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << context;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    EXPECT_EQ(expected.columns()[c].name, actual.columns()[c].name)
        << context << " column " << c;
  }
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    ASSERT_EQ(expected.rows()[r], actual.rows()[r])
        << context << " row " << r << " differs";
  }
}

TEST_P(DifferentialTest, FusedBatchMatchesSequentialAcrossMutations) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed + 13000, skewed);
  PropertyGraph base(DeltaSchema());
  SeedGraph(&base, &state);

  // Two engines over identical graphs and identical delta streams:
  // fusion on (default) and fusion off.
  EngineOptions fused_opts;
  EngineOptions unfused_opts;
  unfused_opts.executor.fusion.enabled = false;
  Engine fused(PropertyGraph(base), fused_opts);
  Engine unfused(std::move(base), unfused_opts);
  Engine* engines[] = {&fused, &unfused};

  const std::vector<std::string> batch = FusionBatch();
  // Batch-only expansion work per engine: the solo oracle runs below
  // also bump the fused engine's lifetime counter, so the fused-vs-
  // unfused comparison must difference around each ExecuteBatch call.
  uint64_t batch_expansions[2] = {0, 0};
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    // Sequential solo runs are the oracle; the engines' graphs are
    // identical, so one engine's solo tables must equal every engine's
    // batch tables.
    std::vector<query::Table> expected;
    for (const std::string& text : batch) {
      auto solo = fused.Execute(text);
      ASSERT_TRUE(solo.ok()) << text << ": " << solo.status();
      expected.push_back(std::move(solo->table));
    }
    for (size_t e = 0; e < 2; ++e) {
      Engine* engine = engines[e];
      const uint64_t before = engine->traversal_expansions();
      auto results = engine->ExecuteBatch(batch);
      batch_expansions[e] += engine->traversal_expansions() - before;
      ASSERT_EQ(results.size(), batch.size());
      for (size_t i = 0; i < results.size(); ++i) {
        const std::string context =
            batch[i] + " at step " + std::to_string(step) + " (seed " +
            std::to_string(seed) + (skewed ? ", skewed)" : ", uniform)");
        ASSERT_TRUE(results[i].ok()) << context << ": "
                                     << results[i].status();
        ExpectTablesIdentical(expected[i], results[i]->table, context);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }

    // Same mutation for every engine; ids stay aligned because the
    // graphs evolve in lockstep.
    GraphDelta delta;
    double dice = state.UniformReal();
    if (dice < 0.6 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
    } else {
      delta.RemoveEdge(state.PickLiveEdge());
    }
    bool tracked = false;
    for (Engine* engine : engines) {
      auto report = engine->ApplyDelta(delta);
      ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.status();
      if (!tracked) {
        for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
        for (EdgeId e : report->new_edges) state.live_edges.push_back(e);
        tracked = true;
      }
    }
  }

  // The run must have exercised fusion where configured, and only
  // there.
  EngineTelemetry on = fused.TelemetrySnapshot();
  EngineTelemetry off = unfused.TelemetrySnapshot();
  EXPECT_GT(on.fused_groups, 0u);
  EXPECT_GT(on.fused_members, 0u);
  EXPECT_EQ(off.fused_groups, 0u);
  EXPECT_EQ(off.fused_members, 0u);
  // Fusion pays each group's traversal once where the unfused engine
  // pays per member; the batches the two engines ran are identical.
  EXPECT_LT(batch_expansions[0], batch_expansions[1]);
}

// ---------------------------------------------------------------------------
// Equality seed index differential: reads whose first plan node carries
// a string `=` conjunct take their seeds from the graph's equality index.
// Across mutation streams that also add, remove and rename vertices,
// every such read must return the legacy backtracker's rows, and exactly
// the table (row order included) of the same read written as a range,
// which still scans its type. A k=2 connector view maintained beside the
// base is held to the same index-vs-scan identity, so the view graph's
// index follows vertex collection and re-adds.
// ---------------------------------------------------------------------------

constexpr const char* kNamePool[] = {"n0", "n1", "n2", "n3"};

/// Index-seeded read templates; `$` is replaced by the name constant.
constexpr const char* kIndexedReads[] = {
    "MATCH (j:Job) WHERE j.name = $ RETURN j",
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = $ RETURN j, f",
    // The string conjunct is the second one: the first `=` on an int
    // constant does not qualify.
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 AND j.name = $ "
    "RETURN j, f",
    "MATCH (j:Job)-[r*1..3]->(b:Job) WHERE j.name = $ RETURN j, b",
};

/// The subset that also runs on a Job -> Job connector view.
constexpr const char* kIndexedViewReads[] = {
    "MATCH (j:Job) WHERE j.name = $ RETURN j",
    "MATCH (j:Job)-[r*1..2]->(b:Job) WHERE j.name = $ RETURN j, b",
};

std::string Instantiate(const std::string& tmpl, const std::string& cond) {
  std::string text = tmpl;
  const size_t at = text.find("j.name = $");
  return text.replace(at, std::string("j.name = $").size(), cond);
}

/// Runs each of `templates` for every pool name on `g` (whose snapshot
/// is `csr`) and checks the index-vs-scan identity; with `legacy_oracle`
/// also the legacy backtracker's rows.
template <size_t N>
void ExpectIndexedReadsExact(const char* const (&templates)[N],
                             const PropertyGraph& g,
                             const graph::CsrGraph& csr, bool legacy_oracle,
                             const std::string& context) {
  query::QueryExecutor legacy(&g);
  query::QueryExecutor runner(&g, &csr);
  for (const char* tmpl : templates) {
    for (const char* name : kNamePool) {
      const std::string constant = std::string("'") + name + "'";
      const std::string eq = Instantiate(tmpl, "j.name = " + constant);
      const std::string range = Instantiate(
          tmpl, "j.name >= " + constant + " AND j.name <= " + constant);
      const std::string at = eq + " " + context;
      query::ExecutionTiming eq_timing;
      query::ExecutionTiming range_timing;
      auto indexed = runner.ExecuteText(eq, &eq_timing);
      auto scanned = runner.ExecuteText(range, &range_timing);
      ASSERT_TRUE(indexed.ok()) << at << ": " << indexed.status();
      ASSERT_TRUE(scanned.ok()) << at << ": " << scanned.status();
      EXPECT_TRUE(eq_timing.index_seeded) << at;
      EXPECT_FALSE(range_timing.index_seeded) << at;
      ExpectTablesIdentical(*scanned, *indexed, at);
      if (legacy_oracle) {
        auto expected = legacy.ExecuteText(eq);
        ASSERT_TRUE(expected.ok()) << at << ": " << expected.status();
        EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*indexed)) << at;
      }
    }
  }
}

TEST_P(DifferentialTest, IndexSeededReadsMatchLegacyAcrossMutations) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed + 17000, skewed);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);
  auto random_name = [&] {
    return PropertyValue(kNamePool[state.rng() % std::size(kNamePool)]);
  };
  for (VertexId v : state.by_type[0]) {
    ASSERT_TRUE(g.SetVertexProperty(v, "name", random_name()).ok());
  }
  // Files outnumber jobs throughout, so the plans seed at the job node.
  for (int i = 0; i < 30; ++i) {
    state.by_type[1].push_back(
        g.AddVertex("File", state.RandomVertexProps()).value());
  }
  const ViewDefinition connector{.kind = ViewKind::kKHopConnector,
                                 .k = 2,
                                 .source_type = "Job",
                                 .target_type = "Job"};
  auto view = Materialize(g, connector);
  ASSERT_TRUE(view.ok()) << view.status();
  auto maintainer = std::make_unique<ViewMaintainer>(&g, &*view);
  // Named but never wired: the only vertices this test removes.
  std::vector<VertexId> isolated;

  constexpr int kSteps = 40;
  for (int step = 0; step < kSteps; ++step) {
    const double dice = state.UniformReal();
    if (dice < 0.45 || state.live_edges.size() < 4) {
      GraphDelta delta;
      if (dice < 0.3 || state.live_edges.size() < 4) {
        delta.edge_inserts.push_back(state.RandomEdgeInsert());
      } else {
        delta.RemoveEdge(state.PickLiveEdge());
      }
      auto applied = graph::ApplyDeltaToGraph(&g, delta);
      ASSERT_TRUE(applied.ok()) << applied.status();
      auto maintained = maintainer->ApplyDelta(delta);
      ASSERT_TRUE(maintained.ok()) << maintained.status();
      for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
      for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);
    } else if (dice < 0.75) {
      // Rename a job: to another name, or to an int (leaves the index).
      const VertexId v =
          state.by_type[0][state.PickIndex(state.by_type[0].size())];
      PropertyValue value = state.UniformReal() < 0.25
                                ? PropertyValue(static_cast<int64_t>(5))
                                : random_name();
      ASSERT_TRUE(g.SetVertexProperty(v, "name", std::move(value)).ok());
    } else if (dice < 0.9 || isolated.empty()) {
      PropertyMap props = state.RandomVertexProps();
      props.Set("name", random_name());
      const VertexId v = g.AddVertex("Job", std::move(props)).value();
      if (state.UniformReal() < 0.5) {
        isolated.push_back(v);
      } else {
        state.by_type[0].push_back(v);  // later inserts may wire it
      }
    } else {
      ASSERT_TRUE(g.RemoveVertex(isolated.back()).ok());
      isolated.pop_back();
      // Vertex removals are out of band for a maintainer: rebuild the
      // view, as the catalog does.
      view = Materialize(g, connector);
      ASSERT_TRUE(view.ok()) << view.status();
      maintainer = std::make_unique<ViewMaintainer>(&g, &*view);
    }

    const std::string context = "at step " + std::to_string(step) +
                                " (seed " + std::to_string(seed) +
                                (skewed ? ", skewed)" : ", uniform)");
    graph::CsrGraph csr = graph::CsrGraph::Build(g);
    ExpectIndexedReadsExact(kIndexedReads, g, csr, /*legacy_oracle=*/true,
                            context);
    graph::CsrGraph view_csr = graph::CsrGraph::Build(view->graph);
    ExpectIndexedReadsExact(kIndexedViewReads, view->graph, view_csr,
                            /*legacy_oracle=*/false, "on the view " + context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A fused group handed a snapshot that no longer matches its property
// graph must trip the staleness check for every member instead of
// silently traversing a stale topology.
TEST(FusedRunnerTest, StaleSnapshotFailsEveryMember) {
  MutationState state(41, /*skew=*/false);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);
  graph::CsrGraph csr = graph::CsrGraph::Build(g);

  // Mutate the graph after the snapshot was taken.
  GraphDelta::EdgeInsert ins = state.RandomEdgeInsert();
  ASSERT_TRUE(g.AddEdge(ins.source, ins.target, ins.type_name,
                        ins.properties)
                  .ok());

  auto q0 = query::ParseQueryText(
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 0 RETURN j, f");
  auto q1 = query::ParseQueryText(
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 RETURN j, f");
  ASSERT_TRUE(q0.ok() && q1.ok());
  std::vector<const query::MatchQuery*> members = {&q0->match(), &q1->match()};
  auto results =
      query::ExecuteFusedMatch(g, csr, members, query::ExecutorOptions{});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
}

// The fused runner against a *current* snapshot must agree with solo
// CSR execution member by member, including members whose predicates
// select nothing.
TEST(FusedRunnerTest, GroupMatchesSoloMemberByMember) {
  MutationState state(43, /*skew=*/true);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);
  graph::CsrGraph csr = graph::CsrGraph::Build(g);

  const char* kTexts[] = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 0 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 1 RETURN j, f",
      // A constant no vertex carries: this member's table is empty while
      // the others' are not.
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.hot = 7 RETURN j, f",
  };
  std::vector<query::Query> parsed;
  std::vector<const query::MatchQuery*> members;
  for (const char* text : kTexts) {
    auto q = query::ParseQueryText(text);
    ASSERT_TRUE(q.ok()) << text;
    parsed.push_back(std::move(*q));
  }
  for (const query::Query& q : parsed) members.push_back(&q.match());

  query::FusedGroupStats stats;
  auto fused_results = query::ExecuteFusedMatch(
      g, csr, members, query::ExecutorOptions{}, &stats);
  ASSERT_EQ(fused_results.size(), members.size());
  EXPECT_GT(stats.expansions, 0u);

  query::QueryExecutor solo(&g, &csr);
  for (size_t m = 0; m < members.size(); ++m) {
    auto expected = solo.ExecuteText(kTexts[m]);
    ASSERT_TRUE(expected.ok()) << kTexts[m];
    ASSERT_TRUE(fused_results[m].ok()) << kTexts[m];
    ExpectTablesIdentical(*expected, *fused_results[m], kTexts[m]);
  }
}

/// A seeded lineage graph, denser than `SeedGraph`'s, whose jobs carry
/// names from `kNamePool`.
PropertyGraph NamedJobGraph(uint64_t seed) {
  MutationState state(seed, /*skew=*/false);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);
  for (int i = 0; i < 60; ++i) {
    GraphDelta::EdgeInsert ins = state.RandomEdgeInsert();
    EXPECT_TRUE(
        g.AddEdge(ins.source, ins.target, ins.type_name, ins.properties).ok());
  }
  for (size_t i = 0; i < state.by_type[0].size(); ++i) {
    EXPECT_TRUE(g.SetVertexProperty(state.by_type[0][i], "name",
                                    PropertyValue(kNamePool[i % 4]))
                    .ok());
  }
  return g;
}

std::vector<const query::MatchQuery*> MatchesOf(
    const std::vector<query::Query>& parsed) {
  std::vector<const query::MatchQuery*> members;
  for (const query::Query& q : parsed) members.push_back(&q.match());
  return members;
}

std::vector<query::Query> ParseAll(const std::vector<std::string>& texts) {
  std::vector<query::Query> parsed;
  for (const std::string& text : texts) {
    auto q = query::ParseQueryText(text);
    EXPECT_TRUE(q.ok()) << text;
    if (q.ok()) parsed.push_back(std::move(*q));
  }
  return parsed;
}

// A group whose members do not all carry a string constant scans the
// type; its string member's table is still the one the index-seeded
// solo run returns.
TEST(FusedRunnerTest, MixedConstantTypesFallBackToScan) {
  PropertyGraph g = NamedJobGraph(47);
  graph::CsrGraph csr = graph::CsrGraph::Build(g);
  const std::vector<std::string> texts = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'n1' RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 3 RETURN j, f",
  };
  const std::vector<query::Query> parsed = ParseAll(texts);
  ASSERT_EQ(parsed.size(), texts.size());

  query::FusedGroupStats stats;
  auto fused = query::ExecuteFusedMatch(g, csr, MatchesOf(parsed),
                                        query::ExecutorOptions{}, &stats);
  EXPECT_FALSE(stats.index_seeded);
  ASSERT_TRUE(fused[0].ok()) << fused[0].status();
  ASSERT_TRUE(fused[1].ok()) << fused[1].status();
  EXPECT_EQ(fused[1]->num_rows(), 0u);

  query::QueryExecutor solo(&g, &csr);
  query::ExecutionTiming timing;
  auto expected = solo.ExecuteText(texts[0], &timing);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(timing.index_seeded);
  EXPECT_GT(expected->num_rows(), 0u);
  ExpectTablesIdentical(*expected, *fused[0], texts[0]);
}

// Index-seeded solo reads and fused groups (whose seeds are the union of
// their members' probes) return byte-identical tables under every
// partitioning: parallelism {1, 4} x shards {1, 2}.
TEST(FusedRunnerTest, IndexSeededTablesIdenticalAcrossPartitions) {
  PropertyGraph g = NamedJobGraph(53);
  graph::CsrGraph csr = graph::CsrGraph::Build(g);
  const std::vector<std::string> texts = {
      "MATCH (j:Job)-[r*1..3]->(b:Job) WHERE j.name = 'n0' RETURN j, b",
      "MATCH (j:Job)-[r*1..3]->(b:Job) WHERE j.name = 'n2' RETURN j, b",
      "MATCH (j:Job)-[r*1..3]->(b:Job) WHERE j.name = 'n3' RETURN j, b",
  };
  const std::vector<query::Query> parsed = ParseAll(texts);
  ASSERT_EQ(parsed.size(), texts.size());
  const std::vector<const query::MatchQuery*> members = MatchesOf(parsed);

  std::vector<query::Table> reference;
  for (size_t parallelism : {1u, 4u}) {
    for (size_t shards : {1u, 2u}) {
      query::ExecutorOptions options;
      options.parallelism = parallelism;
      options.shards = shards;
      const std::string context = "parallelism " +
                                  std::to_string(parallelism) + ", shards " +
                                  std::to_string(shards);
      query::FusedGroupStats stats;
      auto fused = query::ExecuteFusedMatch(g, csr, members, options, &stats);
      EXPECT_TRUE(stats.index_seeded) << context;
      query::QueryExecutor solo(&g, &csr, options);
      for (size_t m = 0; m < members.size(); ++m) {
        ASSERT_TRUE(fused[m].ok()) << context << ": " << fused[m].status();
        auto alone = solo.ExecuteText(texts[m]);
        ASSERT_TRUE(alone.ok()) << context << ": " << alone.status();
        if (reference.size() < members.size()) {
          EXPECT_GT(alone->num_rows(), 0u) << texts[m];
          reference.push_back(*alone);
        }
        ExpectTablesIdentical(reference[m], *alone, texts[m] + " " + context);
        ExpectTablesIdentical(reference[m], *fused[m],
                              texts[m] + " fused, " + context);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot-patching differential: a chain of CsrGraph::PatchedFrom calls
// following the same randomized mutation sequences must be structurally
// identical to a from-scratch CsrGraph::Build at every prefix — typed
// slices, lineage edge ids, type directories, and sortedness included.
// The threshold is forced to 1.0 so every step takes the patch path
// (never the internal Build fallback); a parallel default-threshold
// chain checks that fallbacks interleave transparently.
// ---------------------------------------------------------------------------

TEST_P(DifferentialTest, PatchedSnapshotsMatchFreshBuildsAtEveryPrefix) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed + 9000, skewed);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);

  graph::CsrPatchOptions always_patch;
  always_patch.max_dirty_fraction = 1.0;

  graph::CsrGraph patched = graph::CsrGraph::Build(g);
  graph::CsrGraph adaptive = graph::CsrGraph::Build(g);

  constexpr int kSteps = 60;
  for (int step = 0; step < kSteps; ++step) {
    GraphDelta delta;
    double dice = state.UniformReal();
    if (dice < 0.5 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
      if (state.UniformReal() < 0.05) {
        delta.AddVertex("Job", state.RandomVertexProps());
        delta.AddEdge(static_cast<VertexId>(g.NumVertices()),
                      state.by_type[1][state.PickIndex(state.by_type[1].size())],
                      "WRITES_TO", state.RandomVertexProps());
      }
    } else if (dice < 0.8) {
      delta.RemoveEdge(state.PickLiveEdge());
    } else {
      size_t ops = 2 + state.rng() % 5;
      std::set<EdgeId> doomed;
      for (size_t i = 0; i < ops; ++i) {
        if (state.UniformReal() < 0.5 ||
            doomed.size() + 4 > state.live_edges.size()) {
          delta.edge_inserts.push_back(state.RandomEdgeInsert());
        } else {
          doomed.insert(state.PickLiveEdge());
        }
      }
      for (EdgeId e : doomed) delta.RemoveEdge(e);
    }
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);
    for (VertexId v : applied->new_vertices) state.by_type[0].push_back(v);

    const std::string context = "step " + std::to_string(step) + " (seed " +
                                std::to_string(seed) +
                                (skewed ? ", skewed)" : ", uniform)");
    graph::CsrPatchStats stats;
    patched =
        graph::CsrGraph::PatchedFrom(patched, g, delta, always_patch, &stats);
    ASSERT_FALSE(stats.full_rebuild) << context;
    const graph::CsrGraph fresh = graph::CsrGraph::Build(g);
    testutil::ExpectCsrEqual(patched, fresh, g, "patched " + context);
    if (::testing::Test::HasFatalFailure()) return;

    adaptive = graph::CsrGraph::PatchedFrom(adaptive, g, delta, {}, &stats);
    testutil::ExpectCsrEqual(adaptive, fresh, g, "adaptive " + context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SnapshotPatchFallbackTest, DirtyFractionThresholdForcesFullRebuild) {
  MutationState state(17, /*skew=*/false);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state);
  graph::CsrGraph prev = graph::CsrGraph::Build(g);

  // A delta touching most of the graph: dirty fraction is far above any
  // reasonable threshold, so the patch must fall back (and still be
  // exact, because the fallback *is* Build).
  GraphDelta big;
  for (int i = 0; i < 12; ++i) big.edge_inserts.push_back(state.RandomEdgeInsert());
  auto applied = graph::ApplyDeltaToGraph(&g, big);
  ASSERT_TRUE(applied.ok()) << applied.status();

  graph::CsrPatchOptions tight;
  tight.max_dirty_fraction = 0.01;  // 26 vertices: budget < 1 dirty vertex
  graph::CsrPatchStats stats;
  graph::CsrGraph result = graph::CsrGraph::PatchedFrom(prev, g, big, tight, &stats);
  EXPECT_TRUE(stats.full_rebuild);
  EXPECT_GT(stats.dirty_vertices, 0u);
  testutil::ExpectCsrEqual(result, graph::CsrGraph::Build(g), g, "fallback");

  // The same delta patches fine with headroom.
  graph::CsrPatchStats relaxed_stats;
  graph::CsrGraph patched = graph::CsrGraph::PatchedFrom(
      prev, g, big, graph::CsrPatchOptions{1.0}, &relaxed_stats);
  EXPECT_FALSE(relaxed_stats.full_rebuild);
  testutil::ExpectCsrEqual(patched, graph::CsrGraph::Build(g), g, "patched");
}

// ---------------------------------------------------------------------------
// Vertex-granular splice differential: on a graph spanning three CSR
// segments (the last one partial), a forced-patch PatchedFrom chain and
// a sharded SegmentStore must equal a fresh Build — raw segment arrays
// and type-directory begins included — after every window of one or two
// deltas. Each window mixes a uniform batch that dirties every segment,
// inserts at a hub vertex, appends into the straddling segment, an edge
// inserted and removed within the window, and now and then a vertex
// stripped of its edges and removed. Only dirty rows are re-derived.
// ---------------------------------------------------------------------------

TEST_P(DifferentialTest, SplicedSegmentsMatchFreshBuildsAtEveryPrefix) {
  auto [seed, skewed] = GetParam();
  MutationState state(seed + 9100, skewed);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state, /*scale=*/100);
  ASSERT_EQ(graph::CsrSegmentCount(g.NumVertices()), 3u);

  graph::CsrPatchOptions always_patch;
  always_patch.max_dirty_fraction = 1.0;
  graph::CsrGraph patched = graph::CsrGraph::Build(g);
  SegmentStore store(&g, /*shards=*/2);
  uint64_t version = 1;
  ASSERT_NE(store.Snapshot(version), nullptr);
  const VertexId hub = state.by_type[0][0];

  auto apply = [&](GraphDelta& delta) -> std::vector<EdgeId> {
    delta.Coalesce();
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    if (!applied.ok()) {
      ADD_FAILURE() << applied.status();
      return {};
    }
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);
    for (VertexId v : applied->new_vertices) state.by_type[0].push_back(v);
    store.NoteDelta(std::make_shared<const graph::DeltaFootprint>(delta));
    return applied->new_edges;
  };

  constexpr int kWindows = 24;
  for (int w = 0; w < kWindows; ++w) {
    const std::string context = "window " + std::to_string(w) + " (seed " +
                                std::to_string(seed) +
                                (skewed ? ", skewed)" : ", uniform)");
    GraphDelta first;
    for (int i = 0; i < 12; ++i) {
      if (i % 3 == 2) {
        first.RemoveEdge(state.PickLiveEdge());
      } else {
        first.edge_inserts.push_back(state.RandomEdgeInsert());
      }
    }
    const VertexId file =
        state.by_type[1][state.PickIndex(state.by_type[1].size())];
    first.AddEdge(hub, file, "WRITES_TO", state.RandomVertexProps());
    if (w % 3 == 0) {
      first.AddVertex("Job", state.RandomVertexProps());
      first.AddEdge(static_cast<VertexId>(g.NumVertices()), file, "WRITES_TO",
                    state.RandomVertexProps());
    }
    const std::vector<EdgeId> inserted = apply(first);
    std::vector<EdgeId> removals = first.edge_removals;
    if (::testing::Test::HasFailure()) return;

    if (w % 2 == 1) {
      // Second delta of the window: drop an edge the first one inserted
      // (it never reached the previous snapshot) and, every fourth
      // window, strip a Task of its edges and remove the vertex.
      GraphDelta second;
      second.RemoveEdge(inserted[w % inserted.size()]);
      VertexId doomed = graph::kInvalidId;
      if (w % 4 == 3 && state.by_type[2].size() > 1) {
        doomed = state.by_type[2].back();
        state.by_type[2].pop_back();
        for (EdgeId e : g.OutEdges(doomed)) second.RemoveEdge(e);
        for (EdgeId e : g.InEdges(doomed)) second.RemoveEdge(e);
      }
      apply(second);
      removals.insert(removals.end(), second.edge_removals.begin(),
                      second.edge_removals.end());
      if (::testing::Test::HasFailure()) return;
      if (doomed != graph::kInvalidId) {
        ASSERT_TRUE(g.RemoveVertex(doomed).ok()) << context;
      }
    }

    const graph::CsrGraph fresh = graph::CsrGraph::Build(g);
    graph::CsrPatchStats stats;
    patched = graph::CsrGraph::PatchedFrom(patched, g, removals, always_patch,
                                           &stats);
    ASSERT_FALSE(stats.full_rebuild) << context;
    testutil::ExpectCsrEqual(patched, fresh, g, "patched " + context);
    if (::testing::Test::HasFatalFailure()) return;
    // Only dirty and appended rows are re-derived, each on both sides.
    EXPECT_GT(stats.dirty_vertices, 0u) << context;
    EXPECT_EQ(stats.rows_rederived, 2 * stats.dirty_vertices) << context;

    SegmentStore::Outcome outcome;
    auto snap = store.Snapshot(++version, &outcome);
    ASSERT_NE(snap, nullptr) << context;
    EXPECT_NE(outcome, SegmentStore::Outcome::kHit) << context;
    testutil::ExpectCsrEqual(*snap, fresh, g, "store " + context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SplicePatchTest, OneEdgeDeltaRederivesTwoRowsPerSide) {
  MutationState state(5, /*skew=*/false);
  PropertyGraph g(DeltaSchema());
  SeedGraph(&g, &state, /*scale=*/100);
  const graph::CsrGraph prev = graph::CsrGraph::Build(g);

  GraphDelta delta;
  delta.AddEdge(state.by_type[0].front(), state.by_type[1].back(),
                "WRITES_TO", {});
  ASSERT_TRUE(graph::ApplyDeltaToGraph(&g, delta).ok());
  graph::CsrPatchStats stats;
  const graph::CsrGraph patched =
      graph::CsrGraph::PatchedFrom(prev, g, delta, {}, &stats);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(stats.dirty_vertices, 2u);
  EXPECT_LE(stats.rows_rederived, 4u);
  EXPECT_LE(stats.segments_copied, 2u);
  testutil::ExpectCsrEqual(patched, graph::CsrGraph::Build(g), g, "1-edge");
}

// ---------------------------------------------------------------------------
// Unsupported kinds fall back to re-materialization through the same
// ApplyDelta entry point and stay exact.
// ---------------------------------------------------------------------------

TEST(DifferentialFallbackTest, AggregatorStaysExactViaRematerialization) {
  MutationState state(7, /*skew=*/false);
  PropertyGraph base(DeltaSchema());
  SeedGraph(&base, &state);
  Engine engine(std::move(base));

  ViewDefinition agg;
  agg.kind = ViewKind::kVertexAggregatorSummarizer;
  agg.source_type = "File";
  agg.group_by_property = "hot";
  ASSERT_TRUE(engine.AddMaterializedView(agg).ok());

  for (int step = 0; step < 25; ++step) {
    GraphDelta delta;
    if (state.UniformReal() < 0.5 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
    } else {
      delta.RemoveEdge(state.PickLiveEdge());
    }
    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->views_rematerialized, 1u);
    EXPECT_EQ(report->views_incremental, 0u);
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : report->new_edges) state.live_edges.push_back(e);

    const CatalogEntry* entry = engine.catalog().Find(agg.Name());
    ASSERT_NE(entry, nullptr);
    auto scratch = Materialize(engine.base_graph(), agg);
    ASSERT_TRUE(scratch.ok());
    EXPECT_EQ(entry->view.graph.NumLiveVertices(),
              scratch->graph.NumLiveVertices());
    EXPECT_EQ(entry->view.graph.NumLiveEdges(), scratch->graph.NumLiveEdges());
  }
}

// ---------------------------------------------------------------------------
// MaintenanceStats balance: adds minus removes equals the observed view
// delta across a full random run (the counters cannot drift).
// ---------------------------------------------------------------------------

uint64_t PathsSum(const PropertyGraph& g) {
  uint64_t total = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!g.IsEdgeLive(e)) continue;
    PropertyValue paths = g.EdgeProperty(e, "paths");
    total += paths.is_int() ? static_cast<uint64_t>(paths.as_int()) : 1;
  }
  return total;
}

TEST(MaintenanceStatsBalanceTest, ConnectorCountersBalanceAcrossRandomRun) {
  MutationState state(99, /*skew=*/true);
  PropertyGraph base(DeltaSchema());
  SeedGraph(&base, &state);

  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  auto view = Materialize(base, def);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&base, &*view);

  const uint64_t v0 = view->graph.NumLiveVertices();
  const uint64_t e0 = view->graph.NumLiveEdges();
  const uint64_t p0 = PathsSum(view->graph);

  MaintenanceStats total;
  for (int step = 0; step < 150; ++step) {
    GraphDelta delta;
    if (state.UniformReal() < 0.5 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
    } else if (state.UniformReal() < 0.7) {
      delta.RemoveEdge(state.PickLiveEdge());
    } else {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
      EdgeId doomed = state.PickLiveEdge();
      delta.RemoveEdge(doomed);
    }
    auto applied = graph::ApplyDeltaToGraph(&base, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);
    auto stats = maintainer.ApplyDelta(delta);
    ASSERT_TRUE(stats.ok()) << stats.status();
    total += *stats;
  }

  // The run must end exact...
  auto scratch = Materialize(base, def);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(Canonicalize(*view), Canonicalize(*scratch));
  // ...and the counters must explain exactly the observed change.
  EXPECT_EQ(v0 + total.vertices_added - total.vertices_removed,
            view->graph.NumLiveVertices());
  EXPECT_EQ(e0 + total.edges_added - total.edges_removed,
            view->graph.NumLiveEdges());
  EXPECT_EQ(p0 + total.paths_added - total.paths_removed,
            PathsSum(view->graph));
}

TEST(MaintenanceStatsBalanceTest, SummarizerCountersBalanceAcrossRandomRun) {
  MutationState state(123, /*skew=*/false);
  PropertyGraph base(DeltaSchema());
  SeedGraph(&base, &state);

  ViewDefinition def;
  def.kind = ViewKind::kVertexRemovalSummarizer;
  def.type_list = {"Task", "User"};
  auto view = Materialize(base, def);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&base, &*view);

  const uint64_t v0 = view->graph.NumLiveVertices();
  const uint64_t e0 = view->graph.NumLiveEdges();

  MaintenanceStats total;
  for (int step = 0; step < 150; ++step) {
    GraphDelta delta;
    if (state.UniformReal() < 0.55 || state.live_edges.size() < 4) {
      delta.edge_inserts.push_back(state.RandomEdgeInsert());
    } else {
      delta.RemoveEdge(state.PickLiveEdge());
    }
    auto applied = graph::ApplyDeltaToGraph(&base, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : delta.edge_removals) state.ForgetEdge(e);
    for (EdgeId e : applied->new_edges) state.live_edges.push_back(e);
    auto stats = maintainer.ApplyDelta(delta);
    ASSERT_TRUE(stats.ok()) << stats.status();
    total += *stats;
  }

  auto scratch = Materialize(base, def);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(Canonicalize(*view), Canonicalize(*scratch));
  EXPECT_EQ(v0 + total.vertices_added - total.vertices_removed,
            view->graph.NumLiveVertices());
  EXPECT_EQ(e0 + total.edges_added - total.edges_removed,
            view->graph.NumLiveEdges());
  EXPECT_EQ(total.paths_added, 0u);  // summarizers do not contract paths
  EXPECT_EQ(total.paths_removed, 0u);
}

}  // namespace
}  // namespace kaskade::core
