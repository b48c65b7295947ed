// Robustness tests: malformed inputs must produce error Statuses, never
// crashes or hangs; plus EXPLAIN rendering and degenerate-input behavior
// across modules.

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/size_estimator.h"
#include "datasets/generators.h"
#include "graph/algorithms.h"
#include "graph/contraction.h"
#include "graph/serialization.h"
#include "graph/stats.h"
#include "prolog/knowledge_base.h"
#include "prolog/solver.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "workload/spec.h"

namespace kaskade {
namespace {

using graph::GraphSchema;
using graph::PropertyGraph;

/// Deterministic mutation fuzzing: valid text with byte-level edits must
/// parse or fail cleanly (no crash / no exception escaping).
std::string Mutate(const std::string& base, uint64_t seed) {
  std::string out = base;
  uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  int edits = 1 + static_cast<int>((x >> 60) & 3);
  for (int i = 0; i < edits && !out.empty(); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t pos = (x >> 33) % out.size();
    switch ((x >> 13) % 3) {
      case 0:
        out[pos] = static_cast<char>(32 + ((x >> 5) % 95));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      default:
        out.insert(pos, 1, static_cast<char>(32 + ((x >> 5) % 95)));
        break;
    }
  }
  return out;
}

class QueryParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryParserFuzzTest, MutatedQueriesNeverCrash) {
  const std::string base =
      "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU "
      "FROM (MATCH (j:Job)-[:W]->(f:File) (f:File)-[r*0..8]->(g:File) "
      "RETURN j as A, f as B) GROUP BY A, B) GROUP BY A.pipelineName";
  for (int i = 0; i < 100; ++i) {
    std::string text = Mutate(base, GetParam() * 1000 + i);
    auto result = query::ParseQueryText(text);  // ok or clean error
    if (result.ok()) {
      // Parsed mutants must render without crashing.
      (void)result->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryParserFuzzTest, ::testing::Range(0, 5));

class PrologParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PrologParserFuzzTest, MutatedProgramsNeverCrash) {
  const std::string base =
      "path(X, Y) :- edge(X, Z), not(member(Z, [a,b|T])), K is K1 + 1, "
      "findall(W, p(W), L), length(L, N), N >= 0.";
  for (int i = 0; i < 100; ++i) {
    std::string text = Mutate(base, GetParam() * 777 + i);
    auto clauses = prolog::ParseProgram(text);
    if (clauses.ok()) {
      for (const auto& clause : *clauses) (void)clause.head->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrologParserFuzzTest, ::testing::Range(0, 5));

class SerializationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationFuzzTest, MutatedGraphFilesNeverCrash) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 5, .num_files = 8, .num_tasks = 3});
  const std::string base = graph::GraphToString(g);
  for (int i = 0; i < 60; ++i) {
    std::string text = Mutate(base, GetParam() * 31 + i);
    auto loaded = graph::GraphFromString(text);  // ok or clean error
    if (loaded.ok()) {
      EXPECT_LE(loaded->NumEdges(), g.NumEdges() + 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest, ::testing::Range(0, 5));

class WorkloadSpecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadSpecFuzzTest, MutatedSpecsNeverCrash) {
  const std::string base =
      "workload fuzz_target\n"
      "seed 42\n"
      "dataset social\n"
      "phase warm  # comment survives mutation too\n"
      "  threads 4\n"
      "  rate 120.5\n"
      "  ops_per_thread 500\n"
      "  mix execute=70 execute_batch=10 apply_delta=20\n"
      "  batch_size 8\n"
      "  delta_edges 16\n"
      "  deadline_ms 250\n"
      "end\n"
      "phase drain\n"
      "  threads 2\n"
      "  rate 0\n"
      "  duration_ms 1500\n"
      "  mix execute=95 auto_advise=5\n"
      "end\n";
  for (int i = 0; i < 100; ++i) {
    std::string text = Mutate(base, GetParam() * 4099 + i);
    auto spec = workload::ParseWorkloadSpec(text);
    if (spec.ok()) {
      // A parsed mutant passed validation, so it must round-trip: its
      // canonical rendering reparses to the same spec.
      auto again = workload::ParseWorkloadSpec(spec->ToText());
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(*again, *spec);
    } else {
      // Rejections must carry a line number or the missing-header text —
      // a fuzzed operator typo gets an actionable message, not a crash.
      EXPECT_NE(spec.status().message().find("workload spec"),
                std::string::npos)
          << spec.status();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSpecFuzzTest, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Degenerate inputs
// ---------------------------------------------------------------------------

TEST(DegenerateTest, EmptyGraphEverywhere) {
  GraphSchema schema;
  schema.AddVertexType("V");
  ASSERT_TRUE(schema.AddEdgeType("E", "V", "V").ok());
  PropertyGraph g(schema);

  EXPECT_EQ(graph::CountSimpleKPaths(g, 3), 0u);
  EXPECT_EQ(graph::CountKLengthWalks(g, 3), 0u);
  EXPECT_EQ(graph::CountSimple2Paths(g), 0u);
  auto communities = graph::LabelPropagation(g, 5);
  EXPECT_EQ(communities.num_communities, 0u);
  EXPECT_TRUE(
      graph::LargestCommunity(g, communities, graph::kInvalidTypeId).empty());
  auto stats = graph::GraphStats::Compute(g);
  EXPECT_EQ(stats.overall().vertex_count, 0u);
  auto dist = graph::ComputeOutDegreeDistribution(g);
  EXPECT_TRUE(dist.ccdf.empty());

  graph::ContractionSpec spec;
  spec.k = 2;
  spec.connector_edge_name = "C2";
  auto view = graph::ContractPaths(g, spec);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->view.NumVertices(), 0u);

  query::QueryExecutor executor(&g);
  auto result = executor.ExecuteText("MATCH (a:V)-[:E]->(b:V) RETURN a, b");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(DegenerateTest, EstimatorsOnEmptyAndTinyGraphs) {
  GraphSchema schema;
  schema.AddVertexType("V");
  ASSERT_TRUE(schema.AddEdgeType("E", "V", "V").ok());
  PropertyGraph g(schema);
  auto stats = graph::GraphStats::Compute(g);
  EXPECT_EQ(core::HomogeneousPathEstimate(stats, 2, 95), 0.0);
  EXPECT_EQ(core::HeterogeneousPathEstimate(g, stats, 2, 95), 0.0);
  EXPECT_EQ(core::ErdosRenyiPathEstimate(0, 0, 2), 0.0);
  EXPECT_EQ(core::ErdosRenyiPathEstimate(10, 20, 0), 0.0);
  EXPECT_EQ(core::ErdosRenyiPathEstimate(10, 20, -3), 0.0);
}

TEST(DegenerateTest, EnumeratorOnEmptySchemaAndSingleType) {
  GraphSchema empty;
  core::ViewEnumerator enumerator(&empty);
  auto q = query::ParseQueryText("MATCH (a:V)-[:E]->(b:V) RETURN a");
  ASSERT_TRUE(q.ok());
  auto candidates = enumerator.Enumerate(*q);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  EXPECT_TRUE(candidates->empty());

  // Self-loop schema: k-hop connectors exist for every k up to the
  // query's bound.
  GraphSchema loop;
  loop.AddVertexType("V");
  ASSERT_TRUE(loop.AddEdgeType("E", "V", "V").ok());
  core::ViewEnumerator loop_enum(&loop);
  auto q2 = query::ParseQueryText("MATCH (a:V)-[r*1..3]->(b:V) RETURN a, b");
  ASSERT_TRUE(q2.ok());
  auto candidates2 = loop_enum.Enumerate(*q2);
  ASSERT_TRUE(candidates2.ok());
  std::set<int> ks;
  for (const auto& c : *candidates2) {
    if (c.definition.kind == core::ViewKind::kKHopConnector) {
      ks.insert(c.definition.k);
    }
  }
  EXPECT_EQ(ks, (std::set<int>{1, 2, 3}));
}

TEST(DegenerateTest, SolverHandlesDeepLists) {
  prolog::KnowledgeBase kb;
  prolog::Solver solver(&kb);
  // 500-element list through the recursive prelude predicates.
  std::string list = "[0";
  for (int i = 1; i < 500; ++i) list += "," + std::to_string(i);
  list += "]";
  auto r = solver.Prove("length(" + list + ", 500), last(" + list +
                        ", 499), member(250, " + list + ").");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(*r);
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

TEST(ExplainTest, RendersPlanTree) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 20, .num_files = 40, .include_auxiliary = false});
  auto stats = graph::GraphStats::Compute(g);
  auto q = query::ParseQueryText(
      "SELECT COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) "
      "(f:File)-[r*0..8]->(g:File) RETURN a, f) GROUP BY a");
  ASSERT_TRUE(q.ok());
  std::string plan = query::ExplainQuery(*q, g, stats);
  EXPECT_NE(plan.find("SELECT [1 item(s), GROUP BY a]"), std::string::npos);
  EXPECT_NE(plan.find("seed (a:Job)"), std::string::npos);
  EXPECT_NE(plan.find("expand -[:WRITES_TO]-> (f:File)"), std::string::npos);
  EXPECT_NE(plan.find("8 bounded graph sweeps"), std::string::npos);
  EXPECT_NE(plan.find("estimated cost:"), std::string::npos);
}

TEST(ExplainTest, NamesTheSeedSource) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 20, .num_files = 40, .include_auxiliary = false});
  auto stats = graph::GraphStats::Compute(g);
  auto explain = [&](const std::string& text) {
    auto q = query::ParseQueryText(text);
    EXPECT_TRUE(q.ok()) << text;
    return q.ok() ? query::ExplainQuery(*q, g, stats) : std::string();
  };
  EXPECT_NE(explain("MATCH (a:Job)-[:WRITES_TO]->(f:File) WHERE a.name = "
                    "'job_3' RETURN f")
                .find("seed (a:Job)  index Job.name"),
            std::string::npos);
  // Not a string equality: the seed scans its type.
  EXPECT_NE(explain("MATCH (a:Job)-[:WRITES_TO]->(f:File) WHERE a.CPU = 3 "
                    "RETURN f")
                .find("seed (a:Job)  scan Job, 20 vertices"),
            std::string::npos);
  // The plan seeds at the smaller type, whichever node comes first.
  EXPECT_NE(explain("MATCH (f:File)-[:IS_READ_BY]->(a:Job) RETURN f")
                .find("seed (a:Job)  scan Job"),
            std::string::npos);
  EXPECT_NE(explain("MATCH (a)-[r*1..2]->(b) WHERE a.name = 'job_3' RETURN b")
                .find("seed (a)  scan all, 60 vertices"),
            std::string::npos);
}

TEST(ExplainTest, CostOrderingVisibleAcrossPlans) {
  PropertyGraph g = datasets::MakeProvenanceGraph(
      {.num_jobs = 50, .num_files = 100, .include_auxiliary = false});
  auto stats = graph::GraphStats::Compute(g);
  auto shallow =
      query::ParseQueryText("MATCH (a:Job)-[r*1..2]->(b:Job) RETURN a, b");
  auto deep =
      query::ParseQueryText("MATCH (a:Job)-[r*1..8]->(b:Job) RETURN a, b");
  ASSERT_TRUE(shallow.ok() && deep.ok());
  EXPECT_LT(query::EstimateEvalCost(*shallow, g, stats),
            query::EstimateEvalCost(*deep, g, stats));
  // And both render.
  EXPECT_FALSE(query::ExplainQuery(*shallow, g, stats).empty());
  EXPECT_FALSE(query::ExplainQuery(*deep, g, stats).empty());
}

}  // namespace
}  // namespace kaskade
