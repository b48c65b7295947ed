// Tests for the property-graph substrate: values, schema, storage, stats.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/delta.h"
#include "graph/property_graph.h"
#include "graph/property_value.h"
#include "graph/schema.h"
#include "graph/serialization.h"
#include "graph/stats.h"

namespace kaskade::graph {
namespace {

// ---------------------------------------------------------------------------
// PropertyValue
// ---------------------------------------------------------------------------

TEST(PropertyValueTest, TypePredicates) {
  EXPECT_TRUE(PropertyValue().is_null());
  EXPECT_TRUE(PropertyValue(true).is_bool());
  EXPECT_TRUE(PropertyValue(42).is_int());
  EXPECT_TRUE(PropertyValue(1.5).is_double());
  EXPECT_TRUE(PropertyValue("x").is_string());
  EXPECT_TRUE(PropertyValue(42).is_numeric());
  EXPECT_TRUE(PropertyValue(1.5).is_numeric());
  EXPECT_FALSE(PropertyValue("x").is_numeric());
}

TEST(PropertyValueTest, ToStringRendersAllKinds) {
  EXPECT_EQ(PropertyValue().ToString(), "null");
  EXPECT_EQ(PropertyValue(true).ToString(), "true");
  EXPECT_EQ(PropertyValue(42).ToString(), "42");
  EXPECT_EQ(PropertyValue("abc").ToString(), "abc");
}

TEST(PropertyValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(PropertyValue(2), PropertyValue(2.0));
  EXPECT_NE(PropertyValue(2), PropertyValue(2.5));
  EXPECT_EQ(PropertyValue(2), PropertyValue(2));
  EXPECT_NE(PropertyValue(2), PropertyValue("2"));
}

TEST(PropertyValueTest, OrderingWithinAndAcrossTypes) {
  EXPECT_LT(PropertyValue(1), PropertyValue(2));
  EXPECT_LT(PropertyValue(1.5), PropertyValue(2));
  EXPECT_LT(PropertyValue("a"), PropertyValue("b"));
  // Cross-type rank: null < bool < numeric < string.
  EXPECT_LT(PropertyValue(), PropertyValue(false));
  EXPECT_LT(PropertyValue(true), PropertyValue(0));
  EXPECT_LT(PropertyValue(99), PropertyValue(""));
}

TEST(PropertyValueTest, ToDoubleWidens) {
  EXPECT_DOUBLE_EQ(PropertyValue(3).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(PropertyValue(2.5).ToDouble(), 2.5);
  EXPECT_DOUBLE_EQ(PropertyValue(true).ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ(PropertyValue("x").ToDouble(), 0.0);
}

TEST(PropertyMapTest, SetFindOverwrite) {
  PropertyMap map;
  EXPECT_TRUE(map.empty());
  map.Set("a", PropertyValue(1));
  map.Set("b", PropertyValue("two"));
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find("a"), nullptr);
  EXPECT_EQ(*map.Find("a"), PropertyValue(1));
  map.Set("a", PropertyValue(10));
  EXPECT_EQ(*map.Find("a"), PropertyValue(10));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.Find("zzz"), nullptr);
  EXPECT_TRUE(map.GetOrNull("zzz").is_null());
}

TEST(PropertyMapTest, InitializerList) {
  PropertyMap map{{"k", PropertyValue(5)}, {"s", PropertyValue("v")}};
  EXPECT_EQ(map.GetOrNull("k"), PropertyValue(5));
  EXPECT_EQ(map.GetOrNull("s"), PropertyValue("v"));
}

TEST(PropertyMapTest, CopiesAreDeepAndMovesEmptyTheSource) {
  // One pointer per map: graphs keep one per vertex and per edge id.
  static_assert(sizeof(PropertyMap) == sizeof(void*));
  PropertyMap map{{"a", PropertyValue(1)}, {"b", PropertyValue("two")}};
  PropertyMap copy(map);
  copy.Set("a", PropertyValue(2));
  copy.Set("c", PropertyValue(3.5));
  EXPECT_EQ(map.GetOrNull("a"), PropertyValue(1));
  EXPECT_FALSE(map.Contains("c"));
  EXPECT_EQ(copy.size(), 3u);

  // Iteration follows insertion order; equality compares it.
  std::vector<std::string> keys;
  for (const auto& [k, v] : copy) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(copy == map);
  copy = map;
  EXPECT_TRUE(copy == map);
  const PropertyMap& alias = copy;
  copy = alias;  // self-assignment keeps the entries
  EXPECT_EQ(copy.size(), 2u);

  PropertyMap moved(std::move(copy));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.GetOrNull("b"), PropertyValue("two"));
  moved = PropertyMap();
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.begin(), moved.end());
}

// ---------------------------------------------------------------------------
// GraphSchema
// ---------------------------------------------------------------------------

GraphSchema ProvSchema() {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
  return schema;
}

TEST(SchemaTest, VertexTypeInterning) {
  GraphSchema schema;
  VertexTypeId a = schema.AddVertexType("Job");
  VertexTypeId b = schema.AddVertexType("Job");
  EXPECT_EQ(a, b);
  EXPECT_EQ(schema.num_vertex_types(), 1u);
  EXPECT_EQ(schema.FindVertexType("Job"), a);
  EXPECT_EQ(schema.FindVertexType("Nope"), kInvalidTypeId);
}

TEST(SchemaTest, EdgeTypeValidation) {
  GraphSchema schema = ProvSchema();
  EXPECT_EQ(schema.num_edge_types(), 2u);
  // Duplicate name rejected.
  EXPECT_EQ(schema.AddEdgeType("WRITES_TO", "Job", "File").status().code(),
            StatusCode::kAlreadyExists);
  // Unknown endpoint types rejected.
  EXPECT_EQ(schema.AddEdgeType("X", "Nope", "File").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema.AddEdgeType("X", "Job", "Nope").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, EdgeTypesFromInto) {
  GraphSchema schema = ProvSchema();
  VertexTypeId job = schema.FindVertexType("Job");
  VertexTypeId file = schema.FindVertexType("File");
  EXPECT_EQ(schema.EdgeTypesFrom(job).size(), 1u);
  EXPECT_EQ(schema.EdgeTypesInto(job).size(), 1u);
  EXPECT_EQ(schema.edge_type(schema.EdgeTypesFrom(job)[0]).name, "WRITES_TO");
  EXPECT_EQ(schema.edge_type(schema.EdgeTypesInto(file)[0]).name, "WRITES_TO");
}

TEST(SchemaTest, Homogeneity) {
  GraphSchema one;
  one.AddVertexType("V");
  EXPECT_TRUE(one.IsHomogeneous());
  EXPECT_FALSE(ProvSchema().IsHomogeneous());
}

TEST(SchemaTest, KHopSchemaPathParity) {
  // Job<->File is bipartite: job-to-job paths exist only at even k.
  GraphSchema schema = ProvSchema();
  VertexTypeId job = schema.FindVertexType("Job");
  VertexTypeId file = schema.FindVertexType("File");
  EXPECT_TRUE(schema.HasKHopSchemaPath(job, job, 0));
  EXPECT_FALSE(schema.HasKHopSchemaPath(job, job, 1));
  EXPECT_TRUE(schema.HasKHopSchemaPath(job, job, 2));
  EXPECT_FALSE(schema.HasKHopSchemaPath(job, job, 3));
  EXPECT_TRUE(schema.HasKHopSchemaPath(job, job, 10));
  EXPECT_TRUE(schema.HasKHopSchemaPath(job, file, 1));
  EXPECT_FALSE(schema.HasKHopSchemaPath(job, file, 2));
}

// ---------------------------------------------------------------------------
// PropertyGraph
// ---------------------------------------------------------------------------

TEST(PropertyGraphTest, AddVertexByNameValidatesType) {
  PropertyGraph g(ProvSchema());
  ASSERT_TRUE(g.AddVertex("Job").ok());
  EXPECT_EQ(g.AddVertex("Nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(g.NumVertices(), 1u);
}

TEST(PropertyGraphTest, EdgeEndpointTypeEnforced) {
  PropertyGraph g(ProvSchema());
  VertexId job = g.AddVertex("Job").value();
  VertexId file = g.AddVertex("File").value();
  EXPECT_TRUE(g.AddEdge(job, file, "WRITES_TO").ok());
  // File cannot write to a file: the schema constraint of §III-A.
  EXPECT_EQ(g.AddEdge(file, file, "WRITES_TO").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(job, file, "IS_READ_BY").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(job, file, "NOPE").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(g.AddEdge(job, 999, "WRITES_TO").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(PropertyGraphTest, AdjacencyAndDegrees) {
  PropertyGraph g(ProvSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f, j2, "IS_READ_BY").ok());
  EXPECT_EQ(g.OutDegree(j1), 1u);
  EXPECT_EQ(g.InDegree(j1), 0u);
  EXPECT_EQ(g.OutDegree(f), 1u);
  EXPECT_EQ(g.InDegree(f), 1u);
  EXPECT_EQ(g.Edge(g.OutEdges(j1)[0]).target, f);
  EXPECT_EQ(g.Edge(g.InEdges(j2)[0]).source, f);
  EXPECT_TRUE(g.HasEdgeBetween(j1, f));
  EXPECT_FALSE(g.HasEdgeBetween(j1, j2));
}

TEST(PropertyGraphTest, TypeCountsMaintained) {
  PropertyGraph g(ProvSchema());
  VertexId j = g.AddVertex("Job").value();
  g.AddVertex("File").value();
  g.AddVertex("File").value();
  VertexTypeId job_t = g.schema().FindVertexType("Job");
  VertexTypeId file_t = g.schema().FindVertexType("File");
  EXPECT_EQ(g.NumVerticesOfType(job_t), 1u);
  EXPECT_EQ(g.NumVerticesOfType(file_t), 2u);
  EXPECT_EQ(g.VerticesOfType(job_t), std::vector<VertexId>{j});
}

TEST(PropertyGraphTest, PropertiesRoundTrip) {
  PropertyGraph g(ProvSchema());
  VertexId j = g.AddVertex("Job", {{"CPU", PropertyValue(4.5)}}).value();
  EXPECT_EQ(g.VertexProperty(j, "CPU"), PropertyValue(4.5));
  EXPECT_TRUE(g.VertexProperty(j, "missing").is_null());
  ASSERT_TRUE(g.SetVertexProperty(j, "CPU", PropertyValue(9.0)).ok());
  EXPECT_EQ(g.VertexProperty(j, "CPU"), PropertyValue(9.0));
  EXPECT_EQ(g.SetVertexProperty(99, "x", PropertyValue(1)).code(),
            StatusCode::kOutOfRange);

  VertexId f = g.AddVertex("File").value();
  EdgeId e = g.AddEdge(j, f, "WRITES_TO", {{"ts", PropertyValue(7)}}).value();
  EXPECT_EQ(g.EdgeProperty(e, "ts"), PropertyValue(7));
  ASSERT_TRUE(g.SetEdgeProperty(e, "ts", PropertyValue(8)).ok());
  EXPECT_EQ(g.EdgeProperty(e, "ts"), PropertyValue(8));
}

TEST(PropertyGraphTest, MultiEdgesAllowed) {
  PropertyGraph g(ProvSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.OutDegree(j), 2u);
}

// ---------------------------------------------------------------------------
// GraphStats
// ---------------------------------------------------------------------------

PropertyGraph StarGraph(size_t leaves) {
  GraphSchema schema;
  schema.AddVertexType("V");
  EXPECT_TRUE(schema.AddEdgeType("E", "V", "V").ok());
  PropertyGraph g(schema);
  VertexId hub = g.AddVertexOfType(0);
  for (size_t i = 0; i < leaves; ++i) {
    VertexId leaf = g.AddVertexOfType(0);
    EXPECT_TRUE(g.AddEdgeOfType(hub, leaf, 0).ok());
  }
  return g;
}

TEST(GraphStatsTest, StarDegreePercentiles) {
  PropertyGraph g = StarGraph(99);  // 1 hub deg 99, 99 leaves deg 0
  GraphStats stats = GraphStats::Compute(g);
  EXPECT_EQ(stats.num_vertices(), 100u);
  EXPECT_EQ(stats.num_edges(), 99u);
  const TypeDegreeSummary& s = stats.overall();
  EXPECT_DOUBLE_EQ(s.p50, 0);
  EXPECT_DOUBLE_EQ(s.p100, 99);
  // p99+ nearest-rank lands on the hub only at the very top.
  EXPECT_LE(s.p95, 99);
}

TEST(GraphStatsTest, PerTypeSummaries) {
  PropertyGraph g(ProvSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(j2, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f, j1, "IS_READ_BY").ok());
  GraphStats stats = GraphStats::Compute(g);
  VertexTypeId job_t = g.schema().FindVertexType("Job");
  VertexTypeId file_t = g.schema().FindVertexType("File");
  EXPECT_EQ(stats.ForType(job_t).vertex_count, 2u);
  EXPECT_DOUBLE_EQ(stats.ForType(job_t).p100, 1);
  EXPECT_EQ(stats.ForType(file_t).vertex_count, 1u);
  EXPECT_DOUBLE_EQ(stats.ForType(file_t).p100, 1);
}

TEST(GraphStatsTest, PercentileInterpolationMonotone) {
  TypeDegreeSummary s;
  s.p50 = 2;
  s.p90 = 10;
  s.p95 = 20;
  s.p100 = 100;
  double prev = 0;
  for (double alpha = 50; alpha <= 100; alpha += 5) {
    double v = s.Percentile(alpha);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 2);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 10);
  EXPECT_DOUBLE_EQ(s.Percentile(95), 20);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.Percentile(30), 2);   // clamps below
  EXPECT_DOUBLE_EQ(s.Percentile(120), 100);  // clamps above
}

TEST(DegreeDistributionTest, CcdfCountsAreDecreasing) {
  PropertyGraph g = StarGraph(9);
  DegreeDistribution dist = ComputeOutDegreeDistribution(g);
  ASSERT_GE(dist.ccdf.size(), 2u);
  for (size_t i = 1; i < dist.ccdf.size(); ++i) {
    EXPECT_GT(dist.ccdf[i].degree, dist.ccdf[i - 1].degree);
    EXPECT_LE(dist.ccdf[i].count, dist.ccdf[i - 1].count);
  }
  // Last bucket: nothing has degree > max.
  EXPECT_EQ(dist.ccdf.back().count, 0u);
}

TEST(DegreeDistributionTest, UniformDegreesFitPoorlyOrFlat) {
  // A cycle where every vertex has out-degree 1: CCDF has a single point
  // at degree 1 with count 0, so no meaningful power law.
  GraphSchema schema;
  schema.AddVertexType("V");
  ASSERT_TRUE(schema.AddEdgeType("E", "V", "V").ok());
  PropertyGraph g(schema);
  for (int i = 0; i < 10; ++i) g.AddVertexOfType(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(g.AddEdgeOfType(i, (i + 1) % 10, 0).ok());
  }
  DegreeDistribution dist = ComputeOutDegreeDistribution(g);
  EXPECT_EQ(dist.ccdf.size(), 1u);
  EXPECT_DOUBLE_EQ(dist.powerlaw_slope, 0);
}

// ---------------------------------------------------------------------------
// Removal (tombstones) and GraphDelta
// ---------------------------------------------------------------------------

GraphSchema RemovalSchema() {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
  return schema;
}

TEST(RemovalTest, RemoveEdgeUnlinksButKeepsRecordReadable) {
  PropertyGraph g(RemovalSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId keep = g.AddEdge(j, f, "WRITES_TO").value();
  EdgeId doomed =
      g.AddEdge(j, f, "WRITES_TO", {{"w", PropertyValue(7)}}).value();

  ASSERT_TRUE(g.RemoveEdge(doomed).ok());
  EXPECT_FALSE(g.IsEdgeLive(doomed));
  EXPECT_TRUE(g.IsEdgeLive(keep));
  EXPECT_EQ(g.NumEdges(), 2u);       // id space untouched
  EXPECT_EQ(g.NumLiveEdges(), 1u);   // live count decremented
  EXPECT_EQ(g.OutDegree(j), 1u);     // adjacency purged
  EXPECT_EQ(g.InDegree(f), 1u);
  EXPECT_EQ(g.NumEdgesOfType(0), 1u);
  EXPECT_TRUE(g.has_removals());
  // The dead record and its properties stay readable (lineage).
  EXPECT_EQ(g.Edge(doomed).source, j);
  EXPECT_EQ(g.EdgeProperty(doomed, "w"), PropertyValue(7));

  // Double removal and bad ids are rejected.
  EXPECT_EQ(g.RemoveEdge(doomed).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.RemoveEdge(99).code(), StatusCode::kOutOfRange);
}

TEST(RemovalTest, RemoveVertexRequiresNoLiveEdges) {
  PropertyGraph g(RemovalSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e = g.AddEdge(j, f, "WRITES_TO").value();

  EXPECT_EQ(g.RemoveVertex(j).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  ASSERT_TRUE(g.RemoveVertex(j).ok());
  EXPECT_FALSE(g.IsVertexLive(j));
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumLiveVertices(), 1u);
  EXPECT_EQ(g.NumVerticesOfType(0), 0u);
  EXPECT_EQ(g.VerticesOfType(0).size(), 0u);  // scans skip tombstones
  EXPECT_EQ(g.RemoveVertex(j).code(), StatusCode::kFailedPrecondition);
  // New ids are appended after the tombstone, never reusing it.
  VertexId j2 = g.AddVertex("Job").value();
  EXPECT_EQ(j2, 2u);
}

TEST(RemovalTest, StatsAndCsrSkipDeadElements) {
  PropertyGraph g(RemovalSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e1 = g.AddEdge(j1, f, "WRITES_TO").value();
  ASSERT_TRUE(g.AddEdge(j2, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.RemoveEdge(e1).ok());

  GraphStats stats = GraphStats::Compute(g);
  EXPECT_EQ(stats.num_vertices(), 3u);
  EXPECT_EQ(stats.num_edges(), 1u);
}

// ---------------------------------------------------------------------------
// Equality seed index
// ---------------------------------------------------------------------------

/// Index probe result, ascending by id.
std::vector<VertexId> Probe(const PropertyGraph& g, VertexTypeId type,
                            const std::string& key, const std::string& value) {
  std::vector<VertexId> out;
  g.ProbeStringEquality(type, key, value, &out);
  return out;
}

/// What the probe must return up to hash collisions: the live vertices
/// of `type` whose `key` equals `value`, found by a scan.
std::vector<VertexId> Scan(const PropertyGraph& g, VertexTypeId type,
                           const std::string& key, const std::string& value) {
  std::vector<VertexId> out;
  for (VertexId v : g.VerticesOfType(type)) {
    if (g.VertexProperty(v, key) == PropertyValue(value)) out.push_back(v);
  }
  return out;
}

TEST(EqualityIndexTest, ProbesFollowEveryVertexMutation) {
  PropertyGraph g(RemovalSchema());
  const VertexTypeId job = g.schema().FindVertexType("Job");
  const VertexTypeId file = g.schema().FindVertexType("File");
  VertexId a = g.AddVertex("Job", {{"name", PropertyValue("a")}}).value();
  VertexId b = g.AddVertex("Job", {{"name", PropertyValue("b")}}).value();
  // Same key and value on another type: never in the Job index.
  VertexId fa = g.AddVertex("File", {{"name", PropertyValue("a")}}).value();
  VertexId a2 = g.AddVertex("Job", {{"name", PropertyValue("a")}}).value();
  g.AddVertex("Job", {{"name", PropertyValue(7)}}).value();  // not a string

  // The first probe builds the index.
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a, a2}));
  EXPECT_EQ(Probe(g, file, "name", "a"), (std::vector<VertexId>{fa}));
  EXPECT_TRUE(Probe(g, job, "name", "7").empty());
  EXPECT_TRUE(Probe(g, job, "missing", "a").empty());

  // AddVertex after the build.
  VertexId a3 = g.AddVertex("Job", {{"name", PropertyValue("a")}}).value();
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a, a2, a3}));

  // SetVertexProperty: string -> int -> string.
  ASSERT_TRUE(g.SetVertexProperty(a2, "name", PropertyValue(5)).ok());
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a, a3}));
  ASSERT_TRUE(g.SetVertexProperty(a2, "name", PropertyValue("b")).ok());
  EXPECT_EQ(Probe(g, job, "name", "b"), (std::vector<VertexId>{b, a2}));
  // Another key on an indexed vertex leaves the index alone.
  ASSERT_TRUE(g.SetVertexProperty(b, "owner", PropertyValue("a")).ok());
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a, a3}));

  // RemoveVertex drops the tombstone from the index.
  ASSERT_TRUE(g.RemoveVertex(a).ok());
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a3}));
  // A property set on a dead vertex does not revive it in the index.
  ASSERT_TRUE(g.SetVertexProperty(a, "name", PropertyValue("b")).ok());
  EXPECT_EQ(Probe(g, job, "name", "b"), Scan(g, job, "name", "b"));

  for (const char* value : {"a", "b", "c"}) {
    EXPECT_EQ(Probe(g, job, "name", value), Scan(g, job, "name", value))
        << value;
  }
}

TEST(EqualityIndexTest, CopiesDropTheIndexAndBuildTheirOwn) {
  PropertyGraph g(RemovalSchema());
  const VertexTypeId job = g.schema().FindVertexType("Job");
  VertexId a = g.AddVertex("Job", {{"name", PropertyValue("a")}}).value();
  ASSERT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a}));

  PropertyGraph copy(g);
  VertexId c = copy.AddVertex("Job", {{"name", PropertyValue("a")}}).value();
  ASSERT_TRUE(copy.SetVertexProperty(a, "name", PropertyValue("z")).ok());
  // The copy answers from its own state; the original is untouched.
  EXPECT_EQ(Probe(copy, job, "name", "a"), (std::vector<VertexId>{c}));
  EXPECT_EQ(Probe(copy, job, "name", "z"), (std::vector<VertexId>{a}));
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{a}));
  EXPECT_TRUE(Probe(g, job, "name", "z").empty());

  // Assignment replaces the target's index with a lazily rebuilt one.
  g = copy;
  EXPECT_EQ(Probe(g, job, "name", "a"), (std::vector<VertexId>{c}));
}

TEST(RemovalTest, ReleaseEdgePropertiesRefusesLiveEdges) {
  PropertyGraph g(RemovalSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e = g.AddEdge(j, f, "WRITES_TO", {{"w", PropertyValue(7)}}).value();
  EXPECT_EQ(g.ReleaseEdgeProperties(e).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.EdgeProperty(e, "w"), PropertyValue(7));
  EXPECT_EQ(g.ReleaseEdgeProperties(99).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  ASSERT_TRUE(g.ReleaseEdgeProperties(e).ok());
  EXPECT_TRUE(g.EdgeProperties(e).empty());
  EXPECT_EQ(g.Edge(e).source, j);  // the record stays
}

TEST(GraphDeltaTest, CoalesceDropsDuplicateRemovals) {
  GraphDelta delta;
  delta.RemoveEdge(3).RemoveEdge(1).RemoveEdge(3).RemoveEdge(1);
  EXPECT_EQ(delta.Coalesce(), 2u);
  EXPECT_EQ(delta.edge_removals, (std::vector<EdgeId>{3, 1}));
  EXPECT_EQ(delta.Coalesce(), 0u);
}

TEST(GraphDeltaTest, ValidateCatchesEveryFailureMode) {
  PropertyGraph g(RemovalSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e = g.AddEdge(j, f, "WRITES_TO").value();

  GraphDelta ok_delta;
  ok_delta.AddVertex("File").AddEdge(j, 2, "WRITES_TO").RemoveEdge(e);
  EXPECT_TRUE(ok_delta.Validate(g).ok());

  GraphDelta unknown_vertex_type;
  unknown_vertex_type.AddVertex("Nope");
  EXPECT_EQ(unknown_vertex_type.Validate(g).code(), StatusCode::kNotFound);

  GraphDelta unknown_edge_type;
  unknown_edge_type.AddEdge(j, f, "Nope");
  EXPECT_EQ(unknown_edge_type.Validate(g).code(), StatusCode::kNotFound);

  GraphDelta bad_endpoint;
  bad_endpoint.AddEdge(j, 99, "WRITES_TO");
  EXPECT_EQ(bad_endpoint.Validate(g).code(), StatusCode::kOutOfRange);

  GraphDelta type_violation;
  type_violation.AddEdge(f, j, "WRITES_TO");  // File cannot write
  EXPECT_EQ(type_violation.Validate(g).code(), StatusCode::kInvalidArgument);

  GraphDelta missing_removal;
  missing_removal.RemoveEdge(42);
  EXPECT_EQ(missing_removal.Validate(g).code(), StatusCode::kInvalidArgument);

  GraphDelta duplicate_removal;
  duplicate_removal.RemoveEdge(e).RemoveEdge(e);
  EXPECT_EQ(duplicate_removal.Validate(g).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphDeltaTest, ApplyUsesCanonicalOrderAndReportsIds) {
  PropertyGraph g(RemovalSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId old_edge = g.AddEdge(j, f, "WRITES_TO").value();

  GraphDelta delta;
  // The new edge targets the vertex this same delta creates (future id).
  delta.AddVertex("File", {{"name", PropertyValue("out2")}});
  delta.AddEdge(j, 2, "WRITES_TO");
  delta.RemoveEdge(old_edge);

  auto applied = ApplyDeltaToGraph(&g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_EQ(applied->new_vertices.size(), 1u);
  EXPECT_EQ(applied->new_vertices[0], 2u);
  ASSERT_EQ(applied->new_edges.size(), 1u);
  EXPECT_EQ(applied->removed_edges, 1u);
  EXPECT_FALSE(g.IsEdgeLive(old_edge));
  EXPECT_TRUE(g.IsEdgeLive(applied->new_edges[0]));
  EXPECT_EQ(g.Edge(applied->new_edges[0]).target, 2u);
  EXPECT_EQ(g.NumLiveEdges(), 1u);
  EXPECT_EQ(g.VertexProperty(2, "name"), PropertyValue("out2"));

  // Validation failures leave the graph untouched.
  GraphDelta bad;
  bad.AddEdge(j, 2, "WRITES_TO");
  bad.RemoveEdge(old_edge);  // already dead
  size_t live_before = g.NumLiveEdges();
  EXPECT_FALSE(ApplyDeltaToGraph(&g, bad).ok());
  EXPECT_EQ(g.NumLiveEdges(), live_before);
}

TEST(RemovalTest, SerializationCompactsTombstones) {
  PropertyGraph g(RemovalSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e1 = g.AddEdge(j1, f, "WRITES_TO").value();
  ASSERT_TRUE(g.AddEdge(j2, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.RemoveEdge(e1).ok());
  ASSERT_TRUE(g.RemoveVertex(j1).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveGraph(g, &stream).ok());
  auto loaded = LoadGraph(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), 2u);  // dense again
  EXPECT_EQ(loaded->NumEdges(), 1u);
  EXPECT_FALSE(loaded->has_removals());
  // The surviving edge still connects a Job to the File.
  EXPECT_EQ(loaded->VertexTypeName(loaded->Edge(0).source), "Job");
  EXPECT_EQ(loaded->VertexTypeName(loaded->Edge(0).target), "File");
}

}  // namespace
}  // namespace kaskade::graph
