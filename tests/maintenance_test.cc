// Tests for incremental view maintenance: after any insertion sequence,
// the maintained view must equal a from-scratch rematerialization (up to
// vertex/edge ordering).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "core/materializer.h"
#include "datasets/generators.h"
#include "graph/delta.h"
#include "graph/property_graph.h"

namespace kaskade::core {
namespace {

using graph::EdgeId;
using graph::GraphSchema;
using graph::PropertyGraph;
using graph::PropertyValue;
using graph::VertexId;

GraphSchema LineageSchema() {
  GraphSchema schema;
  schema.AddVertexType("Job");
  schema.AddVertexType("File");
  EXPECT_TRUE(schema.AddEdgeType("WRITES_TO", "Job", "File").ok());
  EXPECT_TRUE(schema.AddEdgeType("IS_READ_BY", "File", "Job").ok());
  return schema;
}

ViewDefinition JobConnector(int k = 2) {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = k;
  def.source_type = "Job";
  def.target_type = "Job";
  return def;
}

/// Canonical form of a view graph keyed by base-graph ids:
/// multiset of (orig_src, orig_dst, edge_type_name, paths) plus the set
/// of orig vertex ids — invariant under vertex/edge insertion order.
struct CanonicalView {
  std::multiset<std::tuple<int64_t, int64_t, std::string, int64_t>> edges;
  std::set<int64_t> vertices;

  bool operator==(const CanonicalView&) const = default;
};

CanonicalView Canonicalize(const PropertyGraph& view) {
  CanonicalView canon;
  for (VertexId v = 0; v < view.NumVertices(); ++v) {
    if (!view.IsVertexLive(v)) continue;
    canon.vertices.insert(view.VertexProperty(v, "orig_id").as_int());
  }
  for (EdgeId e = 0; e < view.NumEdges(); ++e) {
    if (!view.IsEdgeLive(e)) continue;
    const graph::EdgeRecord& rec = view.Edge(e);
    PropertyValue paths = view.EdgeProperty(e, "paths");
    canon.edges.insert(
        {view.VertexProperty(rec.source, "orig_id").as_int(),
         view.VertexProperty(rec.target, "orig_id").as_int(),
         view.schema().edge_type(rec.type).name,
         paths.is_int() ? paths.as_int() : 1});
  }
  return canon;
}

TEST(MaintenanceTest, SingleEdgeInsertCreatesNewConnectorEdge) {
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->graph.NumEdges(), 0u);

  ViewMaintainer maintainer(&g, &*view);
  EdgeId e = g.AddEdge(f, j2, "IS_READ_BY").value();
  auto stats = maintainer.OnEdgeAdded(e);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_added, 1u);
  EXPECT_EQ(stats->edges_added, 1u);
  EXPECT_EQ(stats->vertices_added, 2u);  // j1 and j2 enter the view
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

TEST(MaintenanceTest, RepeatedPairIncrementsMultiplicity) {
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f1 = g.AddVertex("File").value();
  VertexId f2 = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f1, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f1, j2, "IS_READ_BY").ok());

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // A second 2-path between the same jobs: the connector edge's "paths"
  // property goes to 2, not a second edge.
  ASSERT_TRUE(g.AddEdge(j1, f2, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f2, j2, "IS_READ_BY").ok());
  auto stats = maintainer.CatchUp();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_added, 1u);
  EXPECT_EQ(stats->edges_updated, 1u);
  EXPECT_EQ(stats->edges_added, 0u);
  EXPECT_EQ(view->graph.NumEdges(), 1u);
  EXPECT_EQ(view->graph.EdgeProperty(0, "paths"), PropertyValue(2));
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

TEST(MaintenanceTest, RejectsReprocessingAndUnknownEdges) {
  PropertyGraph g(LineageSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);
  EXPECT_EQ(maintainer.OnEdgeAdded(0).status().code(),
            StatusCode::kInvalidArgument);  // already reflected
  EXPECT_EQ(maintainer.OnEdgeAdded(99).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MaintenanceTest, UnsupportedViewKindsReportUnimplemented) {
  PropertyGraph g(LineageSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  ViewDefinition agg;
  agg.kind = ViewKind::kVertexAggregatorSummarizer;
  agg.source_type = "Job";
  agg.group_by_property = "pipelineName";
  auto view = Materialize(g, agg);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);
  EdgeId e = g.AddEdge(j, f, "WRITES_TO").value();
  EXPECT_EQ(maintainer.OnEdgeAdded(e).status().code(),
            StatusCode::kUnimplemented);
}

/// Property sweep: grow a random lineage graph edge by edge; the
/// incrementally-maintained connector must match a from-scratch
/// materialization at every step (checked at the end and at a midpoint).
class MaintenancePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(MaintenancePropertyTest, IncrementalMatchesScratchConnector) {
  auto [seed, k] = GetParam();
  PropertyGraph g(LineageSchema());
  std::vector<VertexId> jobs;
  std::vector<VertexId> files;
  for (int i = 0; i < 12; ++i) jobs.push_back(g.AddVertex("Job").value());
  for (int i = 0; i < 12; ++i) files.push_back(g.AddVertex("File").value());

  uint64_t x = seed * 2654435761u + 17;
  auto next = [&x]() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };

  // Seed graph with a few edges, then materialize + attach maintainer.
  for (int i = 0; i < 6; ++i) {
    if (next() % 2 == 0) {
      (void)g.AddEdge(jobs[next() % 12], files[next() % 12], "WRITES_TO");
    } else {
      (void)g.AddEdge(files[next() % 12], jobs[next() % 12], "IS_READ_BY");
    }
  }
  auto view = Materialize(g, JobConnector(k));
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // Stream 40 more edges; verify at midpoint and end.
  for (int i = 0; i < 40; ++i) {
    EdgeId e;
    if (next() % 2 == 0) {
      e = g.AddEdge(jobs[next() % 12], files[next() % 12], "WRITES_TO")
              .value();
    } else {
      e = g.AddEdge(files[next() % 12], jobs[next() % 12], "IS_READ_BY")
              .value();
    }
    auto stats = maintainer.OnEdgeAdded(e);
    ASSERT_TRUE(stats.ok()) << stats.status();
    if (i == 19 || i == 39) {
      auto scratch = Materialize(g, JobConnector(k));
      ASSERT_TRUE(scratch.ok());
      EXPECT_EQ(Canonicalize(view->graph), Canonicalize(scratch->graph))
          << "seed=" << seed << " k=" << k << " after edge " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MaintenancePropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(2, 4)));

TEST(MaintenanceTest, BatchCatchUpAvoidsDoubleCounting) {
  // Two new edges that together form one new 2-path: the path must be
  // counted exactly once even though both insertions "see" it.
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f, j2, "IS_READ_BY").ok());
  auto stats = maintainer.CatchUp();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_added, 1u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

GraphSchema SocialSchema() {
  GraphSchema schema;
  schema.AddVertexType("Person");
  EXPECT_TRUE(schema.AddEdgeType("FOLLOWS", "Person", "Person").ok());
  return schema;
}

ViewDefinition PersonConnector(int k = 2) {
  ViewDefinition def;
  def.kind = ViewKind::kKHopConnector;
  def.k = k;
  def.source_type = "Person";
  def.target_type = "Person";
  return def;
}

TEST(MaintenanceTest, SelfLoopInsertAddsNoPathsForK2) {
  PropertyGraph g(SocialSchema());
  VertexId a = g.AddVertex("Person").value();
  VertexId b = g.AddVertex("Person").value();
  VertexId c = g.AddVertex("Person").value();
  ASSERT_TRUE(g.AddEdge(a, b, "FOLLOWS").ok());
  ASSERT_TRUE(g.AddEdge(b, c, "FOLLOWS").ok());
  auto view = Materialize(g, PersonConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // No simple 2-path can traverse a self-loop, so the view must not
  // move; a from-scratch contraction agrees.
  EdgeId loop = g.AddEdge(b, b, "FOLLOWS").value();
  auto stats = maintainer.OnEdgeAdded(loop);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_added, 0u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, PersonConnector())->graph));
}

TEST(MaintenanceTest, SelfLoopRemovalAfterLaterInsertStaysExact) {
  PropertyGraph g(SocialSchema());
  VertexId a = g.AddVertex("Person").value();
  VertexId b = g.AddVertex("Person").value();
  auto view = Materialize(g, PersonConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // The serving-workload failure shape: a self-loop lands, an ordinary
  // edge follows, then the self-loop is retracted. The retraction used
  // to count the phantom walk a -> a -> b through the newer edge and
  // subtract a pair no insertion ever added ("view lost a maintained
  // connector edge").
  EdgeId loop = g.AddEdge(a, a, "FOLLOWS").value();
  ASSERT_TRUE(maintainer.OnEdgeAdded(loop).ok());
  EdgeId ab = g.AddEdge(a, b, "FOLLOWS").value();
  ASSERT_TRUE(maintainer.OnEdgeAdded(ab).ok());
  ASSERT_TRUE(g.RemoveEdge(loop).ok());
  auto stats = maintainer.OnEdgeRemoved(loop);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, PersonConnector())->graph));
}

TEST(MaintenanceTest, SelfLoopIsTheWholePathForK1) {
  // For k == 1 the self-loop *is* a contracted closed path (v -> v);
  // the guard against phantom walks must not suppress it.
  PropertyGraph g(SocialSchema());
  VertexId a = g.AddVertex("Person").value();
  auto view = Materialize(g, PersonConnector(1));
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  EdgeId loop = g.AddEdge(a, a, "FOLLOWS").value();
  auto stats = maintainer.OnEdgeAdded(loop);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_added, 1u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, PersonConnector(1))->graph));

  ASSERT_TRUE(g.RemoveEdge(loop).ok());
  ASSERT_TRUE(maintainer.OnEdgeRemoved(loop).ok());
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, PersonConnector(1))->graph));
}

TEST(MaintenanceTest, SummarizerMaintenanceCopiesKeptElements) {
  datasets::ProvOptions options;
  options.num_jobs = 30;
  options.num_files = 60;
  options.num_tasks = 20;
  PropertyGraph g = datasets::MakeProvenanceGraph(options);
  ViewDefinition filter;
  filter.kind = ViewKind::kVertexInclusionSummarizer;
  filter.type_list = {"Job", "File"};
  auto view = Materialize(g, filter);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // New job + file + lineage edge: copied. New task edge: dropped.
  VertexId nj = g.AddVertex("Job").value();
  VertexId nf = g.AddVertex("File").value();
  VertexId nt = g.AddVertex("Task").value();
  ASSERT_TRUE(g.AddEdge(nj, nf, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(nj, nt, "SPAWNS").ok());
  auto stats = maintainer.CatchUp();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->edges_added, 1u);
  EXPECT_EQ(stats->vertices_added, 2u);  // job + file, not the task
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, filter)->graph));
}

// ---------------------------------------------------------------------------
// Removal maintenance
// ---------------------------------------------------------------------------

TEST(MaintenanceTest, RemovingOneOfTwoPathsDecrementsMultiplicity) {
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f1 = g.AddVertex("File").value();
  VertexId f2 = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f1, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(f1, j2, "IS_READ_BY").ok());
  EdgeId doomed = g.AddEdge(j1, f2, "WRITES_TO").value();
  ASSERT_TRUE(g.AddEdge(f2, j2, "IS_READ_BY").ok());

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->graph.NumLiveEdges(), 1u);  // one pair, multiplicity 2
  ViewMaintainer maintainer(&g, &*view);

  ASSERT_TRUE(g.RemoveEdge(doomed).ok());
  auto stats = maintainer.OnEdgeRemoved(doomed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_removed, 1u);
  EXPECT_EQ(stats->edges_updated, 1u);
  EXPECT_EQ(stats->edges_removed, 0u);
  EXPECT_EQ(view->graph.EdgeProperty(0, "paths"), PropertyValue(1));
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

TEST(MaintenanceTest, RemovingLastPathDropsEdgeAndCollectsOrphans) {
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());
  EdgeId doomed = g.AddEdge(f, j2, "IS_READ_BY").value();

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->graph.NumLiveEdges(), 1u);
  ASSERT_EQ(view->graph.NumLiveVertices(), 2u);
  ViewMaintainer maintainer(&g, &*view);

  ASSERT_TRUE(g.RemoveEdge(doomed).ok());
  auto stats = maintainer.OnEdgeRemoved(doomed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_removed, 1u);
  EXPECT_EQ(stats->edges_removed, 1u);
  EXPECT_EQ(stats->vertices_removed, 2u);  // both endpoints orphaned
  EXPECT_EQ(view->graph.NumLiveEdges(), 0u);
  EXPECT_EQ(view->graph.NumLiveVertices(), 0u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));

  // The same pair can come back after collection: ids differ, lineage
  // matches.
  EdgeId back = g.AddEdge(f, j2, "IS_READ_BY").value();
  auto readd = maintainer.OnEdgeAdded(back);
  ASSERT_TRUE(readd.ok()) << readd.status();
  EXPECT_EQ(readd->vertices_added, 2u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

// A view graph's equality index stays exact while maintenance collects
// a view vertex and re-adds it under a new id, and a dropped connector
// edge gives back its "paths" property map.
TEST(MaintenanceTest, ViewIndexFollowsCollectedAndReaddedVertices) {
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job", {{"name", PropertyValue("j1")}}).value();
  VertexId j2 = g.AddVertex("Job", {{"name", PropertyValue("j2")}}).value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j1, f, "WRITES_TO").ok());
  EdgeId doomed = g.AddEdge(f, j2, "IS_READ_BY").value();

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);
  const PropertyGraph& vg = view->graph;
  const graph::VertexTypeId job = vg.schema().FindVertexType("Job");
  auto probe = [&](const std::string& name) {
    std::vector<VertexId> out;
    vg.ProbeStringEquality(job, "name", name, &out);
    return out;
  };
  const std::vector<VertexId> before = probe("j1");
  ASSERT_EQ(before.size(), 1u);  // builds the view's index
  const EdgeId connector = vg.OutEdges(before[0]).front();

  ASSERT_TRUE(g.RemoveEdge(doomed).ok());
  ASSERT_TRUE(maintainer.OnEdgeRemoved(doomed).ok());
  EXPECT_TRUE(probe("j1").empty());  // collected
  EXPECT_TRUE(probe("j2").empty());
  EXPECT_FALSE(vg.IsEdgeLive(connector));
  EXPECT_TRUE(vg.EdgeProperties(connector).empty());

  EdgeId back = g.AddEdge(f, j2, "IS_READ_BY").value();
  ASSERT_TRUE(maintainer.OnEdgeAdded(back).ok());
  const std::vector<VertexId> after = probe("j1");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0], before[0]);  // re-added under a new id
  EXPECT_TRUE(vg.IsVertexLive(after[0]));
  EXPECT_EQ(view->view_to_base[after[0]], j1);
  EXPECT_EQ(vg.EdgeProperty(vg.OutEdges(after[0]).front(), "paths"),
            PropertyValue(1));
}

TEST(MaintenanceTest, SummarizerRemovalIsConstantTimeLookup) {
  datasets::ProvOptions options;
  options.num_jobs = 20;
  options.num_files = 40;
  options.num_tasks = 15;
  PropertyGraph g = datasets::MakeProvenanceGraph(options);
  ViewDefinition filter;
  filter.kind = ViewKind::kVertexInclusionSummarizer;
  filter.type_list = {"Job", "File"};
  auto view = Materialize(g, filter);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // Remove one kept edge (WRITES_TO) and one filtered edge (SPAWNS):
  // only the former changes the view.
  EdgeId kept = graph::kInvalidId;
  EdgeId filtered = graph::kInvalidId;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (g.EdgeTypeName(e) == "WRITES_TO" && kept == graph::kInvalidId) {
      kept = e;
    }
    if (g.EdgeTypeName(e) == "SPAWNS" && filtered == graph::kInvalidId) {
      filtered = e;
    }
  }
  ASSERT_NE(kept, graph::kInvalidId);
  ASSERT_NE(filtered, graph::kInvalidId);

  ASSERT_TRUE(g.RemoveEdge(kept).ok());
  auto kept_stats = maintainer.OnEdgeRemoved(kept);
  ASSERT_TRUE(kept_stats.ok()) << kept_stats.status();
  EXPECT_EQ(kept_stats->edges_removed, 1u);
  EXPECT_EQ(kept_stats->vertices_removed, 0u);  // kept by type, not degree

  ASSERT_TRUE(g.RemoveEdge(filtered).ok());
  auto filtered_stats = maintainer.OnEdgeRemoved(filtered);
  ASSERT_TRUE(filtered_stats.ok()) << filtered_stats.status();
  EXPECT_EQ(filtered_stats->edges_removed, 0u);

  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, filter)->graph));
}

TEST(MaintenanceTest, RemovalContractIsEnforced) {
  PropertyGraph g(LineageSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId e = g.AddEdge(j, f, "WRITES_TO").value();
  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // Reporting a removal the base graph has not performed is an error.
  EXPECT_EQ(maintainer.OnEdgeRemoved(e).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(maintainer.OnEdgeRemoved(99).status().code(),
            StatusCode::kOutOfRange);

  // Removing behind the maintainer's back poisons CatchUp.
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  EXPECT_EQ(maintainer.CatchUp().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MaintenanceTest, DeferredMultiRemovalReportingIsRejected) {
  // Two removals performed before the first report: single-edge
  // accounting could no longer see the shared paths, so the maintainer
  // must refuse instead of silently under-subtracting.
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId first = g.AddEdge(j1, f, "WRITES_TO").value();
  EdgeId second = g.AddEdge(f, j2, "IS_READ_BY").value();
  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  ASSERT_TRUE(g.RemoveEdge(first).ok());
  ASSERT_TRUE(g.RemoveEdge(second).ok());
  EXPECT_EQ(maintainer.OnEdgeRemoved(first).status().code(),
            StatusCode::kFailedPrecondition);
  // The batch entry point handles it exactly.
  graph::GraphDelta delta;
  delta.RemoveEdge(first);
  delta.RemoveEdge(second);
  auto stats = maintainer.ApplyDelta(delta);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_removed, 1u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

TEST(MaintenanceTest, OutOfBandVertexRemovalPoisonsCatchUp) {
  PropertyGraph g(LineageSchema());
  VertexId j = g.AddVertex("Job").value();
  VertexId isolated = g.AddVertex("File").value();
  VertexId f = g.AddVertex("File").value();
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  ViewDefinition filter;
  filter.kind = ViewKind::kVertexInclusionSummarizer;
  filter.type_list = {"Job", "File"};
  auto view = Materialize(g, filter);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  // The summarizer copied the isolated File; removing it from the base
  // without telling the maintainer would leave the view serving it.
  ASSERT_TRUE(g.RemoveVertex(isolated).ok());
  EXPECT_EQ(maintainer.CatchUp().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MaintenanceTest, BatchDeltaSubtractsSharedPathsExactlyOnce) {
  // Both edges of the only 2-path die in one batch: the path must be
  // subtracted once, not twice (and not zero times).
  PropertyGraph g(LineageSchema());
  VertexId j1 = g.AddVertex("Job").value();
  VertexId j2 = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  EdgeId first = g.AddEdge(j1, f, "WRITES_TO").value();
  EdgeId second = g.AddEdge(f, j2, "IS_READ_BY").value();

  auto view = Materialize(g, JobConnector());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->graph.NumLiveEdges(), 1u);
  ViewMaintainer maintainer(&g, &*view);

  graph::GraphDelta delta;
  delta.RemoveEdge(first);
  delta.RemoveEdge(second);
  auto applied = graph::ApplyDeltaToGraph(&g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto stats = maintainer.ApplyDelta(delta);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->paths_removed, 1u);
  EXPECT_EQ(stats->edges_removed, 1u);
  EXPECT_EQ(view->graph.NumLiveEdges(), 0u);
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, JobConnector())->graph));
}

TEST(MaintenanceTest, SummarizerStreamMatchesScratch) {
  datasets::ProvOptions options;
  options.num_jobs = 40;
  options.num_files = 80;
  options.num_tasks = 30;
  PropertyGraph g = datasets::MakeProvenanceGraph(options);
  ViewDefinition filter;
  filter.kind = ViewKind::kEdgeRemovalSummarizer;
  filter.type_list = {"SUBMITS"};
  auto view = Materialize(g, filter);
  ASSERT_TRUE(view.ok());
  ViewMaintainer maintainer(&g, &*view);

  VertexId j = g.AddVertex("Job").value();
  VertexId f = g.AddVertex("File").value();
  VertexId u = g.AddVertex("User").value();
  ASSERT_TRUE(g.AddEdge(j, f, "WRITES_TO").ok());
  ASSERT_TRUE(g.AddEdge(u, j, "SUBMITS").ok());  // removed type
  ASSERT_TRUE(g.AddEdge(f, j, "IS_READ_BY").ok());
  ASSERT_TRUE(maintainer.CatchUp().ok());
  EXPECT_EQ(Canonicalize(view->graph),
            Canonicalize(Materialize(g, filter)->graph));
}

}  // namespace
}  // namespace kaskade::core
