// Sharded execution (EngineOptions::shards >= 2): the scatter-gather
// MATCH layer must return tables byte-identical to the unsharded run
// (row order included) for the solo, parallel, and fused CSR backends
// across mutation streams; the per-shard SegmentStore snapshot pipeline
// must stay exact against fresh builds at every prefix; and concurrent
// snapshot refreshes on disjoint shards interleaved with readers must
// be race-free (this suite runs under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/segment_store.h"
#include "csr_test_util.h"
#include "datasets/generators.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "query/executor.h"
#include "query/fused_runner.h"
#include "query/parser.h"

namespace kaskade {
namespace {

using core::Engine;
using core::EngineOptions;
using core::SegmentStore;
using graph::CsrGraph;
using graph::EdgeId;
using graph::GraphDelta;
using graph::PropertyGraph;
using graph::VertexId;

// Multi-segment provenance graph (> 2 * 1024 vertices), so the shard
// partition is non-trivial for K in {2, 4}.
PropertyGraph MakeShardableGraph(uint64_t seed = 11) {
  return datasets::MakeProvenanceGraph({.num_jobs = 600,
                                        .num_files = 1400,
                                        .num_tasks = 700,
                                        .num_machines = 20,
                                        .num_users = 40,
                                        .seed = seed});
}

const char* const kShardQueries[] = {
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
    "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
    "RETURN a, b",
    "MATCH (u:User)-[:SUBMITS]->(j:Job) (j:Job)-[:SPAWNS]->(t:Task) "
    "RETURN u, t",
    "MATCH (a:File)-[r*1..2]->(b:Task) RETURN a, b",
    "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 8 RETURN j, f",
};

/// One random mutation batch over the provenance schema; `live` tracks
/// removable edge ids. `max_vertex` clusters insert endpoints below an
/// id bound (so a batch dirties few segments — the workload shape the
/// segment-sharing assertions measure); the default spreads uniformly.
GraphDelta RandomBatch(const PropertyGraph& g, std::mt19937_64* rng,
                       std::vector<EdgeId>* live,
                       VertexId max_vertex = graph::kInvalidId) {
  GraphDelta delta;
  const graph::VertexTypeId job_t = g.schema().FindVertexType("Job");
  const graph::VertexTypeId file_t = g.schema().FindVertexType("File");
  std::vector<VertexId> jobs = g.VerticesOfType(job_t);
  std::vector<VertexId> files = g.VerticesOfType(file_t);
  auto clamp_pool = [max_vertex](std::vector<VertexId>* pool) {
    std::vector<VertexId> kept;
    for (VertexId v : *pool) {
      if (v < max_vertex) kept.push_back(v);
    }
    if (!kept.empty()) *pool = std::move(kept);
  };
  clamp_pool(&jobs);
  clamp_pool(&files);
  const size_t inserts = 8 + (*rng)() % 8;
  for (size_t i = 0; i < inserts; ++i) {
    VertexId j = jobs[(*rng)() % jobs.size()];
    VertexId f = files[(*rng)() % files.size()];
    if ((*rng)() % 2 == 0) {
      delta.AddEdge(j, f, "WRITES_TO", {});
    } else {
      delta.AddEdge(f, j, "IS_READ_BY", {});
    }
  }
  const size_t removals = live->size() > 16 ? 4 + (*rng)() % 4 : 0;
  for (size_t i = 0; i < removals; ++i) {
    const size_t at = (*rng)() % live->size();
    delta.RemoveEdge((*live)[at]);
    live->erase(live->begin() + at);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Executor scatter-gather: sharded and parallel output is byte-identical
// (row order included) to the sequential unsharded table, for solo
// queries and for every member of a fused group.
// ---------------------------------------------------------------------------

void ExpectSameRows(const query::Table& expected, const query::Table& got,
                    const std::string& context) {
  ASSERT_EQ(expected.num_rows(), got.num_rows()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    ASSERT_EQ(expected.rows()[r], got.rows()[r]) << context << " row " << r;
  }
}

TEST(ShardingTest, ShardedBackendsMatchUnshardedAcrossMutations) {
  PropertyGraph g = MakeShardableGraph();
  std::mt19937_64 rng(77);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.NumEdges()); ++e) {
    live.push_back(e);
  }
  // A fused group of same-shape members. The last one matches every
  // WRITES_TO edge; the row limit below sits under its row count and at
  // or above every sibling's, so it alone must fail.
  const std::vector<std::string> group_texts = {
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 80 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 60 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 40 RETURN j, f",
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 0 RETURN j, f",
  };
  std::vector<query::Query> group_queries;
  std::vector<const query::MatchQuery*> members;
  for (const std::string& text : group_texts) {
    auto parsed = query::ParseQueryText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    group_queries.push_back(std::move(*parsed));
  }
  for (const query::Query& q : group_queries) members.push_back(&q.match());
  const size_t over_limit = members.size() - 1;

  constexpr int kSteps = 5;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0) {
      GraphDelta delta = RandomBatch(g, &rng, &live);
      auto applied = graph::ApplyDeltaToGraph(&g, delta);
      ASSERT_TRUE(applied.ok()) << applied.status();
      for (EdgeId e : applied->new_edges) live.push_back(e);
    }
    CsrGraph csr = CsrGraph::Build(g);
    query::QueryExecutor oracle(&g, &csr);  // shards = 1, sequential
    std::vector<query::Table> expected;
    for (const char* text : kShardQueries) {
      auto solo = oracle.ExecuteText(text);
      ASSERT_TRUE(solo.ok()) << text << ": " << solo.status();
      expected.push_back(std::move(*solo));
    }
    std::vector<query::Table> expected_members;
    size_t row_limit = 0;
    for (size_t m = 0; m < group_queries.size(); ++m) {
      auto solo = oracle.Execute(group_queries[m]);
      ASSERT_TRUE(solo.ok()) << group_texts[m] << ": " << solo.status();
      if (m != over_limit) row_limit = std::max(row_limit, solo->num_rows());
      expected_members.push_back(std::move(*solo));
    }
    ASSERT_GT(expected_members[over_limit].num_rows(), row_limit);

    for (size_t shards : {1u, 2u, 4u}) {
      for (size_t workers : {1u, 4u}) {
        query::ExecutorOptions opts;
        opts.shards = shards;
        opts.parallelism = workers;
        const std::string config = " shards=" + std::to_string(shards) +
                                   " workers=" + std::to_string(workers) +
                                   " step " + std::to_string(step);
        query::QueryExecutor sharded(&g, &csr, opts);
        for (size_t q = 0; q < std::size(kShardQueries); ++q) {
          auto got = sharded.ExecuteText(kShardQueries[q]);
          ASSERT_TRUE(got.ok()) << kShardQueries[q] << ": " << got.status();
          ExpectSameRows(expected[q], *got, kShardQueries[q] + config);
        }

        opts.max_rows = row_limit;
        auto fused = query::ExecuteFusedMatch(g, csr, members, opts);
        ASSERT_EQ(fused.size(), members.size());
        for (size_t m = 0; m < members.size(); ++m) {
          const std::string context = group_texts[m] + config;
          if (m == over_limit) {
            EXPECT_EQ(fused[m].status().code(), StatusCode::kResourceExhausted)
                << context << ": " << fused[m].status();
            continue;
          }
          ASSERT_TRUE(fused[m].ok()) << context << ": " << fused[m].status();
          ExpectSameRows(expected_members[m], *fused[m], context);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine end to end: a sharded engine (per-shard snapshot pipeline +
// scatter-gather MATCH, fused batch path included) returns tables
// byte-identical to an unsharded engine fed the same mutation stream.
// ---------------------------------------------------------------------------

TEST(ShardingTest, EngineShardedMatchesUnshardedWithFusion) {
  for (size_t shards : {2u, 4u}) {
    Engine baseline(MakeShardableGraph());
    EngineOptions sharded_opts;
    sharded_opts.shards = shards;
    sharded_opts.executor.parallelism = 2;
    Engine sharded(MakeShardableGraph(), sharded_opts);

    std::mt19937_64 rng(913 + shards);
    // Only edges this stream inserted are removable, and inserts
    // cluster into the first segment's id window, so each batch
    // dirties one segment and the rest stay refcount-shared — the
    // workload shape the telemetry assertions below measure.
    std::vector<EdgeId> live;
    // Same-shape batch members (only constants differ) so the fused
    // path groups them.
    const std::vector<std::string> fused_batch = {
        "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 4 RETURN j, f",
        "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 8 RETURN j, f",
        "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU > 16 RETURN j, f",
    };

    constexpr int kSteps = 4;
    for (int step = 0; step < kSteps; ++step) {
      if (step > 0) {
        GraphDelta delta =
            RandomBatch(baseline.base_graph(), &rng, &live,
                        static_cast<VertexId>(graph::kCsrSegmentVertices));
        auto a = baseline.ApplyDelta(delta);
        ASSERT_TRUE(a.ok()) << a.status();
        auto b = sharded.ApplyDelta(delta);
        ASSERT_TRUE(b.ok()) << b.status();
        for (EdgeId e : a->new_edges) live.push_back(e);
      }
      for (const char* text : kShardQueries) {
        auto expected = baseline.Execute(text);
        ASSERT_TRUE(expected.ok()) << text << ": " << expected.status();
        auto got = sharded.Execute(text);
        ASSERT_TRUE(got.ok()) << text << ": " << got.status();
        ASSERT_EQ(expected->table.num_rows(), got->table.num_rows())
            << text << " shards=" << shards << " step " << step;
        for (size_t r = 0; r < expected->table.num_rows(); ++r) {
          ASSERT_EQ(expected->table.rows()[r], got->table.rows()[r])
              << text << " row " << r << " shards=" << shards << " step "
              << step;
        }
      }
      auto expected_batch = baseline.ExecuteBatch(fused_batch);
      auto got_batch = sharded.ExecuteBatch(fused_batch);
      ASSERT_EQ(expected_batch.size(), got_batch.size());
      for (size_t m = 0; m < expected_batch.size(); ++m) {
        ASSERT_TRUE(expected_batch[m].ok()) << expected_batch[m].status();
        ASSERT_TRUE(got_batch[m].ok()) << got_batch[m].status();
        ASSERT_EQ(expected_batch[m]->table.num_rows(),
                  got_batch[m]->table.num_rows())
            << "member " << m << " shards=" << shards;
        for (size_t r = 0; r < expected_batch[m]->table.num_rows(); ++r) {
          ASSERT_EQ(expected_batch[m]->table.rows()[r],
                    got_batch[m]->table.rows()[r])
              << "member " << m << " row " << r << " shards=" << shards;
        }
      }
    }
    // The sharded pipeline actually ran: per-shard writer-lock counters
    // exist and segments were shared across refreshes.
    core::EngineTelemetry t = sharded.TelemetrySnapshot();
    EXPECT_EQ(t.shard_writer_acquisitions.size(), shards);
    EXPECT_GT(t.patch_segments_shared, 0u);
    uint64_t acquisitions = 0;
    for (uint64_t a : t.shard_writer_acquisitions) acquisitions += a;
    EXPECT_GT(acquisitions, 0u);
  }
}

// ---------------------------------------------------------------------------
// SegmentStore differential: the assembled per-shard snapshot equals a
// fresh Build at every mutation prefix, sharing clean segments.
// ---------------------------------------------------------------------------

TEST(ShardingTest, SegmentStoreSnapshotMatchesFreshBuildAtEveryPrefix) {
  PropertyGraph g = MakeShardableGraph(23);
  SegmentStore store(&g, 4);
  std::mt19937_64 rng(5);
  // Clustered stream (see RandomBatch): each batch dirties only the
  // first segment, leaving the others to be shared across refreshes.
  std::vector<EdgeId> live;

  uint64_t version = 1;
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    GraphDelta delta =
        RandomBatch(g, &rng, &live,
                    static_cast<VertexId>(graph::kCsrSegmentVertices));
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : applied->new_edges) live.push_back(e);
    store.NoteDelta(std::make_shared<const graph::DeltaFootprint>(delta));

    SegmentStore::Outcome outcome;
    auto snap = store.Snapshot(++version, &outcome);
    ASSERT_NE(snap, nullptr);
    EXPECT_NE(outcome, SegmentStore::Outcome::kHit);
    CsrGraph fresh = CsrGraph::Build(g);
    testutil::ExpectCsrEqual(*snap, fresh, g,
                             "store step " + std::to_string(step));
    // Version-keyed cache: the same version is a hit returning the
    // same object.
    auto again = store.Snapshot(version, &outcome);
    EXPECT_EQ(again.get(), snap.get());
    EXPECT_EQ(outcome, SegmentStore::Outcome::kHit);
  }
  // O(delta) claim at the store level: across the run most segments
  // were shared, not rebuilt (the graph spans several segments and each
  // batch touches a handful of vertices).
  EXPECT_GT(store.segments_shared(), store.segments_copied());
  EXPECT_EQ(store.writer_acquisitions().size(), 4u);
}

// A version bump that dirtied nothing — here a view registration —
// produces no segment, so the sharded refresh reports a hit, as the
// single-slot path's re-stamp does, and the snapshot stays exact.
TEST(ShardingTest, VersionBumpWithoutDeltaIsAHit) {
  EngineOptions opts;
  opts.shards = 4;
  Engine engine(MakeShardableGraph(7), opts);
  const core::ViewCatalog& catalog = engine.catalog();
  ASSERT_NE(catalog.BaseSnapshot(), nullptr);
  const size_t patches = catalog.snapshot_patches();
  const size_t builds = catalog.snapshot_builds();
  const size_t hits = catalog.snapshot_hits();
  const uint64_t copied = catalog.patch_segments_copied();

  core::ViewDefinition def;
  def.kind = core::ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Job";
  def.target_type = "Job";
  const uint64_t generation = catalog.generation();
  ASSERT_TRUE(engine.AddMaterializedView(def).ok());
  ASSERT_GT(catalog.generation(), generation);

  auto snap = catalog.BaseSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(catalog.snapshot_patches(), patches);
  EXPECT_EQ(catalog.snapshot_builds(), builds);
  EXPECT_EQ(catalog.snapshot_hits(), hits + 1);
  EXPECT_EQ(catalog.patch_segments_copied(), copied);
  testutil::ExpectCsrEqual(*snap, CsrGraph::Build(engine.base_graph()),
                           engine.base_graph(), "after view registration");
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target): readers refreshing disjoint stale shards
// in parallel, racing on the per-shard writer locks, interleaved with
// serialized mutators. Every assembled snapshot must equal the fresh
// build of the graph state it was taken at.
// ---------------------------------------------------------------------------

TEST(ShardingTest, ConcurrentShardRefreshesAndReadersAreRaceFree) {
  constexpr size_t kShards = 4;
  constexpr int kRounds = 20;
  PropertyGraph g = MakeShardableGraph(31);
  SegmentStore store(&g, kShards);
  std::mt19937_64 rng(17);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.NumEdges()); ++e) {
    live.push_back(e);
  }

  uint64_t version = 1;
  for (int round = 0; round < kRounds; ++round) {
    // Mutation phase (exclusive, as under the engine writer lock).
    GraphDelta delta = RandomBatch(g, &rng, &live);
    auto applied = graph::ApplyDeltaToGraph(&g, delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    for (EdgeId e : applied->new_edges) live.push_back(e);
    store.NoteDelta(std::make_shared<const graph::DeltaFootprint>(delta));
    ++version;

    // Reader phase: several threads race to refresh the stale shards —
    // each shard's writer lock arbitrates — and each takes a full
    // snapshot.
    constexpr size_t kReaders = 6;
    std::vector<std::shared_ptr<const CsrGraph>> snaps(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back(
          [&store, &snaps, t, version] { snaps[t] = store.Snapshot(version); });
    }
    for (std::thread& t : readers) t.join();

    CsrGraph fresh = CsrGraph::Build(g);
    for (size_t t = 0; t < kReaders; ++t) {
      ASSERT_NE(snaps[t], nullptr) << "reader " << t;
      // All readers adopt the published snapshot for the version.
      EXPECT_EQ(snaps[t].get(), snaps[0].get());
    }
    testutil::ExpectCsrEqual(*snaps[0], fresh, g,
                             "round " + std::to_string(round));
  }
}

// Engine-level interleaving: concurrent Execute readers (each forcing
// per-shard snapshot refreshes) against serialized ApplyDelta writers.
TEST(ShardingTest, EngineConcurrentReadersDuringMutationStream) {
  EngineOptions opts;
  opts.shards = 4;
  Engine engine(MakeShardableGraph(41), opts);
  std::mt19937_64 rng(3);
  std::vector<EdgeId> live;
  for (EdgeId e = 0; e < static_cast<EdgeId>(engine.base_graph().NumEdges());
       ++e) {
    live.push_back(e);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop, &failures, t] {
      const char* text = kShardQueries[t % 5];
      while (!stop.load(std::memory_order_acquire)) {
        auto result = engine.Execute(text);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int step = 0; step < 15; ++step) {
    GraphDelta delta = RandomBatch(engine.base_graph(), &rng, &live);
    auto report = engine.ApplyDelta(delta);
    ASSERT_TRUE(report.ok()) << report.status();
    for (EdgeId e : report->new_edges) live.push_back(e);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace kaskade
