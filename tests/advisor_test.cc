// Tests for the adaptive view lifecycle: workload-tracker telemetry
// under concurrency, online advice (reproducing offline analysis,
// proposing drops, hysteresis across rounds), and non-blocking
// background materialization (readers progress during a build,
// mid-build deltas replay at publish, out-of-band mutations force a
// rebuild, and the published view is always exact).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/advisor.h"
#include "core/catalog.h"
#include "core/engine.h"
#include "core/materializer.h"
#include "core/workload_tracker.h"
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

/// Canonical (orig_src, orig_dst, paths) multiset of a connector view —
/// the differential-harness equality notion: two views are the same view
/// iff these agree.
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

/// Asserts the named connector view equals a from-scratch
/// materialization over the engine's current base graph.
void ExpectViewExact(const Engine& engine, const ViewDefinition& def) {
  const CatalogEntry* entry = engine.catalog().Find(def.Name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, ViewState::kReady);
  auto scratch = Materialize(engine.base_graph(), def);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  EXPECT_EQ(ConnectorCanon(entry->view), ConnectorCanon(*scratch));
}

// ---------------------------------------------------------------------------
// WorkloadTracker
// ---------------------------------------------------------------------------

TEST(WorkloadTrackerTest, AggregatesPerCanonicalText) {
  WorkloadTracker tracker;
  tracker.Record("q1", 100.0, 5.0, false, "");
  tracker.Record("q1", 300.0, 5.0, true, "khop2[Job->Job]");
  tracker.Record("q2", 50.0, 2.0, false, "");

  WorkloadSnapshot snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.entries.size(), 2u);
  EXPECT_EQ(snapshot.total_executions, 3u);
  // Sorted by descending execution count.
  EXPECT_EQ(snapshot.entries[0].query_text, "q1");
  EXPECT_EQ(snapshot.entries[0].executions, 2u);
  EXPECT_DOUBLE_EQ(snapshot.entries[0].total_latency_us, 400.0);
  EXPECT_DOUBLE_EQ(snapshot.entries[0].mean_latency_us(), 200.0);
  EXPECT_EQ(snapshot.entries[0].view_hits, 1u);
  EXPECT_EQ(snapshot.entries[0].last_view, "khop2[Job->Job]");
  EXPECT_EQ(snapshot.entries[1].executions, 1u);

  tracker.Clear();
  EXPECT_EQ(tracker.distinct_queries(), 0u);
  EXPECT_EQ(tracker.total_recorded(), 3u);  // lifetime counter survives
}

TEST(WorkloadTrackerTest, ConcurrentRecordersWithSnapshotReaders) {
  WorkloadTracker tracker;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 2000;
  std::atomic<bool> start{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kRecordsPerThread; ++i) {
        // A shared hot key plus per-thread keys: stripe contention and
        // stripe spread both get exercised.
        tracker.Record("hot", 1.0, 1.0, i % 2 == 0, "v");
        tracker.Record("t" + std::to_string(t) + "_" + std::to_string(i % 7),
                       2.0, 1.0, false, "");
      }
    });
  }
  // Snapshot reader races the recorders: totals must be internally
  // consistent (sum of entries == snapshot total) at every point.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      WorkloadSnapshot snapshot = tracker.Snapshot();
      uint64_t sum = 0;
      for (const QueryObservation& obs : snapshot.entries) {
        sum += obs.executions;
      }
      ASSERT_EQ(sum, snapshot.total_executions);
    }
  });
  start.store(true);
  for (std::thread& t : recorders) t.join();
  stop.store(true);
  snapshotter.join();

  WorkloadSnapshot final_snapshot = tracker.Snapshot();
  EXPECT_EQ(final_snapshot.total_executions,
            uint64_t(kThreads) * kRecordsPerThread * 2);
  EXPECT_EQ(tracker.total_recorded(),
            uint64_t(kThreads) * kRecordsPerThread * 2);
  EXPECT_EQ(final_snapshot.entries[0].query_text, "hot");
  EXPECT_EQ(final_snapshot.entries[0].executions,
            uint64_t(kThreads) * kRecordsPerThread);
  EXPECT_EQ(final_snapshot.entries[0].view_hits,
            uint64_t(kThreads) * kRecordsPerThread / 2);
}

// ---------------------------------------------------------------------------
// Online advice
// ---------------------------------------------------------------------------

TEST(AdvisorTest, AdviseReproducesAnalyzeWorkloadSelections) {
  const std::vector<std::string> workload = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::BlastRadiusQueryText(),
  };

  // Offline: the one-shot analyzer on a fresh engine.
  Engine offline(SmallProv());
  auto offline_report = offline.AnalyzeWorkload(workload);
  ASSERT_TRUE(offline_report.ok()) << offline_report.status();
  std::set<std::string> offline_names;
  for (const auto* entry : offline.catalog().Entries()) {
    offline_names.insert(entry->name());
  }
  ASSERT_FALSE(offline_names.empty());

  // Online: the same mix observed by the tracker, then Advise().
  Engine online(SmallProv());
  for (int round = 0; round < 2; ++round) {
    for (const std::string& text : workload) {
      ASSERT_TRUE(online.Execute(text).ok());
    }
  }
  EXPECT_EQ(online.workload().distinct_queries(), workload.size());
  auto plan = online.Advise();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::set<std::string> advised_names;
  for (const ViewDefinition& def : plan->create) {
    advised_names.insert(def.Name());
  }
  EXPECT_EQ(advised_names, offline_names);
  EXPECT_TRUE(plan->drop.empty());
  EXPECT_EQ(plan->observed_queries, workload.size());
  EXPECT_EQ(plan->observed_executions, uint64_t(2 * workload.size()));
}

TEST(AdvisorTest, ProposesDropsForUnusedViews) {
  Engine engine(SmallProv());
  // A File->File connector no observed query can use.
  ASSERT_TRUE(engine.AddMaterializedView(FileConnector()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  }
  auto plan = engine.Advise();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->drop.size(), 1u);
  EXPECT_EQ(plan->drop[0], FileConnector().Name());

  // Applying the advice removes it; queries still run on the raw graph.
  auto report = engine.ApplyAdvice(*plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->views_dropped, 1u);
  engine.WaitForBuilds();
  EXPECT_EQ(engine.catalog().Find(FileConnector().Name()), nullptr);
  EXPECT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());

  // Re-applying the same plan is a no-op (idempotent advice).
  auto again = engine.ApplyAdvice(*plan);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->views_dropped, 0u);
}

TEST(AdvisorTest, EmptyObservedWorkloadNeverProposesDrops) {
  // No signal is not a drop signal: an advice round firing before any
  // traffic (or right after ResetWorkload) must not nuke the catalog.
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.AddMaterializedView(JobConnector()).ok());
  auto plan = engine.Advise();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->drop.empty());
  EXPECT_TRUE(plan->create.empty());
  EXPECT_EQ(plan->observed_queries, 0u);
}

TEST(AdvisorTest, ResetWorkloadLetsQuietViewsBecomeDropCandidates) {
  // Observations are lifetime-cumulative, so a query that stops
  // arriving keeps protecting its view; epoch-based deployments reset
  // the tracker after each advice round so advice follows the current
  // epoch.
  Engine engine(SmallProv());
  ASSERT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  ASSERT_TRUE(engine.AutoAdvise().ok());
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  ASSERT_NE(engine.catalog().Find(JobConnector().Name()), nullptr);

  // New epoch: the old query never arrives again.
  engine.ResetWorkload();
  const std::string unrelated =
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.Execute(unrelated).ok());

  auto plan = engine.Advise();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(std::count(plan->drop.begin(), plan->drop.end(),
                       JobConnector().Name()),
            1);
}

TEST(AdvisorTest, LatencyWeightingLetsSlowRareQueryWinTheView) {
  // §V-B weights workload queries by "frequency or expected execution
  // time". Frequency-only weighting lets a fast query that runs often
  // out-vote a slow analytical query that runs rarely; weighting by
  // frequency x measured latency (the tracker records it) flips that
  // when the rare query's aggregate cost dominates.
  PropertyGraph base = SmallProv();

  const std::string frequent = datasets::AncestorsQueryText("Job", 4);
  const std::string rare = datasets::AncestorsQueryText("File", 4);
  WorkloadSnapshot snapshot;
  QueryObservation frequent_obs;
  frequent_obs.query_text = frequent;
  frequent_obs.executions = 50;
  frequent_obs.total_latency_us = 50 * 40.0;  // fast: 40us each
  QueryObservation rare_obs;
  rare_obs.query_text = rare;
  rare_obs.executions = 2;
  rare_obs.total_latency_us = 2 * 400000.0;  // slow: 400ms each
  snapshot.entries = {frequent_obs, rare_obs};
  snapshot.total_executions = 52;

  // Budget that fits either query's best view but not both, so the
  // weighting decides which one wins the knapsack.
  AdvisorOptions options;
  {
    ViewSelector sizer(&base);
    ViewDefinition job = JobConnector();
    ViewDefinition file = FileConnector();
    options.selector.budget_edges =
        std::max(sizer.cost_model().ViewSizeEdges(job),
                 sizer.cost_model().ViewSizeEdges(file));
  }

  ViewCatalog catalog(&base);
  auto advised_names = [&](const AdvisorOptions& opts) {
    Advisor advisor(&base, opts);
    auto plan = advisor.Advise(snapshot, catalog);
    EXPECT_TRUE(plan.ok()) << plan.status();
    std::set<std::string> names;
    if (plan.ok()) {
      for (const ViewDefinition& def : plan->create) names.insert(def.Name());
    }
    return names;
  };

  std::set<std::string> by_frequency = advised_names(options);
  options.weighting = AdviceWeighting::kExpectedExecutionTime;
  std::set<std::string> by_latency = advised_names(options);

  // Frequency weighting follows the popular Job query...
  EXPECT_EQ(by_frequency.count(JobConnector().Name()), 1u) << "freq";
  EXPECT_EQ(by_frequency.count(FileConnector().Name()), 0u) << "freq";
  // ...expected-execution-time weighting follows the expensive File one.
  EXPECT_EQ(by_latency.count(FileConnector().Name()), 1u) << "latency";
  EXPECT_EQ(by_latency.count(JobConnector().Name()), 0u) << "latency";
}

TEST(AdvisorTest, HysteresisKeepsAdviceStableAcrossAdjacentRounds) {
  Engine engine(SmallProv());
  const std::vector<std::string> workload = {
      datasets::AncestorsQueryText("Job", 4),
      datasets::BlastRadiusQueryText(),
  };
  for (const std::string& text : workload) {
    ASSERT_TRUE(engine.Execute(text).ok());
  }

  // Round 1 creates the selected views.
  auto round1 = engine.AutoAdvise();
  ASSERT_TRUE(round1.ok()) << round1.status();
  EXPECT_GT(round1->builds_scheduled, 0u);
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  std::set<std::string> after_round1;
  for (const auto* entry : engine.catalog().Entries()) {
    after_round1.insert(entry->name());
  }
  uint64_t generation_after_round1 = engine.catalog().generation();

  // The workload keeps flowing unchanged (now served by the views).
  for (const std::string& text : workload) {
    ASSERT_TRUE(engine.Execute(text).ok());
  }

  // Round 2 on the unchanged mix must neither drop nor re-create: the
  // incumbents carry the keep boost, and a materialized view is only a
  // drop candidate when no observed query can use it.
  auto round2 = engine.Advise();
  ASSERT_TRUE(round2.ok()) << round2.status();
  EXPECT_TRUE(round2->empty())
      << "round 2 proposed " << round2->create.size() << " creations and "
      << round2->drop.size() << " drops on an unchanged workload";
  auto applied = engine.ApplyAdvice(*round2);
  ASSERT_TRUE(applied.ok());
  engine.WaitForBuilds();
  std::set<std::string> after_round2;
  for (const auto* entry : engine.catalog().Entries()) {
    after_round2.insert(entry->name());
  }
  EXPECT_EQ(after_round1, after_round2);
  EXPECT_EQ(engine.catalog().generation(), generation_after_round1);
}

/// Total estimated size of the views that survive `plan`: the selected
/// set plus every kept incumbent (materialized, not selected, not
/// dropped) — exactly the set the catalog holds after applying the plan.
double SurvivorSizeEdges(const AdvicePlan& plan) {
  auto is_dropped = [&](const std::string& name) {
    return std::count(plan.drop.begin(), plan.drop.end(), name) > 0;
  };
  auto is_selected = [&](const std::string& name) {
    for (const ScoredView& scored : plan.selection.selected) {
      if (scored.definition.Name() == name) return true;
    }
    return false;
  };
  double size = plan.selection.selected_size_edges;
  for (const ScoredView& scored : plan.selection.candidates) {
    if (!scored.currently_materialized) continue;
    const std::string name = scored.definition.Name();
    if (!is_selected(name) && !is_dropped(name)) {
      size += scored.estimated_size_edges;
    }
  }
  return size;
}

TEST(AdvisorTest, BudgetHoldsAcrossRoundsDespiteKeptIncumbents) {
  // Creep regression: each round's *selection* respects the budget, but
  // hysteresis also keeps unselected incumbents that still serve
  // queries — so selected + kept can exceed the budget round over round
  // unless the advisor evicts kept incumbents back under it.
  PropertyGraph base = SmallProv();
  AdvisorOptions options;
  {
    // Budget fits either connector alone, never both.
    ViewSelector sizer(&base);
    ViewDefinition job = JobConnector();
    ViewDefinition file = FileConnector();
    options.selector.budget_edges =
        std::max(sizer.cost_model().ViewSizeEdges(job),
                 sizer.cost_model().ViewSizeEdges(file));
  }

  // Incumbent: the Job connector is already materialized.
  ViewCatalog catalog(&base);
  ASSERT_TRUE(catalog.Add(JobConnector()).ok());

  // The Job query keeps flowing (so the incumbent is applicable and the
  // zero-applicable drop rule never fires), but the File query now
  // dominates and wins the knapsack for the File connector.
  WorkloadSnapshot snapshot;
  QueryObservation rare;
  rare.query_text = datasets::AncestorsQueryText("Job", 4);
  rare.executions = 5;
  QueryObservation frequent;
  frequent.query_text = datasets::AncestorsQueryText("File", 4);
  frequent.executions = 50;
  snapshot.entries = {rare, frequent};
  snapshot.total_executions = 55;

  Advisor advisor(&base, options);
  for (int round = 0; round < 3; ++round) {
    auto plan = advisor.Advise(snapshot, catalog);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_LE(SurvivorSizeEdges(*plan), options.selector.budget_edges)
        << "round " << round << " leaves the catalog over budget";
    if (round == 0) {
      // The fix is the eviction: the still-applicable Job incumbent lost
      // the knapsack to the File view and no longer fits beside it.
      EXPECT_EQ(std::count(plan->drop.begin(), plan->drop.end(),
                           JobConnector().Name()),
                1)
          << "kept incumbent was not evicted to restore the budget";
    }
    for (const std::string& name : plan->drop) {
      ASSERT_TRUE(catalog.Remove(name).ok());
    }
    for (const ViewDefinition& def : plan->create) {
      ASSERT_TRUE(catalog.Add(def).ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Background materialization
// ---------------------------------------------------------------------------

/// Late-bound hook: EngineOptions is copied at construction, so tests
/// install the actual callback after the engine exists.
struct HookSlot {
  std::mutex mu;
  std::function<void()> fn;
  void Set(std::function<void()> f) {
    std::lock_guard<std::mutex> lock(mu);
    fn = std::move(f);
  }
  void Fire() {
    std::function<void()> f;
    {
      std::lock_guard<std::mutex> lock(mu);
      f = fn;
    }
    if (f) f();
  }
};

TEST(BackgroundBuildTest, ReadersCompleteWhileBuildIsInFlight) {
  auto during_build = std::make_shared<HookSlot>();
  EngineOptions options;
  options.build_hooks.during_build = [during_build] { during_build->Fire(); };
  Engine engine(SmallProv(), options);
  const std::string query = datasets::AncestorsQueryText("Job", 4);
  auto baseline = engine.Execute(query);
  ASSERT_TRUE(baseline.ok());
  const size_t expected_rows = baseline->table.num_rows();

  // The build blocks (holding its reader lock) until the main thread
  // has completed a batch of queries — proving readers make progress
  // while the materialization is in flight.
  std::mutex mu;
  std::condition_variable cv;
  bool build_started = false;
  bool readers_done = false;
  during_build->Set([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      build_started = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return readers_done; });
  });

  AdvicePlan plan;
  plan.create.push_back(JobConnector());
  auto report = engine.ApplyAdvice(plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->builds_scheduled, 1u);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return build_started; });
  }

  // Mid-build: the placeholder is registered but not planner-visible;
  // queries run on the raw graph with pre-build results.
  const CatalogEntry* placeholder = engine.catalog().Find(JobConnector().Name());
  ASSERT_NE(placeholder, nullptr);
  EXPECT_EQ(placeholder->state, ViewState::kBuilding);
  EXPECT_EQ(engine.catalog().size(), 1u);
  EXPECT_EQ(engine.catalog().num_ready(), 0u);
  size_t completed = 0;
  for (int i = 0; i < 8; ++i) {
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->used_view);
    EXPECT_EQ(result->table.num_rows(), expected_rows);
    ++completed;
  }
  EXPECT_EQ(completed, 8u);
  EXPECT_GE(engine.builds_pending(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    readers_done = true;
  }
  cv.notify_all();
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  EXPECT_EQ(engine.builds_completed(), 1u);
  EXPECT_EQ(engine.catalog().num_ready(), 1u);

  // Published: exact, planner-visible, and the same rows as the raw
  // plan (the rewrite is an equivalence).
  ExpectViewExact(engine, JobConnector());
  auto after = engine.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->used_view);
  EXPECT_EQ(after->table.num_rows(), expected_rows);
}

TEST(BackgroundBuildTest, DeltaDuringBuildIsReplayedAtPublish) {
  auto before_publish = std::make_shared<HookSlot>();
  EngineOptions options;
  options.build_hooks.before_publish = [before_publish] {
    before_publish->Fire();
  };
  Engine engine(SmallProv(), options);

  // The delta that will land mid-build: one removal plus an insert pair
  // touching Job->File->Job paths, so the connector genuinely changes.
  VertexId job = engine.base_graph()
                     .VerticesOfType(
                         engine.base_graph().schema().FindVertexType("Job"))
                     .front();
  VertexId file = engine.base_graph()
                      .VerticesOfType(
                          engine.base_graph().schema().FindVertexType("File"))
                      .back();
  std::atomic<int> fires{0};
  before_publish->Set([&] {
    if (fires.fetch_add(1) != 0) return;  // only the first publish attempt
    graph::GraphDelta delta;
    delta.RemoveEdge(0);
    delta.AddEdge(job, file, "WRITES_TO");
    delta.AddEdge(file, job, "IS_READ_BY");
    auto applied = engine.ApplyDelta(std::move(delta));
    ASSERT_TRUE(applied.ok()) << applied.status();
  });

  AdvicePlan plan;
  plan.create.push_back(JobConnector());
  ASSERT_TRUE(engine.ApplyAdvice(plan).ok());
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  EXPECT_EQ(fires.load(), 1);

  // The build lost the publish race, caught up through the incremental
  // replay (not a rebuild), and the published view is exact at the
  // post-delta base.
  EXPECT_EQ(engine.builds_completed(), 1u);
  EXPECT_EQ(engine.builds_replayed(), 1u);
  EXPECT_EQ(engine.build_retries(), 0u);
  ExpectViewExact(engine, JobConnector());
}

TEST(BackgroundBuildTest, OutOfBandMutationForcesRebuild) {
  auto before_publish = std::make_shared<HookSlot>();
  EngineOptions options;
  options.build_hooks.before_publish = [before_publish] {
    before_publish->Fire();
  };
  Engine engine(SmallProv(), options);

  VertexId job = engine.base_graph()
                     .VerticesOfType(
                         engine.base_graph().schema().FindVertexType("Job"))
                     .front();
  VertexId file = engine.base_graph()
                      .VerticesOfType(
                          engine.base_graph().schema().FindVertexType("File"))
                      .back();
  std::atomic<int> fires{0};
  before_publish->Set([&] {
    if (fires.fetch_add(1) != 0) return;
    // MutateBaseGraph leaves no replayable delta log entry: the build
    // must notice the version gap and re-materialize.
    auto status = engine.MutateBaseGraph([&](graph::PropertyGraph* g) {
      KASKADE_RETURN_IF_ERROR(g->AddEdge(job, file, "WRITES_TO").status());
      return g->AddEdge(file, job, "IS_READ_BY").status();
    });
    ASSERT_TRUE(status.ok()) << status;
  });

  AdvicePlan plan;
  plan.create.push_back(JobConnector());
  ASSERT_TRUE(engine.ApplyAdvice(plan).ok());
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());

  EXPECT_EQ(engine.builds_completed(), 1u);
  EXPECT_EQ(engine.builds_replayed(), 0u);
  EXPECT_GE(engine.build_retries(), 1u);
  ExpectViewExact(engine, JobConnector());
}

TEST(BackgroundBuildTest, FailedBuildQuarantinesEntryAndReportsError) {
  Engine engine(SmallProv());
  ViewDefinition bogus;
  bogus.kind = ViewKind::kKHopConnector;
  bogus.k = 2;
  bogus.source_type = "NoSuchType";
  bogus.target_type = "Job";

  AdvicePlan plan;
  plan.create.push_back(bogus);
  auto report = engine.ApplyAdvice(plan);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->builds_scheduled, 1u);
  engine.WaitForBuilds();
  EXPECT_FALSE(engine.TakeBuildError().ok());
  // The failed build quarantines its entry: the name stays reserved
  // with the failure recorded in health, out of the planner's sight.
  const CatalogEntry* entry = engine.catalog().Find(bogus.Name());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, ViewState::kQuarantined);
  EXPECT_FALSE(entry->health.ok());
  EXPECT_EQ(engine.catalog().num_quarantined(), 1u);
  EXPECT_EQ(engine.catalog().num_ready(), 0u);
  EXPECT_EQ(engine.builds_completed(), 0u);
  EXPECT_EQ(engine.TelemetrySnapshot().quarantine_events, 1u);
  // The error slot is one-shot.
  EXPECT_TRUE(engine.TakeBuildError().ok());
  // Queries still run (against the base graph).
  EXPECT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  // Dropping the quarantined entry retires the name.
  EXPECT_TRUE(engine.RemoveView(bogus.Name()).ok());
  EXPECT_EQ(engine.catalog().Find(bogus.Name()), nullptr);
}

TEST(BackgroundBuildTest, AnalyzeWorkloadDoesNotStealOtherRoundsBuildErrors) {
  Engine engine(SmallProv());
  ViewDefinition bogus;
  bogus.kind = ViewKind::kKHopConnector;
  bogus.k = 2;
  bogus.source_type = "NoSuchType";
  bogus.target_type = "Job";
  AdvicePlan failing;
  failing.create.push_back(bogus);
  ASSERT_TRUE(engine.ApplyAdvice(failing).ok());
  engine.WaitForBuilds();

  // AnalyzeWorkload's own builds succeed: it must not report (or
  // swallow) the earlier round's failure.
  auto report = engine.AnalyzeWorkload({datasets::AncestorsQueryText("Job", 4)});
  ASSERT_TRUE(report.ok()) << report.status();
  Status stolen = engine.TakeBuildError();
  EXPECT_FALSE(stolen.ok()) << "earlier round's failure was swallowed";
}

TEST(BackgroundBuildTest, ConcurrentReadersHammerThroughPublish) {
  // No hooks: a free-running race. Readers must never fail and must
  // always see either the raw plan or the published (exact) view.
  Engine engine(SmallProv());
  const std::string query = datasets::AncestorsQueryText("Job", 4);
  auto baseline = engine.Execute(query);
  ASSERT_TRUE(baseline.ok());
  const size_t expected_rows = baseline->table.num_rows();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = engine.Execute(query);
        if (!result.ok() || result->table.num_rows() != expected_rows) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    AdvicePlan create_plan;
    create_plan.create.push_back(JobConnector());
    ASSERT_TRUE(engine.ApplyAdvice(create_plan).ok());
    engine.WaitForBuilds();
    ASSERT_TRUE(engine.TakeBuildError().ok());
    AdvicePlan drop_plan;
    drop_plan.drop.push_back(JobConnector().Name());
    ASSERT_TRUE(engine.ApplyAdvice(drop_plan).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.builds_completed(), 3u);
}

// ---------------------------------------------------------------------------
// Canonical-text cache path (shared by both Execute overloads)
// ---------------------------------------------------------------------------

TEST(CanonicalTextTest, ParsedQuerySharesPlanCacheAndTrackerEntry) {
  Engine engine(SmallProv());
  auto parsed = query::ParseQueryText(datasets::AncestorsQueryText("Job", 4));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // Pre-parsed executions used to bypass the plan cache entirely; now
  // they render to canonical text and share one cache path.
  ASSERT_TRUE(engine.Execute(*parsed).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  ASSERT_TRUE(engine.Execute(*parsed).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1u);

  // The text overload of the same canonical form hits the same entry...
  ASSERT_TRUE(engine.Execute(parsed->ToString()).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 2u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  // ...and all three executions aggregate under one tracker key.
  WorkloadSnapshot snapshot = engine.workload().Snapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);
  EXPECT_EQ(snapshot.entries[0].query_text, parsed->ToString());
  EXPECT_EQ(snapshot.entries[0].executions, 3u);
  EXPECT_GT(snapshot.entries[0].total_latency_us, 0.0);
}

TEST(CanonicalTextTest, ExecutionResultCarriesMeasuredLatency) {
  Engine engine(SmallProv());
  auto result = engine.Execute(datasets::AncestorsQueryText("Job", 4));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->latency_us, 0.0);
}

// ---------------------------------------------------------------------------
// Workload decay
// ---------------------------------------------------------------------------

TEST(WorkloadTrackerTest, DecayFadesAndEventuallyEvictsColdEntries) {
  WorkloadTracker tracker;
  for (int i = 0; i < 8; ++i) tracker.Record("cold", 100.0, 4.0, true, "v");
  tracker.Record("colder", 50.0, 2.0, false, "");

  tracker.Decay(0.5);
  WorkloadSnapshot snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.entries.size(), 1u);  // 1 * 0.5 truncates to 0: evicted
  EXPECT_EQ(snapshot.entries[0].query_text, "cold");
  EXPECT_EQ(snapshot.entries[0].executions, 4u);
  EXPECT_EQ(snapshot.entries[0].view_hits, 4u);
  EXPECT_DOUBLE_EQ(snapshot.entries[0].total_latency_us, 400.0);
  EXPECT_DOUBLE_EQ(snapshot.entries[0].total_estimated_cost, 16.0);

  // Un-refreshed entries die under repeated decay; a refreshed one
  // keeps its (faded) weight.
  tracker.Decay(0.5);
  tracker.Record("cold", 100.0, 4.0, false, "");
  tracker.Decay(0.5);
  tracker.Decay(0.5);
  tracker.Decay(0.5);
  EXPECT_EQ(tracker.distinct_queries(), 0u);
  // The lifetime counter is untouched by decay.
  EXPECT_EQ(tracker.total_recorded(), 10u);
}

TEST(WorkloadTrackerTest, DecayFreesStripeCapacityAtTheCap) {
  // A single-stripe tracker fills to the distinct-text cap; new texts
  // are then dropped. Decaying everything to zero evicts the stale set
  // and the stripe accepts new texts again.
  constexpr size_t kCap = 4096;
  WorkloadTracker tracker(/*stripes=*/1);
  for (size_t i = 0; i < kCap; ++i) {
    tracker.Record("old_" + std::to_string(i), 1.0, 1.0, false, "");
  }
  EXPECT_EQ(tracker.distinct_queries(), kCap);
  tracker.Record("new_hot", 1.0, 1.0, false, "");
  EXPECT_EQ(tracker.distinct_queries(), kCap);  // dropped: stripe full

  tracker.Decay(0.0);
  EXPECT_EQ(tracker.distinct_queries(), 0u);
  tracker.Record("new_hot", 1.0, 1.0, false, "");
  EXPECT_EQ(tracker.distinct_queries(), 1u);
  EXPECT_EQ(tracker.Snapshot().entries[0].query_text, "new_hot");
}

TEST(WorkloadTrackerTest, SnapshotRebuildsEntriesAfterDecay) {
  // Texts are stored once (as stripe keys) and view names interned; the
  // snapshot must still hand back every field, across stripes.
  WorkloadTracker tracker(/*stripes=*/4);
  for (int i = 0; i < 4; ++i) {
    tracker.Record("q_view", 10.0, 3.0, /*used_view=*/true,
                   i < 2 ? "khop2[Job->Job]" : "khop2[File->File]");
  }
  for (int i = 0; i < 6; ++i) {
    tracker.Record("q_raw_" + std::to_string(i % 3), 20.0, 5.0, false, "",
                   /*fused=*/true);
  }
  tracker.Decay(0.5);

  WorkloadSnapshot snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.entries.size(), 4u);
  EXPECT_EQ(snapshot.total_executions, 5u);
  const QueryObservation& view = snapshot.entries[0];
  EXPECT_EQ(view.query_text, "q_view");
  EXPECT_EQ(view.executions, 2u);
  EXPECT_EQ(view.view_hits, 2u);
  EXPECT_EQ(view.last_view, "khop2[File->File]");
  EXPECT_EQ(view.fused_hits, 0u);
  EXPECT_DOUBLE_EQ(view.total_latency_us, 20.0);
  EXPECT_DOUBLE_EQ(view.total_estimated_cost, 6.0);
  for (int i = 0; i < 3; ++i) {
    const QueryObservation& raw = snapshot.entries[size_t(i) + 1];
    EXPECT_EQ(raw.query_text, "q_raw_" + std::to_string(i));
    EXPECT_EQ(raw.executions, 1u);
    EXPECT_EQ(raw.fused_hits, 1u);
    EXPECT_EQ(raw.view_hits, 0u);
    EXPECT_EQ(raw.last_view, "");
    EXPECT_DOUBLE_EQ(raw.total_latency_us, 20.0);
    EXPECT_DOUBLE_EQ(raw.total_estimated_cost, 5.0);
  }
}

TEST(AdvisorTest, DecayedColdQueryLosesItsView) {
  // Same story as ResetWorkloadLetsQuietViewsBecomeDropCandidates, but
  // driven by EngineOptions::workload_decay instead of an explicit
  // reset: each AutoAdvise round halves history, so a phase-1-hot query
  // that goes silent in phase 2 fades until its view is proposed as a
  // drop — while phase 2's own traffic keeps its full weight.
  EngineOptions options;
  options.workload_decay = 0.5;
  Engine engine(SmallProv(), options);

  // Phase 1: the ancestors query is hot; the trigger-free AutoAdvise
  // round materializes its connector view.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  }
  ASSERT_TRUE(engine.AutoAdvise().ok());
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  ASSERT_NE(engine.catalog().Find(JobConnector().Name()), nullptr);

  // Phase 2: only an unrelated query arrives. Each advice round decays
  // the old observations by half; within a few rounds the hot query's
  // count truncates to zero and its view has no observed supporter.
  const std::string unrelated =
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
  bool dropped = false;
  for (int round = 0; round < 6 && !dropped; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.Execute(unrelated).ok());
    auto plan = engine.Advise();
    ASSERT_TRUE(plan.ok()) << plan.status();
    dropped = std::count(plan->drop.begin(), plan->drop.end(),
                         JobConnector().Name()) == 1;
    ASSERT_TRUE(engine.ApplyAdvice(*plan).ok());
    engine.WaitForBuilds();
    ASSERT_TRUE(engine.TakeBuildError().ok());
    // ApplyAdvice alone never decays; run the decaying round explicitly.
    ASSERT_TRUE(engine.AutoAdvise().ok());
    engine.WaitForBuilds();
    ASSERT_TRUE(engine.TakeBuildError().ok());
  }
  EXPECT_TRUE(dropped);
  EXPECT_EQ(engine.catalog().Find(JobConnector().Name()), nullptr);
}

TEST(AdvisorTest, PeriodicTriggerFiresAutoAdviseMidTraffic) {
  // The opt-in counter trigger: with auto_advise_every_n_ops = 5 the
  // fifth recorded execution runs an advice round on the query thread
  // itself — no external advice loop — and materializes the view for
  // the traffic the tracker observed.
  EngineOptions options;
  options.auto_advise_every_n_ops = 5;
  Engine engine(SmallProv(), options);
  EXPECT_EQ(engine.auto_advises_triggered(), 0u);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  }
  EXPECT_EQ(engine.auto_advises_triggered(), 1u);
  EXPECT_EQ(engine.auto_advise_errors(), 0u);
  engine.WaitForBuilds();
  ASSERT_TRUE(engine.TakeBuildError().ok());
  EXPECT_NE(engine.catalog().Find(JobConnector().Name()), nullptr);

  // The threshold advanced: the next few queries don't re-fire...
  ASSERT_TRUE(engine.Execute(datasets::AncestorsQueryText("Job", 4)).ok());
  EXPECT_EQ(engine.auto_advises_triggered(), 1u);
  // ...until another N executions recorded (batch queries count too).
  std::vector<std::string> batch(4, datasets::AncestorsQueryText("Job", 4));
  for (const auto& result : engine.ExecuteBatch(batch)) {
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(engine.auto_advises_triggered(), 2u);
}

}  // namespace
}  // namespace kaskade::core
