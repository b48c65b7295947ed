/// \file kaskade_shell.cpp
/// \brief A small interactive shell over the Kaskade engine: generate or
/// load a graph, analyze workloads, run queries (with EXPLAIN), inspect
/// the view catalog, and save graphs to disk.
///
/// Usage:  ./build/examples/kaskade_shell
/// Commands (also: pipe a script into stdin):
///   gen prov|dblp|social|road     build a synthetic dataset
///   load <path> / save <path>     graph serialization
///   open <dir>                    durable engine: recover, or persist the
///                                 loaded graph into <dir>
///   checkpoint                    write a checkpoint + truncate the WAL
///   wal                           durability telemetry (WAL, checkpoints)
///   analyze <query>               workload analyzer: select+materialize
///   q <query>                     execute through the rewriter
///   explain <query>               show the raw-graph plan
///   deadline <ms>|off             deadline for subsequent q/batch calls
///   views                         list the view catalog (with state)
///   workload                      observed-workload tracker snapshot
///   telemetry                     engine counters (incl. overload)
///   advise                        dry-run advice from the observed workload
///   adapt                         apply advice (background builds) + wait
///   stats                         base-graph statistics
///   help / quit

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "core/engine.h"
#include "datasets/generators.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "graph/serialization.h"
#include "graph/stats.h"
#include "query/explain.h"
#include "query/parser.h"

namespace {

using kaskade::core::Engine;
using kaskade::graph::PropertyGraph;

std::unique_ptr<Engine> MakeEngine(PropertyGraph graph) {
  std::printf("graph ready: %zu vertices, %zu edges, %zu vertex types\n",
              graph.NumVertices(), graph.NumEdges(),
              graph.schema().num_vertex_types());
  return std::make_unique<Engine>(std::move(graph));
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  gen prov|dblp|social|road   build a synthetic dataset\n"
      "  load <path>                 load a serialized graph\n"
      "  save <path>                 save the base graph\n"
      "  open <dir>                  durable engine: recover from <dir>, or\n"
      "                              persist the loaded graph into it\n"
      "  checkpoint                  checkpoint now + truncate the WAL\n"
      "  wal                         durability telemetry (WAL, "
      "checkpoints)\n"
      "  analyze <query>             select + materialize views for a "
      "query\n"
      "  q <query>                   execute (rewriter picks the plan)\n"
      "  batch <q1> ; <q2> ; ...     execute queries concurrently\n"
      "  explain <query>             show the raw-graph plan\n"
      "  deadline <ms>|off           set/clear the deadline for q and "
      "batch\n"
      "  views                       list materialized views (with state)\n"
      "  workload                    observed queries (the tracker)\n"
      "  telemetry                   engine counters (cache, overload, "
      "faults)\n"
      "  advise                      dry-run view advice for the observed "
      "workload\n"
      "  adapt                       apply advice: drop now, build in "
      "background\n"
      "  stats                       base graph statistics\n"
      "  help | quit\n");
}

}  // namespace

int main() {
  std::unique_ptr<Engine> engine;
  // Deadline budget for q/batch; zero means no deadline. Each call
  // anchors a fresh absolute deadline at its own arrival.
  std::chrono::milliseconds deadline_budget{0};
  auto call_options = [&deadline_budget] {
    kaskade::core::CallOptions call;
    if (deadline_budget.count() > 0) {
      call.deadline = std::chrono::steady_clock::now() + deadline_budget;
    }
    return call;
  };
  PrintHelp();
  std::string line;
  std::printf("kaskade> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(kaskade::TrimWhitespace(line));
    std::string command = trimmed.substr(0, trimmed.find(' '));
    std::string rest(kaskade::TrimWhitespace(
        trimmed.size() > command.size() ? trimmed.substr(command.size())
                                        : ""));
    if (command == "quit" || command == "exit") break;
    if (command.empty()) {
      // fallthrough to prompt
    } else if (command == "help") {
      PrintHelp();
    } else if (command == "gen") {
      if (rest == "prov") {
        engine = MakeEngine(kaskade::datasets::MakeProvenanceGraph(
            {.num_jobs = 400, .num_files = 1000}));
      } else if (rest == "dblp") {
        engine = MakeEngine(kaskade::datasets::MakeDblpGraph(
            {.num_authors = 600, .num_articles = 1200}));
      } else if (rest == "social") {
        engine = MakeEngine(
            kaskade::datasets::MakeSocialGraph({.num_vertices = 1000}));
      } else if (rest == "road") {
        engine = MakeEngine(
            kaskade::datasets::MakeRoadGraph({.width = 30, .height = 30}));
      } else {
        std::printf("unknown dataset '%s'\n", rest.c_str());
      }
    } else if (command == "load") {
      std::ifstream in(rest);
      if (!in) {
        std::printf("cannot open '%s'\n", rest.c_str());
      } else {
        auto graph = kaskade::graph::LoadGraph(&in);
        if (!graph.ok()) {
          std::printf("load failed: %s\n", graph.status().ToString().c_str());
        } else {
          engine = MakeEngine(std::move(*graph));
        }
      }
    } else if (command == "open") {
      if (rest.empty()) {
        std::printf("usage: open <dir>\n");
      } else if (!kaskade::durability::ListCheckpoints(rest).empty()) {
        // The directory holds durable state: recover it.
        kaskade::core::RecoveryReport recovery;
        auto opened = Engine::Open(rest, {}, &recovery);
        if (!opened.ok()) {
          std::printf("recovery failed: %s\n",
                      opened.status().ToString().c_str());
        } else {
          engine = std::move(opened).value();
          std::printf(
              "recovered from %s: checkpoint lsn %llu, %llu WAL records "
              "replayed (last lsn %llu), %zu views rematerialized\n",
              rest.c_str(),
              static_cast<unsigned long long>(recovery.checkpoint_lsn),
              static_cast<unsigned long long>(recovery.records_replayed),
              static_cast<unsigned long long>(recovery.last_lsn),
              recovery.views_rematerialized);
          for (const auto& note : recovery.notes) {
            std::printf("  note: %s\n", note.c_str());
          }
          std::printf("graph: %zu vertices, %zu edges\n",
                      engine->base_graph().NumVertices(),
                      engine->base_graph().NumEdges());
        }
      } else if (engine == nullptr) {
        std::printf("no durable state in '%s' and no graph loaded; "
                    "gen/load first, then 'open <dir>' to persist it\n",
                    rest.c_str());
      } else {
        // Fresh durable directory seeded from the current base graph.
        kaskade::core::EngineOptions options;
        options.durability.dir = rest;
        auto durable =
            std::make_unique<Engine>(engine->base_graph(), options);
        if (!durable->durability_error().ok()) {
          std::printf("cannot persist into '%s': %s\n", rest.c_str(),
                      durable->durability_error().ToString().c_str());
        } else {
          engine = std::move(durable);
          std::printf("engine now durable in %s (policy %s)\n", rest.c_str(),
                      kaskade::durability::FsyncPolicyName(
                          options.durability.fsync_policy));
        }
      }
    } else if (command == "deadline") {
      if (rest == "off" || rest == "0") {
        deadline_budget = std::chrono::milliseconds{0};
        std::printf("deadline off\n");
      } else if (rest.empty()) {
        if (deadline_budget.count() > 0) {
          std::printf("deadline %lld ms\n",
                      static_cast<long long>(deadline_budget.count()));
        } else {
          std::printf("deadline off\n");
        }
      } else {
        char* end = nullptr;
        long value = std::strtol(rest.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || value <= 0) {
          std::printf("usage: deadline <ms>|off\n");
        } else {
          deadline_budget = std::chrono::milliseconds{value};
          std::printf("deadline %ld ms (applies to q and batch)\n", value);
        }
      }
    } else if (engine == nullptr) {
      std::printf("no graph loaded; use 'gen' or 'load' first\n");
    } else if (command == "save") {
      std::ofstream out(rest);
      kaskade::Status st = out
                               ? kaskade::graph::SaveGraph(
                                     engine->base_graph(), &out)
                               : kaskade::Status::InvalidArgument(
                                     "cannot open '" + rest + "'");
      std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
    } else if (command == "analyze") {
      auto report = engine->AnalyzeWorkload({rest});
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
      } else {
        std::printf("%zu candidates, %zu selected+materialized\n",
                    report->candidates.size(), report->selected.size());
        for (const auto& view : report->selected) {
          std::printf("  %s (est. %.3g edges)\n",
                      view.definition.Name().c_str(),
                      view.estimated_size_edges);
        }
      }
    } else if (command == "q") {
      auto result = engine->Execute(rest, call_options());
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        std::printf("plan: %s\n",
                    result->used_view
                        ? ("view " + result->view_name).c_str()
                        : "raw graph");
        std::printf("%s", result->table.ToString(10).c_str());
      }
    } else if (command == "batch") {
      std::vector<std::string> texts;
      std::stringstream stream(rest);
      std::string piece;
      while (std::getline(stream, piece, ';')) {
        std::string query(kaskade::TrimWhitespace(piece));
        if (!query.empty()) texts.push_back(std::move(query));
      }
      if (texts.empty()) {
        std::printf("usage: batch <q1> ; <q2> ; ...\n");
      } else {
        auto results = engine->ExecuteBatch(texts, call_options());
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok()) {
            std::printf("[%zu] error: %s\n", i,
                        results[i].status().ToString().c_str());
          } else {
            std::printf("[%zu] plan: %s, %zu rows\n", i,
                        results[i]->used_view
                            ? ("view " + results[i]->view_name).c_str()
                            : "raw graph",
                        results[i]->table.num_rows());
          }
        }
      }
    } else if (command == "explain") {
      auto query = kaskade::query::ParseQueryText(rest);
      if (!query.ok()) {
        std::printf("error: %s\n", query.status().ToString().c_str());
      } else {
        auto stats = kaskade::graph::GraphStats::Compute(engine->base_graph());
        std::printf("%s", kaskade::query::ExplainQuery(
                              *query, engine->base_graph(), stats)
                              .c_str());
      }
    } else if (command == "views") {
      std::printf("catalog generation %llu\n",
                  static_cast<unsigned long long>(
                      engine->catalog().generation()));
      if (engine->catalog().empty()) std::printf("(no views)\n");
      for (const auto* entry : engine->catalog().Entries()) {
        std::printf("  %-28s [%s] |V|=%zu |E|=%zu\n", entry->name().c_str(),
                    kaskade::core::ViewStateName(entry->state),
                    entry->view.graph.NumVertices(),
                    entry->view.graph.NumEdges());
        if (!entry->health.ok()) {
          std::printf("    quarantined: %s\n",
                      entry->health.ToString().c_str());
        }
      }
      auto telemetry = engine->TelemetrySnapshot();
      if (telemetry.views_quarantined > 0 ||
          telemetry.quarantine_events > 0) {
        std::printf("%zu quarantined now, %zu quarantine events total "
                    "(re-add the definition to reclaim)\n",
                    telemetry.views_quarantined,
                    telemetry.quarantine_events);
      }
    } else if (command == "telemetry") {
      auto t = engine->TelemetrySnapshot();
      std::printf("catalog generation %llu, %zu views ready, "
                  "%zu quarantined\n",
                  static_cast<unsigned long long>(t.catalog_generation),
                  t.views_ready, t.views_quarantined);
      std::printf("plan cache: %zu hits, %zu misses\n", t.plan_cache_hits,
                  t.plan_cache_misses);
      std::printf("base stats refreshes: %zu\n", t.base_stats_refreshes);
      std::printf("traversal: %llu expansions, %llu index-seeded matches\n",
                  static_cast<unsigned long long>(t.traversal_expansions),
                  static_cast<unsigned long long>(t.index_seeded_matches));
      std::printf("snapshots: %zu hits, %zu patches, %zu full builds, "
                  "%zu build failures\n",
                  t.snapshot_hits, t.snapshot_patches,
                  t.snapshot_full_builds, t.snapshot_build_failures);
      std::printf("builds: %zu completed, %zu replayed, %zu pending\n",
                  t.builds_completed, t.builds_replayed, t.builds_pending);
      std::printf("overload: %zu shed, %zu timed out, %llu deadline "
                  "checks, %zu quarantine events, %zu batch-worker "
                  "faults\n",
                  t.queries_shed, t.queries_timed_out,
                  static_cast<unsigned long long>(t.deadline_checks),
                  t.quarantine_events, t.batch_worker_faults);
    } else if (command == "workload") {
      auto snapshot = engine->workload().Snapshot();
      std::printf("%zu distinct queries, %llu executions observed\n",
                  snapshot.entries.size(),
                  static_cast<unsigned long long>(snapshot.total_executions));
      for (const auto& obs : snapshot.entries) {
        std::printf("  %5llu x  %8.0fus avg  %5llu view hits  %s\n",
                    static_cast<unsigned long long>(obs.executions),
                    obs.mean_latency_us(),
                    static_cast<unsigned long long>(obs.view_hits),
                    obs.query_text.c_str());
      }
    } else if (command == "advise" || command == "adapt") {
      auto plan = engine->Advise();
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      } else {
        std::printf("advice over %zu observed queries: %zu creations, "
                    "%zu drops\n",
                    plan->observed_queries, plan->create.size(),
                    plan->drop.size());
        for (const auto& def : plan->create) {
          std::printf("  + %s\n", def.Name().c_str());
        }
        for (const auto& name : plan->drop) {
          std::printf("  - %s\n", name.c_str());
        }
        if (command == "adapt") {
          auto report = engine->ApplyAdvice(*plan);
          if (!report.ok()) {
            std::printf("error: %s\n", report.status().ToString().c_str());
          } else {
            engine->WaitForBuilds();
            // Drain every failure, not just the oldest, so stale
            // errors never bleed into the next round's report.
            bool failed = false;
            for (auto error = engine->TakeBuildError(); !error.ok();
                 error = engine->TakeBuildError()) {
              std::printf("build failed: %s\n", error.ToString().c_str());
              failed = true;
            }
            if (!failed) {
              std::printf("applied: %zu dropped, %zu built in background\n",
                          report->views_dropped, report->builds_scheduled);
            }
          }
        }
      }
    } else if (command == "checkpoint") {
      auto lsn = engine->Checkpoint();
      if (!lsn.ok()) {
        std::printf("checkpoint failed: %s\n", lsn.status().ToString().c_str());
      } else {
        std::printf("checkpoint written at lsn %llu; WAL truncated below it\n",
                    static_cast<unsigned long long>(lsn.value()));
      }
    } else if (command == "wal") {
      if (engine->wal() == nullptr) {
        std::printf("durability off (use 'open <dir>')\n");
      } else {
        auto t = engine->TelemetrySnapshot();
        std::printf("wal: %llu appends, %llu bytes, %llu fsyncs, "
                    "%llu group-commit batches\n",
                    static_cast<unsigned long long>(t.wal_appends),
                    static_cast<unsigned long long>(t.wal_bytes),
                    static_cast<unsigned long long>(t.wal_fsyncs),
                    static_cast<unsigned long long>(t.group_commit_batches));
        std::printf("checkpoints: %zu written, %zu failed\n",
                    t.checkpoints_written, t.checkpoint_failures);
        std::printf("segment %s: %llu bytes appended, %llu durable\n",
                    engine->wal()->current_segment_path().c_str(),
                    static_cast<unsigned long long>(
                        engine->wal()->end_offset()),
                    static_cast<unsigned long long>(
                        engine->wal()->durable_offset()));
        if (!engine->durability_error().ok()) {
          std::printf("DURABILITY ERROR (engine read-only): %s\n",
                      engine->durability_error().ToString().c_str());
        }
      }
    } else if (command == "stats") {
      auto stats = kaskade::graph::GraphStats::Compute(engine->base_graph());
      std::printf("|V|=%zu |E|=%zu\n", stats.num_vertices(),
                  stats.num_edges());
      for (const auto& summary : stats.per_type()) {
        std::printf("  %-14s n=%-8zu out-deg p50=%.0f p95=%.0f max=%.0f\n",
                    summary.type_name.c_str(), summary.vertex_count,
                    summary.p50, summary.p95, summary.p100);
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
    std::printf("kaskade> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
