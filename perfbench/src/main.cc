// Repository benchmark program.
//
//   kaskade_perfbench --workload <lineage_read|social_scan|social_churn>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--workdir <dir>] [--trace-dir <dir>]
//
// Prints one `info {...}` line (inputs digest, options, sample counts,
// check results) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). All files go under --workdir and --trace-dir.

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stoi(value);
    } else if (flag == "--trace") {
      args->trace = std::stoi(value);
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string Num(double v) {
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Unit of a per-layer metric, from its name suffix.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_ratio")) return "ratio";
  if (ends("_per_delta")) return name.find("bytes") != std::string::npos
                                     ? "bytes"
                                     : "count";
  return "count";
}

/// Set-ups of a timed run, before and after the timed phase; setup_s is
/// their median. Host speed drifts over seconds, so set-ups split across
/// the run sample more than one moment of it. Each set-up starts from a
/// trimmed heap, so that it pays the first-touch page faults of a set-up
/// in a fresh process even after the timed phase has grown the heap.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;

int Run(const Args& args) {
  Result<WorkloadId> id = ParseWorkload(args.workload);
  if (!id.ok()) {
    std::cerr << id.status().ToString() << "\n";
    return 2;
  }
  const WorkloadConfig config = ConfigFor(*id);
  const Inputs inputs = MakeInputs(config, args.seed, args.seconds);
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);

  // Each set-up replaces the previous engine; the last one before the
  // timed phase serves it.
  SpeedReference reference;
  std::vector<double> setup_s;
  std::unique_ptr<core::Engine> engine;
  auto set_up = [&]() -> bool {
    engine.reset();
    malloc_trim(0);
    for (int k = 0; k < 20; ++k) reference.Sample();
    const Clock::time_point t0 = Clock::now();
    auto built = SetUp(config, inputs,
                       args.workdir + "/setup" + std::to_string(setup_s.size()));
    setup_s.push_back(MicrosBetween(t0, Clock::now()) * 1e-6);
    if (!built.ok()) {
      std::cerr << "set-up failed: " << built.status().ToString() << "\n";
      return false;
    }
    engine = std::move(*built);
    return true;
  };
  for (int r = 0; r < (args.trace ? 1 : kSetupsBefore); ++r) {
    if (!set_up()) return 1;
  }

  std::ostringstream graphs;
  graphs << "{\"base\":{\"vertices\":" << engine->base_graph().NumLiveVertices()
         << ",\"edges\":" << engine->base_graph().NumLiveEdges() << "}";
  for (const core::CatalogEntry* entry : engine->catalog().Entries()) {
    graphs << "," << Quote(entry->name())
           << ":{\"vertices\":" << entry->view.graph.NumLiveVertices()
           << ",\"edges\":" << entry->view.graph.NumLiveEdges() << "}";
  }
  graphs << "}";

  const TimedResult timed =
      RunTimed(engine.get(), config, inputs, args.seconds, &reference);
  const double peak_rss_mb = PeakRssMb();
  std::vector<std::string> failures =
      CheckOutputs(engine.get(), config, inputs, timed);
  if (args.trace == 0) {
    for (int r = 0; r < kSetupsAfter; ++r) {
      if (!set_up()) return 1;
    }
  }

  std::vector<Metric> metrics;
  const std::vector<double>& reads = timed.class_us[kReadClass];
  const std::vector<double>& side = timed.class_us[kSideClass];
  const double read_tail = Percentile(reads, config.tail_pct[kReadClass]);
  const double side_tail = Percentile(side, config.tail_pct[kSideClass]);
  const size_t read_beyond = CountAbove(reads, read_tail);
  const size_t side_beyond = CountAbove(side, side_tail);
  // Raw wall-clock figures; the reported times are scaled to the
  // reference machine (see SpeedReference).
  const std::vector<Metric> raw = {
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"read_ops_s", double(timed.reads_answered) / timed.client_busy_s,
       "1/s"},
      {"read_p50_us", Percentile(reads, 50), "us"},
      {"read_tail_us", read_tail, "us"},
      {"side_p50_us", Percentile(side, 50), "us"},
      {"side_tail_us", side_tail, "us"},
  };
  const double scale = reference.TimeScale();
  if (args.trace == 0) {
    for (Metric m : raw) {
      if (m.unit == "1/s") m.value /= scale;
      if (m.unit == "s" || m.unit == "us") m.value *= scale;
      metrics.push_back(m);
    }
  } else {
    engine.reset();  // free the timed engine before the replays
    const TracedResult traced = RunTraced(
        config, inputs, timed, args.workdir + "/replay",
        args.trace_dir + "/" + config.name + "-seed" + std::to_string(args.seed));
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    for (const auto& [name, value] : traced.metrics) {
      metrics.push_back({name, value, LayerUnit(name)});
    }
  }
  engine.reset();
  std::filesystem::remove_all(args.workdir);

  std::ostringstream info;
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(inputs.digest));
  info << "info {\"workload\":" << Quote(config.name)
       << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
       << ",\"trace\":" << args.trace
       << ",\"op_stream_digest\":\"" << digest << "\""
       << ",\"distinct_texts\":" << inputs.distinct_texts
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"config\":" << ConfigJson(config)
       << ",\"graphs\":" << graphs.str()
       << ",\"samples\":{\"read\":" << reads.size()
       << ",\"side\":" << side.size() << "}"
       << ",\"tail\":{\"read\":{\"pct\":" << config.tail_pct[kReadClass]
       << ",\"beyond\":" << read_beyond
       << "},\"side\":{\"pct\":" << config.tail_pct[kSideClass]
       << ",\"beyond\":" << side_beyond << "}}"
       << ",\"speed_reference\":{\"nominal_us\":" << SpeedReference::kNominalUs
       << ",\"median_us\":" << Num(reference.MedianUs())
       << ",\"samples\":" << reference.samples()
       << ",\"time_scale\":" << Num(scale) << "}"
       << ",\"raw\":{";
  for (size_t i = 0; i < raw.size(); ++i) {
    info << (i ? "," : "") << Quote(raw[i].name) << ":" << Num(raw[i].value);
  }
  info << "}"
       << ",\"failed_frac\":"
       << Num(timed.attempted ? double(timed.failed) / double(timed.attempted)
                              : 0.0)
       << ",\"first_error\":" << Quote(timed.first_error)
       << ",\"setup_s_runs\":[";
  for (size_t r = 0; r < setup_s.size(); ++r) {
    info << (r ? "," : "") << Num(setup_s[r]);
  }
  info << "],\"check_failures\":[";
  for (size_t f = 0; f < failures.size(); ++f) {
    info << (f ? "," : "") << Quote(failures[f]);
  }
  info << "]}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (failures.empty() ? "true" : "false")
      << ", \"attempted\": " << timed.attempted
      << ", \"failed\": " << timed.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << Quote(metrics[i].name)
        << ": {\"value\": " << Num(metrics[i].value)
        << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: kaskade_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--trace-dir <dir>]\n";
    return 2;
  }
  return perfbench::Run(args);
}
