// The timed closed-loop run through the public Engine API, the output
// checks, and small statistics helpers.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Records the output digest of `text`; on a static graph a text whose
/// output changes between executions is a failure.
void ObserveDigest(TimedResult* r, const std::string& text, uint64_t digest) {
  auto [it, inserted] = r->text_digest.emplace(text, digest);
  if (!inserted && it->second != digest && r->mismatches.size() < 8) {
    r->mismatches.push_back("output of '" + text + "' changed between runs");
  }
}

void NoteFailure(TimedResult* r, const Status& status) {
  ++r->failed;
  if (r->first_error.empty()) r->first_error = status.ToString();
}

/// lineage_read and social_scan: one client cycling over its stream.
void RunSingleClient(core::Engine* engine, const Inputs& inputs, int seconds,
                     SpeedReference* reference, TimedResult* r) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(seconds);
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    const ClientOp& op = inputs.client[i % inputs.client.size()];
    reference->MaybeSample();
    std::vector<Result<core::ExecutionResult>> results;
    const Clock::time_point t0 = Clock::now();
    if (op.batch) {
      results = engine->ExecuteBatch(op.texts);
    } else {
      results.push_back(engine->Execute(op.texts[0]));
    }
    const double us = MicrosBetween(t0, Clock::now());
    r->class_us[op.cls].push_back(us);
    r->op_us.push_back(us);
    r->client_busy_s += us * 1e-6;
    uint64_t op_digest = kFnvOffset;
    for (size_t m = 0; m < results.size(); ++m) {
      ++r->attempted;
      if (!results[m].ok()) {
        NoteFailure(r, results[m].status());
        continue;
      }
      ++r->reads_answered;
      r->view_plans += results[m]->used_view ? 1 : 0;
      const uint64_t d = TableDigest(results[m]->table);
      ObserveDigest(r, op.texts[m], d);
      op_digest = Fnv(op_digest, &d, sizeof d);
    }
    r->op_digest.push_back(op_digest);
  }
}

/// social_churn: the reader runs on this thread; a writer thread applies
/// one delta each time the reader starts a read whose 1-based stream
/// index is a multiple of `release_every`.
void RunReaderWriter(core::Engine* engine, const WorkloadConfig& config,
                     const Inputs& inputs, int seconds,
                     SpeedReference* reference, TimedResult* r) {
  std::mutex mu;
  std::condition_variable cv;
  size_t released = 0;
  bool done = false;
  const size_t n = config.release_every;

  size_t write_attempted = 0;
  size_t write_failed = 0;
  std::string write_error;
  std::atomic<size_t> writes_done{0};
  std::thread writer([&] {
    for (size_t applied = 0;; ++applied) {
      writes_done.store(applied);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return released > applied || done; });
        if (released == applied) return;  // done, nothing outstanding
      }
      graph::GraphDelta delta = inputs.deltas[inputs.warmup_deltas + applied];
      const Clock::time_point t0 = Clock::now();
      Result<core::DeltaReport> report = engine->ApplyDelta(std::move(delta));
      r->write_us.push_back(MicrosBetween(t0, Clock::now()));
      ++write_attempted;
      if (!report.ok()) {
        ++write_failed;
        if (write_error.empty()) write_error = report.status().ToString();
        continue;
      }
      r->views_incremental += report->views_incremental;
      r->views_rematerialized += report->views_rematerialized;
    }
  });

  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(seconds);
  for (size_t i = inputs.warmup_ops;
       i < inputs.client.size() && Clock::now() < deadline; ++i) {
    if ((i + 1) % n == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ++released;
      cv.notify_one();
    }
    // Sample the speed reference only while the writer is idle, so that
    // write cost never leaks into the reference.
    if (writes_done.load() == released) reference->MaybeSample();
    const Clock::time_point t0 = Clock::now();
    Result<core::ExecutionResult> result =
        engine->Execute(inputs.client[i].texts[0]);
    const double us = MicrosBetween(t0, Clock::now());
    r->class_us[kReadClass].push_back(us);
    r->op_us.push_back(us);
    r->client_busy_s += us * 1e-6;
    ++r->attempted;
    if (!result.ok()) {
      NoteFailure(r, result.status());
      r->op_digest.push_back(0);
      continue;
    }
    ++r->reads_answered;
    r->view_plans += result->used_view ? 1 : 0;
    r->op_digest.push_back(0);  // outputs checked on the final state
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  writer.join();
  r->class_us[kSideClass] = r->write_us;
  r->attempted += write_attempted;
  r->failed += write_failed;
  if (r->first_error.empty()) r->first_error = write_error;
}

}  // namespace

TimedResult RunTimed(core::Engine* engine, const WorkloadConfig& config,
                     const Inputs& inputs, int seconds,
                     SpeedReference* reference) {
  TimedResult r;
  r.before = engine->TelemetrySnapshot();
  if (config.release_every > 0) {
    RunReaderWriter(engine, config, inputs, seconds, reference, &r);
  } else {
    RunSingleClient(engine, inputs, seconds, reference, &r);
  }
  r.after = engine->TelemetrySnapshot();
  return r;
}

std::vector<std::string> CheckOutputs(core::Engine* engine,
                                      const WorkloadConfig& config,
                                      const Inputs& inputs,
                                      const TimedResult& timed) {
  std::vector<std::string> failures = timed.mismatches;
  auto expect_same = [&](core::Engine* reference, const std::string& text,
                         uint64_t digest, const char* what) {
    Result<core::ExecutionResult> expected = reference->Execute(text);
    if (!expected.ok()) {
      failures.push_back(std::string(what) + " failed on '" + text +
                         "': " + expected.status().ToString());
    } else if (TableDigest(expected->table) != digest) {
      failures.push_back(std::string(what) + " disagrees on '" + text + "'");
    }
  };
  const core::EngineTelemetry& a = timed.before;
  const core::EngineTelemetry& b = timed.after;
  switch (config.id) {
    case WorkloadId::kLineageRead: {
      // Every distinct text the client sent: the view-rewritten answer
      // must equal the raw graph's answer.
      core::EngineOptions raw_options = config.engine;
      core::Engine raw(MakeDataset(config.id), raw_options);
      for (const auto& [text, digest] : timed.text_digest) {
        expect_same(&raw, text, digest, "raw engine (no views)");
      }
      if (timed.view_plans == 0) failures.push_back("no read used a view");
      if (b.fused_members == a.fused_members) {
        failures.push_back("no batch member ran fused");
      }
      break;
    }
    case WorkloadId::kSocialScan: {
      core::Engine second(MakeDataset(config.id), config.engine);
      for (const auto& [text, digest] : timed.text_digest) {
        expect_same(&second, text, digest, "second engine");
      }
      if (timed.view_plans != 0) failures.push_back("a scan used a view");
      break;
    }
    case WorkloadId::kSocialChurn: {
      const graph::PropertyGraph& final_graph = engine->base_graph();
      const size_t initial_edges = MakeDataset(config.id).NumLiveEdges();
      if (final_graph.NumLiveEdges() != initial_edges) {
        failures.push_back("edge count drifted from " +
                           std::to_string(initial_edges) + " to " +
                           std::to_string(final_graph.NumLiveEdges()));
      }
      // A from-scratch engine on the final graph, with no views.
      core::EngineOptions scratch_options;
      scratch_options.batch_workers = 1;
      core::Engine scratch(graph::PropertyGraph(final_graph), scratch_options);
      for (const std::string& text : inputs.check_texts) {
        Result<core::ExecutionResult> got = engine->Execute(text);
        if (!got.ok()) {
          failures.push_back("final read failed: " + got.status().ToString());
          continue;
        }
        expect_same(&scratch, text, TableDigest(got->table),
                    "from-scratch engine on the final graph");
      }
      if (timed.views_incremental == 0) {
        failures.push_back("no delta was maintained incrementally");
      }
      if (b.snapshot_patches == a.snapshot_patches) {
        failures.push_back("no snapshot was patched");
      }
      break;
    }
  }
  if (failures.size() > 8) failures.resize(8);
  return failures;
}

SpeedReference::SpeedReference() : worker_([this] { Serve(); }) {}

SpeedReference::~SpeedReference() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void SpeedReference::Serve() {
  static volatile uint64_t sink = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return requested_ || stop_; });
    if (stop_) return;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = 0; i < 4000; ++i) rows.push_back({i, 3 * i});
    uint64_t h = kFnvOffset;
    for (const std::vector<int64_t>& row : rows) {
      h = Fnv(h, row.data(), row.size() * sizeof(int64_t));
    }
    sink = sink ^ h;
    last_us_ = MicrosBetween(t0, Clock::now());
    requested_ = false;
    cv_.notify_all();
  }
}

void SpeedReference::Sample() {
  std::unique_lock<std::mutex> lock(mu_);
  requested_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return !requested_; });
  samples_us_.push_back(last_us_);
  next_ = Clock::now() + std::chrono::milliseconds(10);
}

void SpeedReference::MaybeSample() {
  if (Clock::now() >= next_) Sample();
}

double SpeedReference::MedianUs() const { return Percentile(samples_us_, 50); }

double SpeedReference::TimeScale() const {
  return samples_us_.empty() ? 1.0 : kNominalUs / MedianUs();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t TableDigest(const query::Table& table) {
  uint64_t rows = 0;
  for (const query::Table::Row& row : table.rows()) {
    uint64_t h = kFnvOffset;
    for (const graph::PropertyValue& cell : row) {
      if (cell.is_int()) {
        const int64_t v = cell.as_int();
        h = Fnv(h, &v, sizeof v);
      } else {
        h = Fnv(h, cell.ToString());
      }
      h = Fnv(h, "|", 1);
    }
    rows += Mix(h);  // sum: insensitive to row order
  }
  uint64_t h = kFnvOffset;
  for (const query::Column& c : table.columns()) h = Fnv(h, c.name + ",");
  const uint64_t n = table.num_rows();
  h = Fnv(h, &n, sizeof n);
  return Mix(h ^ rows);
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * double(values.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         double(values.size());
}

size_t CountAbove(const std::vector<double>& values, double threshold) {
  return size_t(std::count_if(values.begin(), values.end(),
                              [&](double v) { return v > threshold; }));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
