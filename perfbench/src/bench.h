// Shared types of the repository benchmark program: workload inputs, the
// timed-run record, and small statistics / digest helpers.
//
// The program runs one of three workloads (see workloads.cc) in a single
// process. A run is: generate the op stream from the seed, set up the
// engine, measure the closed loop for a fixed number of seconds, check the
// outputs, set up again (setup_s is the median of the set-ups before and
// after the timed phase), and print one JSON result line. With --trace 1 the same op stream is replayed on a stack
// of engine layers the benchmark owns, with one span per layer call
// (traced.cc), and the per-layer metrics are printed instead.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "graph/delta.h"
#include "graph/property_graph.h"
#include "query/table.h"

namespace perfbench {

namespace core = kaskade::core;
namespace durability = kaskade::durability;
namespace graph = kaskade::graph;
namespace query = kaskade::query;
using kaskade::Result;
using kaskade::Status;

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

enum class WorkloadId { kLineageRead, kSocialScan, kSocialChurn };

/// Operation classes. Each class has its own latency histogram so a
/// percentile never straddles cheap and expensive operations.
enum OpClass { kReadClass = 0, kSideClass = 1 };

/// One client operation: a single read (`texts.size() == 1`) or an
/// `ExecuteBatch` group.
struct ClientOp {
  bool batch = false;
  OpClass cls = kReadClass;
  std::vector<std::string> texts;
};

/// Everything a workload fixes: dataset, engine options, schedule shape.
struct WorkloadConfig {
  WorkloadId id;
  std::string name;
  std::string read_class;  ///< What the read class measures.
  std::string side_class;  ///< What the side class measures.
  /// Tail percentile reported for each class: fixed per workload so the
  /// metric means the same thing on every commit, inside one latency mode
  /// of the class, with many more than 10 samples beyond it (the info line
  /// reports the count).
  double tail_pct[2] = {99.0, 99.0};
  core::EngineOptions engine;
  /// social_churn: the writer is released when the reader starts every
  /// `release_every`-th read. Writes, and so durability, happen only
  /// when it is set.
  size_t release_every = 0;

  bool durable() const { return release_every > 0; }
};

/// The seeded inputs of one run. The engine sees only these.
struct Inputs {
  /// Client op stream. lineage_read and social_scan cycle over it;
  /// social_churn consumes it once (its first `warmup_ops` are warmup).
  std::vector<ClientOp> client;
  /// social_churn writer stream, applied in order (first
  /// `warmup_deltas` during warmup).
  std::vector<graph::GraphDelta> deltas;
  size_t warmup_ops = 0;
  size_t warmup_deltas = 0;
  /// social_churn: reads re-checked against a from-scratch engine.
  std::vector<std::string> check_texts;
  size_t distinct_texts = 0;
  uint64_t digest = 0;
};

/// What the timed (untraced) run observed.
struct TimedResult {
  std::vector<double> class_us[2];  ///< Latency per class.
  /// Per measured client op, in stream order (from `warmup_ops`):
  /// latency and output digest (a batch digests all members).
  std::vector<double> op_us;
  std::vector<uint64_t> op_digest;
  /// Output digest per distinct text (static-graph workloads), and texts
  /// whose output changed between executions.
  std::map<std::string, uint64_t> text_digest;
  std::vector<std::string> mismatches;
  std::vector<double> write_us;  ///< Per measured delta, in order.
  size_t reads_answered = 0;  ///< Read queries, batch members included.
  double client_busy_s = 0;   ///< Summed latency of the client's reads.
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
  size_t view_plans = 0;  ///< Reads answered from a view.
  size_t views_incremental = 0;
  size_t views_rematerialized = 0;
  core::EngineTelemetry before;
  core::EngineTelemetry after;
};

/// Workload definition and inputs (workloads.cc).
Result<WorkloadId> ParseWorkload(const std::string& name);
WorkloadConfig ConfigFor(WorkloadId id);
graph::PropertyGraph MakeDataset(WorkloadId id);
Inputs MakeInputs(const WorkloadConfig& config, uint64_t seed, int seconds);
/// Query templates AnalyzeWorkload selects the workload's views from.
std::vector<std::string> SetUpTemplates(const WorkloadConfig& config);
/// Views the workload materializes directly.
std::vector<core::ViewDefinition> SetUpViews(const WorkloadConfig& config);
/// Runs the workload's warmup through `hooks`, so that the engine and the
/// traced replay's stack are warmed by the same operations.
struct WarmupHooks {
  std::function<Status(const std::string&)> read;
  std::function<Status(const std::vector<std::string>&)> batch;
  std::function<Status(const graph::GraphDelta&)> write;
};
Status Warmup(const WorkloadConfig& config, const Inputs& inputs,
              const WarmupHooks& hooks);
/// Builds the engine and runs the workload's view set-up and warmup.
/// `dir` is a fresh directory for durable state (unused when volatile).
Result<std::unique_ptr<core::Engine>> SetUp(const WorkloadConfig& config,
                                           const Inputs& inputs,
                                           const std::string& dir);
/// Renders the options the workload runs with, as one JSON object.
std::string ConfigJson(const WorkloadConfig& config);

/// Machine-speed reference (timed.cc). The benchmark host is shared and
/// its memory-system speed drifts by 20-40% over minutes; raw wall-clock
/// medians of the same code move by as much between runs. A fixed kernel
/// (4,000 small heap vectors built and hashed: the allocation and pointer
/// pattern of result construction) is timed between operations while the
/// engine is idle; end-to-end times are reported scaled to a machine on
/// which the kernel takes kNominalUs, i.e. multiplied by TimeScale(). The
/// raw values go to the info line, and compare.py flags any metric on which
/// scaled and raw figures disagree, which is where an engine change that
/// slowed the kernel itself would show. The kernel runs on a thread created
/// before any engine, so its allocations come from a heap arena of its own;
/// the caller waits while it runs.
class SpeedReference {
 public:
  static constexpr double kNominalUs = 200.0;

  SpeedReference();
  ~SpeedReference();
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  /// Times the kernel once.
  void Sample();
  /// Times the kernel when 10 ms passed since the last sample.
  void MaybeSample();
  size_t samples() const { return samples_us_.size(); }
  double MedianUs() const;
  double TimeScale() const;

 private:
  void Serve();

  std::vector<double> samples_us_;
  Clock::time_point next_{};
  std::mutex mu_;
  std::condition_variable cv_;
  bool requested_ = false;
  bool stop_ = false;
  double last_us_ = 0;
  std::thread worker_;
};

/// Timed closed-loop run (timed.cc). The client thread samples
/// `reference` between operations.
TimedResult RunTimed(core::Engine* engine, const WorkloadConfig& config,
                     const Inputs& inputs, int seconds,
                     SpeedReference* reference);

/// Output checks (timed.cc): returns the failures, empty when correct.
std::vector<std::string> CheckOutputs(core::Engine* engine,
                                      const WorkloadConfig& config,
                                      const Inputs& inputs,
                                      const TimedResult& timed);

/// Traced replay (traced.cc): per-layer metrics plus the span file and
/// summary written under `trace_dir`.
struct TracedResult {
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  ///< Replay outputs that disagreed.
};
TracedResult RunTraced(const WorkloadConfig& config, const Inputs& inputs,
                       const TimedResult& timed, const std::string& dir,
                       const std::string& trace_prefix);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Order-insensitive digest of a result table (rewritten and raw plans
/// may emit rows in different orders).
uint64_t TableDigest(const query::Table& table);

/// 64-bit FNV-1a, chained.
uint64_t Fnv(uint64_t h, const void* data, size_t n);
inline uint64_t Fnv(uint64_t h, const std::string& s) {
  return Fnv(h, s.data(), s.size());
}
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Linear-interpolated percentile `pct` (0..100) of `values` (copied).
double Percentile(std::vector<double> values, double pct);
double Mean(const std::vector<double>& values);
/// Samples strictly above the `pct` percentile.
size_t CountAbove(const std::vector<double>& values, double threshold);

/// Highest peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
