// The three benchmark workloads: datasets, engine options, seeded op
// streams, and set-up (engine construction, views, warmup).
//
//   lineage_read  provenance graph; AnalyzeWorkload materializes the
//                 khop2[Job->Job] connector; one client sends k-hop
//                 Job->Job lineage reads and fusable ExecuteBatch groups
//                 over a Zipf hot set smaller than the plan cache.
//   social_scan   social graph, no views; one client sends full 1-hop
//                 and variable-length 1..2 scans.
//   social_churn  social graph over 16 CSR segments with a
//                 khop2[Person->Person] connector and a WAL; one reader
//                 sends point reads over more texts than the plan cache
//                 holds while one writer applies an edge-swapping delta
//                 each time the reader starts its 8th read.
//
// Datasets are fixed (constant generator seeds) so that every seed
// measures the same graph; the seed drives the op stream.

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <set>
#include <sstream>

#include "bench.h"
#include "datasets/generators.h"

namespace perfbench {
namespace {

namespace datasets = kaskade::datasets;

constexpr size_t kLineageHotJobs = 256;
constexpr double kLineageZipfExponent = 0.9;
constexpr size_t kLineageBatchSize = 16;
constexpr size_t kLineageStreamOps = 4096;
constexpr size_t kScanStreamOps = 1024;
constexpr size_t kChurnWarmupReads = 256;
constexpr size_t kChurnReadsPerSecond = 5000;  // sizes the read stream
constexpr size_t kChurnEdgesPerDelta = 2;
constexpr size_t kChurnCheckTexts = 120;

datasets::ProvOptions LineageDataset() {
  datasets::ProvOptions options;  // 2,000 jobs, 5,000 files, seed 42
  return options;
}

datasets::SocialOptions ScanDataset() {
  datasets::SocialOptions options;
  options.num_vertices = 2000;
  options.edges_per_vertex = 3;
  options.max_fanout = 10;
  options.preferential_prob = 0.2;
  options.reciprocal_prob = 0.2;
  return options;
}

datasets::SocialOptions ChurnDataset() {
  datasets::SocialOptions options;
  options.num_vertices = 16 * 1024;  // 16 CSR segments of 1,024 vertices
  options.edges_per_vertex = 1;
  options.max_fanout = 8;
  options.preferential_prob = 0.1;
  options.reciprocal_prob = 0.1;
  return options;
}

std::string JobName(size_t i) { return "job_" + std::to_string(i); }

std::string Descendants(int hops, size_t job) {
  return "MATCH (x:Job)-[r*1.." + std::to_string(hops) +
         "]->(j:Job) WHERE x.name = '" + JobName(job) + "' RETURN j";
}

std::string Ancestors(int hops, size_t job) {
  return "MATCH (x:Job)-[r*1.." + std::to_string(hops) +
         "]->(j:Job) WHERE j.name = '" + JobName(job) + "' RETURN x";
}

std::string JobFileJob(size_t job) {
  return "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
         "WHERE a.name = '" +
         JobName(job) + "' RETURN b";
}

std::string Handle(size_t person) { return "person_" + std::to_string(person); }

/// Discrete Zipf over ranks 0..n-1 with P(r) proportional to (r+1)^-s.
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += std::pow(double(r + 1), -s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// `counts[k]` copies of each kind k, in seeded order: the op mix of a
/// block is fixed by count, only the order and parameters vary by seed.
std::vector<int> ShuffledBlock(const std::vector<int>& counts,
                               std::mt19937_64& rng) {
  std::vector<int> block;
  for (int kind = 0; kind < int(counts.size()); ++kind) {
    block.insert(block.end(), size_t(counts[size_t(kind)]), kind);
  }
  std::shuffle(block.begin(), block.end(), rng);
  return block;
}

Inputs LineageInputs(std::mt19937_64& rng) {
  const size_t jobs = LineageDataset().num_jobs;
  std::vector<size_t> order(jobs);
  for (size_t i = 0; i < jobs; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<size_t> hot(order.begin(), order.begin() + kLineageHotJobs);
  ZipfRanks zipf(hot.size(), kLineageZipfExponent);

  // Per block of 24 ops: 21 reads (6 descendants-2, 6 descendants-4,
  // 7 Job-File-Job, 1 ancestors-2, 1 ancestors-4) and 3 batches (two of
  // one shape, one of the other).
  enum { kDesc2, kDesc4, kChain, kAnc2, kAnc4, kBatchDesc4, kBatchChain };
  Inputs inputs;
  while (inputs.client.size() < kLineageStreamOps) {
    const bool chain_twice = rng() % 2 == 0;
    for (int kind : ShuffledBlock({6, 6, 7, 1, 1, chain_twice ? 1 : 2,
                                   chain_twice ? 2 : 1},
                                  rng)) {
      ClientOp op;
      if (kind >= kBatchDesc4) {
        // Same-shape reads that differ only in the job constant: one
        // fusable shape group.
        op.batch = true;
        op.cls = kSideClass;
        std::set<size_t> members;
        while (members.size() < kLineageBatchSize) {
          members.insert(hot[zipf.Sample(rng)]);
        }
        for (size_t job : members) {
          op.texts.push_back(kind == kBatchChain ? JobFileJob(job)
                                                 : Descendants(4, job));
        }
      } else {
        const size_t job = hot[zipf.Sample(rng)];
        op.texts.push_back(kind == kDesc2   ? Descendants(2, job)
                           : kind == kDesc4 ? Descendants(4, job)
                           : kind == kChain ? JobFileJob(job)
                           : kind == kAnc2  ? Ancestors(2, job)
                                            : Ancestors(4, job));
      }
      inputs.client.push_back(std::move(op));
    }
  }
  return inputs;
}

Inputs ScanInputs(std::mt19937_64& rng) {
  const ClientOp ops[4] = {
      {false, kReadClass, {"MATCH (a:Person)-[:FOLLOWS]->(b:Person) RETURN a, b"}},
      {false, kReadClass, {"MATCH (a:Person)-[:FOLLOWS]->(b:Person) RETURN b, a"}},
      {false, kSideClass, {"MATCH (a:Person)-[r*1..2]->(b:Person) RETURN a, b"}},
      {false, kSideClass, {"MATCH (a:Person)-[r*1..2]->(b:Person) RETURN b, a"}}};
  // The classes strictly alternate (a scan's cost depends on which class
  // ran before it, so the transitions are fixed); the seed orders the
  // RETURN variants within each class.
  Inputs inputs;
  while (inputs.client.size() < kScanStreamOps) {
    const std::vector<int> hops = ShuffledBlock({1, 1}, rng);
    const std::vector<int> vars = ShuffledBlock({1, 1}, rng);
    for (size_t k = 0; k < 2; ++k) {
      inputs.client.push_back(ops[hops[k]]);
      inputs.client.push_back(ops[2 + vars[k]]);
    }
  }
  return inputs;
}

Inputs ChurnInputs(const WorkloadConfig& config, std::mt19937_64& rng,
                   int seconds) {
  const graph::PropertyGraph graph = MakeDataset(config.id);
  const size_t people = graph.NumVertices();
  Inputs inputs;
  inputs.warmup_ops = kChurnWarmupReads;
  const size_t reads =
      kChurnWarmupReads + kChurnReadsPerSecond * size_t(std::max(seconds, 1));
  // Per block of 20 reads: 8 point 1-hop, 7 point 2-hop chains (the
  // shape the connector serves), 5 point variable-length 1..2 reads.
  while (inputs.client.size() < reads) {
    for (int kind : ShuffledBlock({8, 7, 5}, rng)) {
      const std::string handle = Handle(rng() % people);
      std::string text =
          kind == 0 ? "MATCH (a:Person)-[:FOLLOWS]->(b:Person) WHERE a.handle = '" +
                          handle + "' RETURN a, b"
          : kind == 1
              ? "MATCH (a:Person)-[:FOLLOWS]->(b:Person) "
                "(b:Person)-[:FOLLOWS]->(c:Person) WHERE a.handle = '" +
                    handle + "' RETURN a, c"
              : "MATCH (a:Person)-[r*1..2]->(b:Person) WHERE a.handle = '" +
                    handle + "' RETURN b";
      inputs.client.push_back(ClientOp{false, kReadClass, {std::move(text)}});
    }
  }
  // Edge swaps: each delta removes the oldest live edges of a seeded
  // queue and inserts as many fresh edges, so |E| stays constant. Edge
  // ids are allocated sequentially and never reused, so the ids of
  // inserted edges are known here and join the back of the queue.
  std::vector<graph::EdgeId> initial(graph.NumEdges());
  for (size_t e = 0; e < initial.size(); ++e) initial[e] = graph::EdgeId(e);
  std::shuffle(initial.begin(), initial.end(), rng);
  std::deque<graph::EdgeId> removable(initial.begin(), initial.end());
  graph::EdgeId next_edge = graph::EdgeId(graph.NumEdges());
  const size_t deltas = inputs.client.size() / config.release_every + 1;
  inputs.warmup_deltas = kChurnWarmupReads / config.release_every;
  for (size_t d = 0; d < deltas; ++d) {
    graph::GraphDelta delta;
    for (size_t k = 0; k < kChurnEdgesPerDelta; ++k) {
      delta.RemoveEdge(removable.front());
      removable.pop_front();
    }
    for (size_t k = 0; k < kChurnEdgesPerDelta; ++k) {
      const graph::VertexId src = graph::VertexId(rng() % people);
      graph::VertexId dst = graph::VertexId(rng() % (people - 1));
      if (dst >= src) ++dst;  // no self-loops
      delta.AddEdge(src, dst, "FOLLOWS");
      removable.push_back(next_edge++);
    }
    inputs.deltas.push_back(std::move(delta));
  }
  // Final-state check sample, drawn from the measured reads.
  for (size_t k = 0; k < kChurnCheckTexts; ++k) {
    const size_t i =
        kChurnWarmupReads + rng() % (inputs.client.size() - kChurnWarmupReads);
    inputs.check_texts.push_back(inputs.client[i].texts[0]);
  }
  return inputs;
}

std::string FsyncName(const WorkloadConfig& config) {
  return config.durable() ? durability::FsyncPolicyName(
                              config.engine.durability.fsync_policy)
                        : "off";
}

}  // namespace

Result<WorkloadId> ParseWorkload(const std::string& name) {
  if (name == "lineage_read") return WorkloadId::kLineageRead;
  if (name == "social_scan") return WorkloadId::kSocialScan;
  if (name == "social_churn") return WorkloadId::kSocialChurn;
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

WorkloadConfig ConfigFor(WorkloadId id) {
  WorkloadConfig config{};
  config.id = id;
  // One client thread plus at most one engine worker everywhere, so the
  // busy threads never exceed 2 of the host's cores.
  config.engine.batch_workers = 1;
  config.engine.build_workers = 1;
  config.engine.executor.parallelism = 1;
  switch (id) {
    case WorkloadId::kLineageRead:
      config.name = "lineage_read";
      config.read_class = "single k-hop Job->Job lineage read (Execute)";
      config.side_class = "ExecuteBatch group of 16 same-shape reads";
      config.tail_pct[kReadClass] = 99.0;
      config.tail_pct[kSideClass] = 99.0;
      // The calling thread plus one pool worker run a batch.
      config.engine.batch_workers = 2;
      break;
    case WorkloadId::kSocialScan:
      config.name = "social_scan";
      config.read_class = "full 1-hop scan";
      config.side_class = "full variable-length 1..2 scan";
      config.tail_pct[kReadClass] = 90.0;
      config.tail_pct[kSideClass] = 90.0;
      break;
    case WorkloadId::kSocialChurn:
      config.name = "social_churn";
      config.read_class = "point read (reader thread)";
      config.side_class = "ApplyDelta of " +
                          std::to_string(kChurnEdgesPerDelta) +
                          " edge removals + " +
                          std::to_string(kChurnEdgesPerDelta) +
                          " inserts (writer thread)";
      config.tail_pct[kReadClass] = 95.0;
      config.tail_pct[kSideClass] = 90.0;
      config.engine.durability.fsync_policy = durability::FsyncPolicy::kNone;
      config.engine.durability.checkpoint_wal_bytes = 0;  // no checkpointer
      config.release_every = 8;
      break;
  }
  return config;
}

graph::PropertyGraph MakeDataset(WorkloadId id) {
  switch (id) {
    case WorkloadId::kLineageRead:
      return datasets::MakeProvenanceGraph(LineageDataset());
    case WorkloadId::kSocialScan:
      return datasets::MakeSocialGraph(ScanDataset());
    case WorkloadId::kSocialChurn:
      break;
  }
  return datasets::MakeSocialGraph(ChurnDataset());
}

Inputs MakeInputs(const WorkloadConfig& config, uint64_t seed, int seconds) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + uint64_t(config.id));
  Inputs inputs;
  switch (config.id) {
    case WorkloadId::kLineageRead:
      inputs = LineageInputs(rng);
      break;
    case WorkloadId::kSocialScan:
      inputs = ScanInputs(rng);
      break;
    case WorkloadId::kSocialChurn:
      inputs = ChurnInputs(config, rng, seconds);
      break;
  }
  // Digest of exactly what the engine will be sent.
  uint64_t h = Fnv(kFnvOffset, config.name);
  std::set<std::string> distinct;
  for (const ClientOp& op : inputs.client) {
    const uint8_t tag = uint8_t(op.batch) | uint8_t(op.cls << 1);
    h = Fnv(h, &tag, 1);
    for (const std::string& text : op.texts) {
      h = Fnv(h, text);
      distinct.insert(text);
    }
  }
  for (const graph::GraphDelta& delta : inputs.deltas) {
    for (graph::EdgeId e : delta.edge_removals) h = Fnv(h, &e, sizeof e);
    for (const auto& edge : delta.edge_inserts) {
      h = Fnv(h, &edge.source, sizeof edge.source);
      h = Fnv(h, &edge.target, sizeof edge.target);
    }
  }
  inputs.distinct_texts = distinct.size();
  inputs.digest = h;
  return inputs;
}

std::vector<std::string> SetUpTemplates(const WorkloadConfig& config) {
  if (config.id != WorkloadId::kLineageRead) return {};
  return {"MATCH (x:Job)-[r*1..4]->(j:Job) RETURN x, j",
          "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(b:Job) "
          "RETURN a, b"};
}

std::vector<core::ViewDefinition> SetUpViews(const WorkloadConfig& config) {
  if (config.id != WorkloadId::kSocialChurn) return {};
  core::ViewDefinition def;
  def.kind = core::ViewKind::kKHopConnector;
  def.k = 2;
  def.source_type = "Person";
  def.target_type = "Person";
  return {def};
}

Status Warmup(const WorkloadConfig& config, const Inputs& inputs,
              const WarmupHooks& hooks) {
  if (config.release_every > 0) {
    // The warmup prefix runs the measured schedule single-threaded: the
    // delta released at the start of a read lands after it.
    for (size_t i = 0; i < inputs.warmup_ops; ++i) {
      KASKADE_RETURN_IF_ERROR(hooks.read(inputs.client[i].texts[0]));
      if ((i + 1) % config.release_every == 0) {
        KASKADE_RETURN_IF_ERROR(
            hooks.write(inputs.deltas[(i + 1) / config.release_every - 1]));
      }
    }
    return Status::OK();
  }
  // Every distinct text once fills the plan cache and the snapshots; a
  // few batches warm the fused path and the batch pool.
  std::set<std::string> seen;
  size_t batches = 0;
  for (const ClientOp& op : inputs.client) {
    for (const std::string& text : op.texts) {
      if (seen.insert(text).second) KASKADE_RETURN_IF_ERROR(hooks.read(text));
    }
    if (op.batch && batches++ < 16) KASKADE_RETURN_IF_ERROR(hooks.batch(op.texts));
  }
  return Status::OK();
}

Result<std::unique_ptr<core::Engine>> SetUp(const WorkloadConfig& config,
                                           const Inputs& inputs,
                                           const std::string& dir) {
  core::EngineOptions options = config.engine;
  if (config.durable()) options.durability.dir = dir;
  auto engine =
      std::make_unique<core::Engine>(MakeDataset(config.id), options);
  KASKADE_RETURN_IF_ERROR(engine->durability_error());
  const std::vector<std::string> templates = SetUpTemplates(config);
  if (!templates.empty()) {
    KASKADE_RETURN_IF_ERROR(engine->AnalyzeWorkload(templates).status());
  }
  for (const core::ViewDefinition& def : SetUpViews(config)) {
    KASKADE_RETURN_IF_ERROR(engine->AddMaterializedView(def));
  }
  if (config.id == WorkloadId::kLineageRead &&
      engine->catalog().Find("khop2[Job->Job]") == nullptr) {
    return Status::Internal("AnalyzeWorkload did not select khop2[Job->Job]");
  }
  WarmupHooks hooks;
  hooks.read = [&](const std::string& text) {
    return engine->Execute(text).status();
  };
  hooks.batch = [&](const std::vector<std::string>& texts) {
    for (const auto& result : engine->ExecuteBatch(texts)) {
      KASKADE_RETURN_IF_ERROR(result.status());
    }
    return Status::OK();
  };
  hooks.write = [&](const graph::GraphDelta& delta) {
    return engine->ApplyDelta(delta).status();
  };
  KASKADE_RETURN_IF_ERROR(Warmup(config, inputs, hooks));
  return engine;
}

std::string ConfigJson(const WorkloadConfig& config) {
  const core::EngineOptions& e = config.engine;
  std::ostringstream out;
  out << "{\"client_threads\":1"
      << ",\"writer_threads\":" << (config.release_every > 0 ? 1 : 0)
      << ",\"batch_workers\":" << e.batch_workers
      << ",\"build_workers\":" << e.build_workers
      << ",\"executor_parallelism\":" << e.executor.parallelism
      << ",\"shards\":" << e.shards
      << ",\"plan_cache_capacity\":" << e.planner.cache_capacity
      << ",\"fusion\":" << (e.executor.fusion.enabled ? "true" : "false")
      << ",\"durability\":" << (config.durable() ? "true" : "false")
      << ",\"fsync_policy\":\"" << FsyncName(config) << "\""
      << ",\"checkpointer\":"
      << (config.durable() && e.durability.checkpoint_wal_bytes > 0 ? "true"
                                                                  : "false")
      << ",\"release_every\":" << config.release_every
      << ",\"tail_pct\":{\"read\":" << config.tail_pct[kReadClass]
      << ",\"side\":" << config.tail_pct[kSideClass] << "}"
      << ",\"read_class\":\"" << config.read_class << "\""
      << ",\"side_class\":\"" << config.side_class << "\"}";
  return out.str();
}

}  // namespace perfbench
