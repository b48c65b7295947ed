#include "core/workload_tracker.h"

#include <algorithm>

namespace kaskade::core {

WorkloadTracker::WorkloadTracker(size_t stripes)
    : stripes_(std::max<size_t>(1, stripes)) {}

void WorkloadTracker::Record(const std::string& canonical_text,
                             double latency_us, double estimated_cost,
                             bool used_view, const std::string& view_name,
                             bool fused) {
  // Bound distinct texts per stripe (workloads with per-request literals
  // would otherwise grow the maps toward OOM and slow every advice
  // round). New texts past the cap are not tracked — the established
  // hot set, which is what advice is about, keeps aggregating.
  constexpr size_t kMaxDistinctPerStripe = 4096;
  Stripe& stripe = StripeFor(canonical_text);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.entries.size() >= kMaxDistinctPerStripe &&
        stripe.entries.find(canonical_text) == stripe.entries.end()) {
      return;
    }
    Aggregate& agg = stripe.entries[canonical_text];
    ++agg.executions;
    agg.total_latency_us += latency_us;
    agg.total_estimated_cost += estimated_cost;
    if (used_view) {
      ++agg.view_hits;
      auto name = stripe.view_names.find(view_name);
      if (name == stripe.view_names.end()) {
        name = stripe.view_names.insert(view_name).first;
      }
      agg.last_view = &*name;
    }
    if (fused) ++agg.fused_hits;
  }
  total_.fetch_add(1, std::memory_order_relaxed);
}

WorkloadSnapshot WorkloadTracker::Snapshot() const {
  WorkloadSnapshot snapshot;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [text, agg] : stripe.entries) {
      QueryObservation& obs = snapshot.entries.emplace_back();
      obs.query_text = text;
      obs.executions = agg.executions;
      obs.total_latency_us = agg.total_latency_us;
      obs.total_estimated_cost = agg.total_estimated_cost;
      obs.view_hits = agg.view_hits;
      if (agg.last_view != nullptr) obs.last_view = *agg.last_view;
      obs.fused_hits = agg.fused_hits;
      snapshot.total_executions += agg.executions;
    }
  }
  std::sort(snapshot.entries.begin(), snapshot.entries.end(),
            [](const QueryObservation& a, const QueryObservation& b) {
              if (a.executions != b.executions) {
                return a.executions > b.executions;
              }
              return a.query_text < b.query_text;
            });
  return snapshot;
}

void WorkloadTracker::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.entries.clear();
    stripe.view_names.clear();
  }
}

void WorkloadTracker::Decay(double factor) {
  factor = std::clamp(factor, 0.0, 1.0);
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.entries.begin(); it != stripe.entries.end();) {
      Aggregate& agg = it->second;
      // Truncating keeps counts integral and guarantees progress: any
      // factor < 1 eventually drives an un-refreshed count to zero.
      agg.executions = uint64_t(double(agg.executions) * factor);
      agg.view_hits = uint64_t(double(agg.view_hits) * factor);
      agg.fused_hits = uint64_t(double(agg.fused_hits) * factor);
      agg.total_latency_us *= factor;
      agg.total_estimated_cost *= factor;
      if (agg.executions == 0) {
        it = stripe.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t WorkloadTracker::distinct_queries() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    count += stripe.entries.size();
  }
  return count;
}

}  // namespace kaskade::core
