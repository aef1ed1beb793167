#include "obs/metrics.h"

#include <algorithm>

namespace copyattack::obs {

std::size_t ThreadShardIndex() {
  static std::atomic<std::size_t> next_index{0};
  thread_local const std::size_t index =
      next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: no upper edge to interpolate against.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double fraction =
        (target - static_cast<double>(before)) /
        static_cast<double>(counts[i]);
    return lo + fraction * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)), shards_(kMetricShards) {
  std::sort(bounds_.begin(), bounds_.end());
  for (HistShard& shard : shards_) {
    shard.buckets = std::vector<std::atomic<std::uint64_t>>(
        bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  HistShard& shard = shards_[ThreadShardIndex() % kMetricShards];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  double expected = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(expected, expected + value,
                                          std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  for (const HistShard& shard : shards_) {
    for (std::size_t i = 0; i < shard.buckets.size(); ++i) {
      snapshot.counts[i] +=
          shard.buckets[i].load(std::memory_order_relaxed);
    }
    snapshot.count += shard.count.load(std::memory_order_relaxed);
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  for (HistShard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

const std::vector<double>& DefaultLatencyBucketsUs() {
  static const std::vector<double> buckets = {
      0.1,   0.2,   0.5,    1.0,    2.0,    5.0,     10.0,    20.0,
      50.0,  100.0, 200.0,  500.0,  1e3,    2e3,     5e3,     1e4,
      2e4,   5e4,   1e5,    2e5,    5e5,    1e6,     2e6,     5e6};
  return buckets;
}

const std::vector<double>& UnitIntervalBuckets() {
  static const std::vector<double> buckets = {
      0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
      0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0};
  return buckets;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry =
      new MetricsRegistry();  // analyze:allow(raw-new): process-lifetime singleton
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& bucket_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bucket_bounds);
  return *slot;
}

Histogram& MetricsRegistry::GetLatencyHistogram(const std::string& name) {
  return GetHistogram(name, DefaultLatencyBucketsUs());
}

Histogram& MetricsRegistry::GetUnitHistogram(const std::string& name) {
  return GetHistogram(name, UnitIntervalBuckets());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h = histogram->Snapshot();
    h.name = name;
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace copyattack::obs
