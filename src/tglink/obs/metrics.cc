#include "tglink/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "tglink/obs/json_writer.h"
#include "tglink/util/logging.h"

namespace tglink {
namespace obs {

// --- AtomicDouble ----------------------------------------------------------

AtomicDouble::AtomicDouble(double initial)
    : bits_(std::bit_cast<uint64_t>(initial)) {}

void AtomicDouble::Store(double value) {
  bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

double AtomicDouble::Load() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void AtomicDouble::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      observed, std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + delta),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void AtomicDouble::Min(double value) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(observed) > value &&
         !bits_.compare_exchange_weak(observed, std::bit_cast<uint64_t>(value),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

void AtomicDouble::Max(double value) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(observed) < value &&
         !bits_.compare_exchange_weak(observed, std::bit_cast<uint64_t>(value),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  TGLINK_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

size_t Histogram::BucketIndex(double value) const {
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  // upper_bound finds the first bound strictly greater; bounds are
  // inclusive upper limits, so step back onto an exactly-hit bound.
  return (bucket > 0 && bounds_[bucket - 1] == value) ? bucket - 1 : bucket;
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.Add(value);  // tglink-lint: disable=ignored-status (returns void)
  min_.Min(value);
  max_.Max(value);
}

void Histogram::AddTally(const std::vector<uint64_t>& bucket_counts,
                         uint64_t count, double sum, double min, double max) {
  TGLINK_CHECK(bucket_counts.size() == bounds_.size() + 1)
      << "tally has " << bucket_counts.size() << " buckets, histogram "
      << bounds_.size() + 1;
  if (count == 0) return;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] != 0) {
      buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.Add(sum);  // tglink-lint: disable=ignored-status (returns void)
  min_.Min(min);
  max_.Max(max);
}

// --- HistogramTally --------------------------------------------------------

HistogramTally::HistogramTally(Histogram& target)
    : target_(target),
      buckets_(target.bounds().size() + 1, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

HistogramTally::~HistogramTally() {
  target_.AddTally(buckets_, count_, sum_, min_, max_);
}

void HistogramTally::Observe(double value) {
  ++buckets_[target_.BucketIndex(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

uint64_t Histogram::BucketCount(size_t i) const {
  TGLINK_DCHECK(i <= bounds_.size()) << "bucket index out of range";
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::ResetForTesting() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.Store(0.0);
  min_.Store(std::numeric_limits<double>::infinity());
  max_.Store(-std::numeric_limits<double>::infinity());
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  TGLINK_CHECK(start > 0.0 && factor > 1.0 && count > 0)
      << "degenerate exponential bounds";
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LatencyBoundsNs() {
  return ExponentialBounds(1e3, 4.0, 13);  // 1µs .. ~17s
}

std::vector<double> Histogram::SizeBounds() {
  return ExponentialBounds(1.0, 4.0, 15);  // 1 .. ~2.7e8
}

std::vector<double> Histogram::UnitIntervalBounds() {
  std::vector<double> bounds;
  bounds.reserve(20);
  for (int i = 1; i <= 20; ++i) bounds.push_back(0.05 * i);
  return bounds;
}

// --- MetricsSnapshot -------------------------------------------------------

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const CounterValue& c : counters) w.Key(c.name).UInt(c.value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const GaugeValue& g : gauges) w.Key(g.name).Double(g.value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const HistogramValue& h : histograms) {
    w.Key(h.name).BeginObject();
    w.Key("count").UInt(h.count);
    w.Key("sum").Double(h.sum);
    if (h.count > 0) {
      w.Key("min").Double(h.min);
      w.Key("max").Double(h.max);
      w.Key("mean").Double(h.sum / static_cast<double>(h.count));
    }
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (h.bucket_counts[i] == 0) continue;  // sparse: empty buckets elided
      w.BeginObject();
      if (i < h.bounds.size()) {
        w.Key("le").Double(h.bounds[i]);
      } else {
        w.Key("le").String("+Inf");
      }
      w.Key("count").UInt(h.bucket_counts[i]);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

// --- MetricsRegistry -------------------------------------------------------

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.count = histogram->Count();
    value.sum = histogram->Sum();
    value.min = histogram->MinValue();
    value.max = histogram->MaxValue();
    value.bounds = histogram->bounds();
    value.bucket_counts.reserve(value.bounds.size() + 1);
    for (size_t i = 0; i <= value.bounds.size(); ++i) {
      value.bucket_counts.push_back(histogram->BucketCount(i));
    }
    snapshot.histograms.push_back(std::move(value));
  }
  return snapshot;
}

void MetricsRegistry::ResetAllForTesting() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->ResetForTesting();
  for (auto& [name, gauge] : gauges_) gauge->ResetForTesting();
  for (auto& [name, histogram] : histograms_) histogram->ResetForTesting();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace obs
}  // namespace tglink
