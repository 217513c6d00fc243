// Thread-safe metrics for the linkage pipeline: named counters, gauges and
// fixed-bucket histograms held in a registry, with point-in-time snapshots
// and JSON serialization (consumed by the RunReport writer and the bench
// harnesses' --report flag).
//
// Design constraints, in priority order:
//   1. TSan-clean under concurrent updates — every mutable cell is a
//      std::atomic accessed with relaxed ordering (metrics never carry
//      synchronization; snapshots are advisory, not linearizable).
//   2. Near-free on the hot path — an update is one relaxed RMW; name
//      lookup happens once per call site via the function-local static in
//      the TGLINK_COUNTER_* / TGLINK_HISTOGRAM_* macros below.
//   3. Stable references — registry entries are never removed, so a
//      Counter& obtained once stays valid for the process lifetime;
//      ResetAllForTesting zeroes values without invalidating references.
//
// Naming scheme: lowercase dot-separated "<module>.<what>[_<unit>]", e.g.
// "blocking.candidate_pairs", "similarity.agg_call_ns". See DESIGN.md §7.

#ifndef TGLINK_OBS_METRICS_H_
#define TGLINK_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tglink/util/thread_annotations.h"

namespace tglink {
namespace obs {

/// Lock-free double cell built on a uint64_t bit pattern: portable (no
/// reliance on C++20 atomic<double>::fetch_add support) and TSan-clean.
class AtomicDouble {
 public:
  explicit AtomicDouble(double initial = 0.0);

  void Store(double value);
  [[nodiscard]] double Load() const;
  void Add(double delta);
  /// Lowers/raises the stored value to include `value` (for min/max).
  void Min(double value);
  void Max(double value);

 private:
  std::atomic<uint64_t> bits_;
};

/// Monotone event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void ResetForTesting() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.Store(value); }
  void Add(double delta) { value_.Add(delta); }
  [[nodiscard]] double Value() const { return value_.Load(); }
  void ResetForTesting() { value_.Store(0.0); }

 private:
  AtomicDouble value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
/// N buckets; one implicit overflow bucket catches everything above the
/// last bound. Tracks count, sum, min and max alongside the buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// The bucket Observe(value) counts into.
  [[nodiscard]] size_t BucketIndex(double value) const;

  /// Adds a batch of observations in one step: per-bucket counts (one per
  /// bucket, overflow last) and their count, sum, min and max. See
  /// HistogramTally.
  void AddTally(const std::vector<uint64_t>& bucket_counts, uint64_t count,
                double sum, double min, double max);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double Sum() const { return sum_.Load(); }
  [[nodiscard]] double MinValue() const { return min_.Load(); }
  [[nodiscard]] double MaxValue() const { return max_.Load(); }
  /// Bucket i counts observations in (bounds[i-1], bounds[i]]; the final
  /// entry (index bounds().size()) is the overflow bucket.
  [[nodiscard]] uint64_t BucketCount(size_t i) const;

  void ResetForTesting();

  /// `count` exponentially spaced bounds: start, start*factor, ... —
  /// the stock shape for latency (ns) and size distributions.
  [[nodiscard]] static std::vector<double> ExponentialBounds(double start,
                                                             double factor,
                                                             size_t count);
  /// 1µs .. ~17s in ×4 steps — default for *_ns latency histograms.
  [[nodiscard]] static std::vector<double> LatencyBoundsNs();
  /// 1 .. ~2.6e8 in ×4 steps — default for size/count distributions.
  [[nodiscard]] static std::vector<double> SizeBounds();
  /// 0.05 .. 1.0 in 0.05 steps — for similarity scores in [0,1].
  [[nodiscard]] static std::vector<double> UnitIntervalBounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  AtomicDouble sum_{0.0};
  AtomicDouble min_;
  AtomicDouble max_;
};

/// Unsynchronized observations for one Histogram, added to it in one step
/// when the tally is destroyed — for loops where a relaxed RMW per
/// observation costs more than the work observed. Owned by one thread
/// (e.g. per ParallelFor chunk); the target sees the same buckets, count,
/// min and max as with Observe per value (the sum may round differently).
class HistogramTally {
 public:
  explicit HistogramTally(Histogram& target);
  ~HistogramTally();
  HistogramTally(const HistogramTally&) = delete;
  HistogramTally& operator=(const HistogramTally&) = delete;

  void Observe(double value);
  [[nodiscard]] uint64_t count() const { return count_; }

 private:
  Histogram& target_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_;
  double max_;
};

/// One serializable point-in-time view of a registry. Entries are sorted by
/// name; relaxed reads, so concurrent updates may straddle the snapshot.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value;
  };
  struct GaugeValue {
    std::string name;
    double value;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count;
    double sum;
    double min;  // +inf when empty
    double max;  // -inf when empty
    std::vector<double> bounds;
    std::vector<uint64_t> bucket_counts;  // bounds.size() + 1
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — see DESIGN.md §7
  /// for the exact schema.
  [[nodiscard]] std::string ToJson() const;
};

/// Named metric store. Get* registers on first use and returns a reference
/// that stays valid forever; repeated calls with the same name return the
/// same object. Registration takes a mutex; updates through the returned
/// references are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name) TGLINK_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name) TGLINK_EXCLUDES(mu_);
  /// First registration fixes the bucket bounds; later calls with a
  /// different shape get the original histogram (bounds are part of the
  /// metric's identity and must not drift between call sites).
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds)
      TGLINK_EXCLUDES(mu_);

  [[nodiscard]] MetricsSnapshot Snapshot() const TGLINK_EXCLUDES(mu_);

  /// Zeroes every value, keeping all registered objects (and therefore all
  /// cached references) alive. For per-run isolation in tests and benches.
  void ResetAllForTesting() TGLINK_EXCLUDES(mu_);

 private:
  // mu_ guards the registry *structure* only. The metric objects are heap
  // nodes that are never removed, so references returned by Get* stay valid
  // and are updated lock-free through their own atomics.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TGLINK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TGLINK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      TGLINK_GUARDED_BY(mu_);
};

/// The process-wide registry all pipeline instrumentation reports to.
MetricsRegistry& GlobalMetrics();

}  // namespace obs
}  // namespace tglink

// Instrumentation macros: resolve the metric once per call site (guarded
// function-local static), then update with a single relaxed RMW.
#define TGLINK_COUNTER_INC(name) TGLINK_COUNTER_ADD(name, 1)

#define TGLINK_COUNTER_ADD(name, delta)                              \
  do {                                                               \
    static ::tglink::obs::Counter& tglink_obs_counter_ =             \
        ::tglink::obs::GlobalMetrics().GetCounter(name);             \
    tglink_obs_counter_.Add(static_cast<uint64_t>(delta));           \
  } while (0)

#define TGLINK_GAUGE_SET(name, value)                                \
  do {                                                               \
    static ::tglink::obs::Gauge& tglink_obs_gauge_ =                 \
        ::tglink::obs::GlobalMetrics().GetGauge(name);               \
    tglink_obs_gauge_.Set(static_cast<double>(value));               \
  } while (0)

/// Histogram with default latency buckets (nanoseconds).
#define TGLINK_HISTOGRAM_LATENCY_NS(name, ns)                        \
  do {                                                               \
    static ::tglink::obs::Histogram& tglink_obs_hist_ =              \
        ::tglink::obs::GlobalMetrics().GetHistogram(                 \
            name, ::tglink::obs::Histogram::LatencyBoundsNs());      \
    tglink_obs_hist_.Observe(static_cast<double>(ns));               \
  } while (0)

/// Histogram with default size buckets (element counts).
#define TGLINK_HISTOGRAM_SIZE(name, value)                           \
  do {                                                               \
    static ::tglink::obs::Histogram& tglink_obs_hist_ =              \
        ::tglink::obs::GlobalMetrics().GetHistogram(                 \
            name, ::tglink::obs::Histogram::SizeBounds());           \
    tglink_obs_hist_.Observe(static_cast<double>(value));            \
  } while (0)

#endif  // TGLINK_OBS_METRICS_H_
