#include "tglink/obs/metrics.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tglink/obs/json_writer.h"

namespace tglink {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.ResetForTesting();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, LastWriteWinsAndAdd) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.Value(), -0.5);
}

TEST(AtomicDoubleTest, MinMaxConverge) {
  AtomicDouble min(std::numeric_limits<double>::infinity());
  AtomicDouble max(-std::numeric_limits<double>::infinity());
  for (double v : {3.0, -2.0, 7.0, 0.0}) {
    min.Min(v);
    max.Max(v);
  }
  EXPECT_DOUBLE_EQ(min.Load(), -2.0);
  EXPECT_DOUBLE_EQ(max.Load(), 7.0);
}

TEST(HistogramTest, InclusiveUpperBoundsAndOverflow) {
  Histogram h({1.0, 4.0, 16.0});
  h.Observe(0.5);   // bucket 0: (-inf, 1]
  h.Observe(1.0);   // bucket 0: exactly on the bound
  h.Observe(2.0);   // bucket 1: (1, 4]
  h.Observe(4.0);   // bucket 1: exactly on the bound
  h.Observe(5.0);   // bucket 2: (4, 16]
  h.Observe(100.0); // overflow bucket 3
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 112.5);
  EXPECT_DOUBLE_EQ(h.MinValue(), 0.5);
  EXPECT_DOUBLE_EQ(h.MaxValue(), 100.0);
  h.ResetForTesting();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.BucketCount(3), 0u);
}

// A tally folds its observations into the target in one step, with the
// buckets, count, min and max that per-value Observe would record; an
// empty tally leaves the target untouched.
TEST(HistogramTest, TallyAddsWhatObserveWould) {
  const std::vector<double> values = {0.5, 1.0, 2.0, 4.0, 5.0, 100.0, 3.0};
  Histogram direct({1.0, 4.0, 16.0});
  Histogram tallied({1.0, 4.0, 16.0});
  for (const double v : values) direct.Observe(v);
  {
    HistogramTally tally(tallied);
    for (const double v : values) tally.Observe(v);
    EXPECT_EQ(tally.count(), values.size());
    EXPECT_EQ(tallied.Count(), 0u) << "nothing reaches the target early";
  }
  { HistogramTally empty(tallied); }
  for (size_t i = 0; i <= direct.bounds().size(); ++i) {
    EXPECT_EQ(tallied.BucketCount(i), direct.BucketCount(i)) << "bucket " << i;
  }
  EXPECT_EQ(tallied.Count(), direct.Count());
  EXPECT_DOUBLE_EQ(tallied.Sum(), direct.Sum());
  EXPECT_EQ(tallied.MinValue(), 0.5);
  EXPECT_EQ(tallied.MaxValue(), 100.0);
}

TEST(HistogramTest, ExponentialBoundsShape) {
  const std::vector<double> bounds = Histogram::ExponentialBounds(1.0, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 256.0);
  // Stock bound sets are sorted and non-empty (the Histogram ctor checks
  // sortedness; this guards the generators themselves).
  for (auto gen : {&Histogram::LatencyBoundsNs, &Histogram::SizeBounds,
                   &Histogram::UnitIntervalBounds}) {
    const std::vector<double> b = gen();
    ASSERT_FALSE(b.empty());
    for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  }
}

TEST(RegistryTest, SameNameSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x.events");
  Counter& b = registry.GetCounter("x.events");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);

  Histogram& h1 = registry.GetHistogram("x.sizes", {1.0, 2.0});
  // A second call site with drifted bounds gets the original histogram:
  // bounds are part of the metric's identity.
  Histogram& h2 = registry.GetHistogram("x.sizes", {10.0, 20.0, 30.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(RegistryTest, SnapshotIsSortedAndResetKeepsReferences) {
  MetricsRegistry registry;
  registry.GetCounter("b.second").Add(2);
  registry.GetCounter("a.first").Add(1);
  registry.GetGauge("g.level").Set(0.5);
  registry.GetHistogram("h.sizes", {1.0}).Observe(7.0);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "b.second");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.histograms[0].bucket_counts.size(), 2u);
  EXPECT_EQ(snap.histograms[0].bucket_counts[1], 1u);  // 7.0 overflows {1}

  Counter& ref = registry.GetCounter("a.first");
  registry.ResetAllForTesting();
  EXPECT_EQ(ref.Value(), 0u);  // same object, zeroed
  ref.Add(5);
  EXPECT_EQ(registry.Snapshot().counters[0].value, 5u);
}

TEST(SnapshotJsonTest, ContainsAllSectionsAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("pipeline.runs").Add(3);
  registry.GetGauge("pipeline.load").Set(1.5);
  Histogram& h = registry.GetHistogram("pipeline.sizes", {1.0, 4.0});
  h.Observe(2.0);
  h.Observe(9.0);

  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.load\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(SnapshotJsonTest, EmptyRegistrySerializesToEmptySections) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(JsonWriterTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
}

TEST(JsonWriterTest, NestedStructure) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list").BeginArray().Double(1.0).String("two").EndArray();
  w.Key("flag").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.Take(), "{\"list\":[1,\"two\"],\"flag\":true}");
}

TEST(MacrosTest, UpdateTheGlobalRegistry) {
  GlobalMetrics().ResetAllForTesting();
  TGLINK_COUNTER_INC("obs_test.macro_events");
  TGLINK_COUNTER_ADD("obs_test.macro_events", 2);
  TGLINK_GAUGE_SET("obs_test.macro_gauge", 4.0);
  TGLINK_HISTOGRAM_SIZE("obs_test.macro_sizes", 10);
  EXPECT_EQ(GlobalMetrics().GetCounter("obs_test.macro_events").Value(), 3u);
  const MetricsSnapshot snap = GlobalMetrics().Snapshot();
  bool found = false;
  for (const auto& hist : snap.histograms) {
    if (hist.name == "obs_test.macro_sizes") {
      found = true;
      EXPECT_EQ(hist.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace obs
}  // namespace tglink
