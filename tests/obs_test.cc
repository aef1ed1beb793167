// Unit tests for the observability subsystem (src/obs): sharded counters
// and histograms (including exact sums under concurrent ParallelFor
// increments), interpolated percentile math against a known uniform
// distribution, trace-span recording/ring semantics, and the exact text
// of the CSV and JSON exporters.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace copyattack {
namespace {

// Every test must leave telemetry disabled — that is the process-wide
// default the rest of the suite (and the perf numbers) relies on.
class ObsTest : public testing::Test {
 protected:
  void TearDown() override {
    obs::SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
};

// --- counters & gauges -----------------------------------------------------

TEST_F(ObsTest, CounterAddsAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.Value(), 0U);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42U);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0U);
}

TEST_F(ObsTest, GaugeIsLastWriterWins) {
  obs::Gauge gauge;
  gauge.Set(7);
  gauge.Set(-3);
  EXPECT_EQ(gauge.Value(), -3);
  gauge.Add(5);
  EXPECT_EQ(gauge.Value(), 2);
}

// Concurrent increments from a ParallelFor must sum exactly: the sharded
// cells are atomic, so no increment may be lost (TSan-clean by design —
// check_all runs this suite under the tsan preset via the unit label).
TEST_F(ObsTest, CounterSumsExactlyUnderParallelFor) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("test.parallel");
  constexpr std::size_t kItems = 4096;
  constexpr std::uint64_t kPerItem = 3;
  util::ThreadPool::ParallelFor(kItems, 8, [&](std::size_t) {
    counter.Add(kPerItem);
  });
  EXPECT_EQ(counter.Value(), kItems * kPerItem);
}

TEST_F(ObsTest, HistogramCountsExactlyUnderParallelFor) {
  obs::Histogram histogram({1.0, 2.0, 4.0});
  constexpr std::size_t kItems = 2048;
  util::ThreadPool::ParallelFor(kItems, 8, [&](std::size_t i) {
    histogram.Observe(static_cast<double>(i % 5));
  });
  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, kItems);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snapshot.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kItems);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected_sum += static_cast<double>(i % 5);
  }
  EXPECT_DOUBLE_EQ(snapshot.sum, expected_sum);
}

// --- histogram percentile math ---------------------------------------------

// Uniform 1..1000 into decile buckets: every percentile is exactly
// recoverable by linear interpolation inside the containing bucket.
TEST_F(ObsTest, PercentilesInterpolateKnownUniformDistribution) {
  std::vector<double> bounds;
  for (int b = 100; b <= 1000; b += 100) bounds.push_back(b);
  obs::Histogram histogram(bounds);
  for (int v = 1; v <= 1000; ++v) histogram.Observe(v);

  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1000U);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 500.5);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.50), 500.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.95), 950.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.99), 990.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(1.0), 1000.0);
}

TEST_F(ObsTest, PercentileEdgeCases) {
  obs::Histogram histogram({10.0, 20.0});
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Percentile(0.5), 0.0);  // empty

  histogram.Observe(5.0);   // first bucket: interpolates from lower edge 0
  histogram.Observe(999.0);  // overflow bucket: clamps to the last bound
  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.counts.front(), 1U);
  EXPECT_EQ(snapshot.counts.back(), 1U);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(1.0), 20.0);
}

// --- registry --------------------------------------------------------------

TEST_F(ObsTest, RegistryHandlesAreStableAndResettable) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("x.count");
  obs::Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);  // one instance per name
  a.Add(3);
  registry.GetGauge("x.gauge").Set(9);
  registry.GetHistogram("x.hist", {1.0, 2.0}).Observe(1.5);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1U);
  EXPECT_EQ(snapshot.counters[0].first, "x.count");
  EXPECT_EQ(snapshot.counters[0].second, 3U);
  ASSERT_EQ(snapshot.histograms.size(), 1U);
  EXPECT_EQ(snapshot.histograms[0].name, "x.hist");

  registry.ResetAll();
  EXPECT_EQ(a.Value(), 0U);  // handle still valid after reset
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].second, 0U);
}

// The OBS_* macros mutate only while telemetry is enabled; the disabled
// default must leave the global registry untouched.
TEST_F(ObsTest, MacrosAreInertWhileDisabled) {
#if !defined(COPYATTACK_OBS_DISABLED)
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("obs_test.macro_counter");
  counter.Reset();
  obs::SetEnabled(false);
  OBS_COUNTER_INC("obs_test.macro_counter");
  EXPECT_EQ(counter.Value(), 0U);
  obs::SetEnabled(true);
  OBS_COUNTER_INC("obs_test.macro_counter");
  obs::SetEnabled(false);
  EXPECT_EQ(counter.Value(), 1U);
  counter.Reset();
#endif
}

// --- tracing ---------------------------------------------------------------

TEST_F(ObsTest, SpansRecordNameDepthAndNesting) {
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(true);
  EXPECT_EQ(obs::CurrentSpanDepth(), 0U);
  {
    obs::ScopedSpan outer("outer");
    EXPECT_EQ(obs::CurrentSpanDepth(), 1U);
    obs::ScopedSpan inner("inner");
    EXPECT_EQ(obs::CurrentSpanDepth(), 2U);
  }
  EXPECT_EQ(obs::CurrentSpanDepth(), 0U);
  obs::SetEnabled(false);

  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Collect();
  ASSERT_EQ(events.size(), 2U);
  const obs::TraceEvent* outer_event = nullptr;
  const obs::TraceEvent* inner_event = nullptr;
  for (const obs::TraceEvent& event : events) {
    if (std::string(event.name) == "outer") outer_event = &event;
    if (std::string(event.name) == "inner") inner_event = &event;
  }
  ASSERT_NE(outer_event, nullptr);
  ASSERT_NE(inner_event, nullptr);
  EXPECT_EQ(outer_event->depth, 1U);
  EXPECT_EQ(inner_event->depth, 2U);
  EXPECT_GE(inner_event->start_ns, outer_event->start_ns);
  EXPECT_GE(outer_event->duration_ns, inner_event->duration_ns);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(false);
  {
    obs::ScopedSpan span("invisible");
    EXPECT_EQ(obs::CurrentSpanDepth(), 0U);  // depth not even incremented
  }
  EXPECT_TRUE(obs::TraceRecorder::Global().Collect().empty());
}

TEST_F(ObsTest, RingBufferOverwritesOldestAndCountsLoss) {
  obs::TraceRecorder recorder;
  recorder.SetRingCapacity(4);
  for (int i = 0; i < 6; ++i) {
    obs::TraceEvent event;
    event.name = "e";
    event.start_ns = i;
    event.duration_ns = 1;
    recorder.Record(event);
  }
  const std::vector<obs::TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 4U);
  // The two oldest events were overwritten; the newest four survive.
  EXPECT_EQ(events.front().start_ns, 2);
  EXPECT_EQ(events.back().start_ns, 5);
  EXPECT_EQ(recorder.overwritten(), 2U);

  recorder.Clear();
  EXPECT_TRUE(recorder.Collect().empty());
  EXPECT_EQ(recorder.overwritten(), 0U);
}

// --- exporters -------------------------------------------------------------

obs::MetricsSnapshot MakeSampleSnapshot() {
  obs::MetricsRegistry registry;
  registry.GetCounter("env.episodes").Add(17);
  registry.GetCounter("blackbox.queries").Add(123456789);
  registry.GetGauge("pool.queue_depth").Set(-2);
  obs::Histogram& histogram =
      registry.GetHistogram("env.inject_us", {0.5, 2.0, 8.0});
  histogram.Observe(0.1);  // no short exact decimal: the sum needs 17 digits
  histogram.Observe(1.75);
  histogram.Observe(100.0);  // overflow bucket
  return registry.Snapshot();
}

TEST_F(ObsTest, CsvExportIsPinned) {
  EXPECT_EQ(obs::MetricsToCsv(MakeSampleSnapshot()),
            "name,kind,key,value\n"
            "blackbox.queries,counter,,123456789\n"
            "env.episodes,counter,,17\n"
            "pool.queue_depth,gauge,,-2\n"
            "env.inject_us,hist_bucket,0.5,1\n"
            "env.inject_us,hist_bucket,2,1\n"
            "env.inject_us,hist_bucket,8,0\n"
            "env.inject_us,hist_bucket,inf,1\n"
            "env.inject_us,hist_sum,,101.84999999999999\n"
            "env.inject_us,hist_count,,3\n");
}

TEST_F(ObsTest, JsonExportIsPinned) {
  EXPECT_EQ(obs::MetricsToJson(MakeSampleSnapshot()),
            "{\n"
            "  \"counters\": {\n"
            "    \"blackbox.queries\": 123456789,\n"
            "    \"env.episodes\": 17\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"pool.queue_depth\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"env.inject_us\": {\n"
            "      \"bounds\": [0.5, 2, 8],\n"
            "      \"counts\": [1, 1, 0, 1],\n"
            "      \"sum\": 101.84999999999999,\n"
            "      \"count\": 3,\n"
            "      \"mean\": 33.949999999999996,\n"
            "      \"p50\": 1.25,\n"
            "      \"p95\": 8,\n"
            "      \"p99\": 8\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST_F(ObsTest, JsonSummaryContainsDerivedPercentiles) {
  const obs::MetricsSnapshot snapshot = MakeSampleSnapshot();
  const std::string json = obs::MetricsToJson(snapshot);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"env.episodes\": 17"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedAndRebased) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent event;
  event.name = "env.step";
  event.start_ns = 5000;
  event.duration_ns = 2500;
  event.thread_index = 3;
  event.depth = 2;
  events.push_back(event);
  event.name = "env.reset";
  event.start_ns = 12000;
  event.duration_ns = 1000;
  events.push_back(event);

  const std::string trace = obs::EventsToChromeTrace(events);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"env.step\""), std::string::npos);
  // Timestamps are microseconds rebased to the earliest span: 5000ns -> 0,
  // 12000ns -> 7us; the 2500ns duration becomes 2.5us.
  EXPECT_NE(trace.find("\"ts\": 0"), std::string::npos);
  EXPECT_NE(trace.find("\"ts\": 7"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\": 2.5"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\": 3"), std::string::npos);
}

TEST_F(ObsTest, ExportAllWritesThreeFiles) {
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(true);
  { obs::ScopedSpan span("export.smoke"); }
  OBS_COUNTER_INC("obs_test.export_smoke");
  obs::SetEnabled(false);

  const std::string dir = testing::TempDir() + "/obs_export_all";
  ASSERT_TRUE(obs::ExportAll(dir));
  std::ifstream csv(dir + "/metrics.csv");
  const std::string metrics((std::istreambuf_iterator<char>(csv)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(metrics.rfind("name,kind,key,value\n", 0), 0U) << metrics;
  EXPECT_NE(metrics.find("\nobs_test.export_smoke,counter,,"),
            std::string::npos)
      << metrics;
  std::ifstream summary(dir + "/summary.json");
  EXPECT_TRUE(summary.good());
  std::ifstream trace(dir + "/trace.json");
  EXPECT_TRUE(trace.good());
}

}  // namespace
}  // namespace copyattack
