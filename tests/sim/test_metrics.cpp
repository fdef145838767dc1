#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dredbox::sim::metrics {
namespace {

TEST(MetricsTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  auto& c = registry.counter("hw.tgl.lookup_hits");
  auto& g = registry.gauge("optics.circuits.active");
  auto& h = registry.histogram("memsys.read.latency_ns", 0.0, 1000.0, 10);
  c.add(5);
  g.set(3.0);
  h.observe(100.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_FALSE(g.written());
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry registry;
  registry.enable();
  auto& c = registry.counter("orch.sdm.scale_ups");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(MetricsTest, GaugeSetAndDelta) {
  MetricsRegistry registry;
  registry.enable();
  auto& g = registry.gauge("hyp.vms.running");
  g.add(1.0);
  g.add(1.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_TRUE(g.written());
}

TEST(MetricsTest, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  registry.enable();
  auto& a = registry.counter("memsys.fabric.attaches");
  auto& b = registry.counter("memsys.fabric.attaches");
  EXPECT_EQ(&a, &b);
  a.add();
  EXPECT_EQ(b.value(), 1u);
  // A histogram lookup must repeat the original bucket layout; asking for
  // a different one is a naming collision and is rejected by name.
  auto& h1 = registry.histogram("x.latency.ns", 0.0, 100.0, 10);
  auto& h2 = registry.histogram("x.latency.ns", 0.0, 100.0, 10);
  EXPECT_EQ(&h1, &h2);
  try {
    registry.histogram("x.latency.ns", 0.0, 999.0, 50);
    FAIL() << "mismatched re-registration must throw";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string{error.what()}.find("x.latency.ns"), std::string::npos);
  }
}

TEST(MetricsTest, CrossTypeNameCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("the.name");
  EXPECT_THROW(registry.gauge("the.name"), std::logic_error);
  EXPECT_THROW(registry.histogram("the.name", 0.0, 1.0, 4), std::logic_error);
}

TEST(MetricsTest, HistogramAggregatesAndBuckets) {
  MetricsRegistry registry;
  registry.enable();
  auto& h = registry.histogram("memsys.read.latency_ns", 0.0, 100.0, 10);
  for (int i = 0; i < 10; ++i) h.observe(10.0 * i + 5.0);  // one per bucket
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 95.0);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) EXPECT_EQ(h.bucket(b), 1u);
  // Out-of-range samples clamp into the edge buckets but keep exact
  // aggregates.
  h.observe(1e9);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  h.observe(-1e9);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -1e9);
}

TEST(HistogramTest, BinsAndClamping) {
  MetricsRegistry registry;
  registry.enable();
  auto& h = registry.histogram("test.histogram.bins", 0.0, 10.0, 5);
  h.observe(0.5);   // bin 0
  h.observe(9.9);   // bin 4
  h.observe(-3.0);  // clamps to bin 0
  h.observe(42.0);  // clamps to bin 4
  h.observe(5.0);   // bin 2
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(MetricsTest, HistogramRejectsBadLayout) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("empty_range", 5.0, 5.0, 4), std::invalid_argument);
  EXPECT_THROW(registry.histogram("inverted", 5.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(registry.histogram("no_bins", 0.0, 1.0, 0), std::invalid_argument);
}

TEST(MetricsTest, HistogramQuantiles) {
  MetricsRegistry registry;
  registry.enable();
  auto& h = registry.histogram("q", 0.0, 100.0, 100);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i) - 0.5);
  EXPECT_EQ(h.quantile(0.0), h.min());
  EXPECT_EQ(h.quantile(1.0), h.max());
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 2.0);
  // Empty histogram quantile is 0.
  auto& empty = registry.histogram("empty", 0.0, 1.0, 4);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(MetricsTest, NamesAndFindersCoverAllTypes) {
  MetricsRegistry registry;
  registry.counter("b.counter");
  registry.gauge("a.gauge");
  registry.histogram("c.histogram", 0.0, 1.0, 4);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.has("a.gauge"));
  EXPECT_FALSE(registry.has("missing"));
  const auto names = registry.names();
  EXPECT_EQ(names, (std::vector<std::string>{"a.gauge", "b.counter", "c.histogram"}));
  EXPECT_NE(registry.find_counter("b.counter"), nullptr);
  EXPECT_EQ(registry.find_counter("a.gauge"), nullptr);
  EXPECT_NE(registry.find_gauge("a.gauge"), nullptr);
  EXPECT_NE(registry.find_histogram("c.histogram"), nullptr);
  EXPECT_EQ(registry.find_histogram("missing"), nullptr);
}

TEST(MetricsTest, SnapshotRendersOneRowPerInstrument) {
  MetricsRegistry registry;
  registry.enable();
  registry.counter("hits").add(3);
  registry.gauge("level").set(2.5);
  registry.histogram("lat", 0.0, 10.0, 5).observe(4.0);
  const std::string table = registry.snapshot().to_string();
  EXPECT_NE(table.find("hits"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("level"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
  const std::string csv = registry.snapshot().to_csv();
  EXPECT_NE(csv.find("instrument,type,count,value,mean,p50,p99,max"), std::string::npos);
}

TEST(MetricsTest, MergeFoldsRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.enable();
  b.enable();
  a.counter("c").add(2);
  b.counter("c").add(3);
  b.counter("only_b").add(1);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h", 0.0, 10.0, 5).observe(1.0);
  b.histogram("h", 0.0, 10.0, 5).observe(9.0);

  a.merge(b);
  EXPECT_EQ(a.find_counter("c")->value(), 5u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 1u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 9.0);
  EXPECT_EQ(a.find_histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_histogram("h")->mean(), 5.0);
  EXPECT_EQ(a.find_histogram("h")->bucket(0), 1u);
  EXPECT_EQ(a.find_histogram("h")->bucket(4), 1u);
}

TEST(MetricsTest, MergeKeepsUnwrittenGaugeAndChecksLayout) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.enable();
  a.gauge("g").set(4.0);
  b.gauge("g");  // never written: must not clobber a's value
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 4.0);

  MetricsRegistry c;
  a.histogram("h", 0.0, 10.0, 5);
  c.histogram("h", 0.0, 99.0, 5);
  EXPECT_THROW(a.merge(c), std::logic_error);
}

TEST(MetricsTest, MergeLandsEvenWhenTargetDisabled) {
  MetricsRegistry a;  // disabled
  MetricsRegistry b;
  b.enable();
  b.counter("c").add(7);
  a.merge(b);
  EXPECT_EQ(a.find_counter("c")->value(), 7u);
}

TEST(MetricsTest, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  registry.enable();
  auto& c = registry.counter("c");
  auto& g = registry.gauge("g");
  auto& h = registry.histogram("h", 0.0, 10.0, 5);
  c.add(3);
  g.set(2.0);
  h.observe(5.0);
  registry.reset();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_FALSE(g.written());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_TRUE(registry.enabled());
  // Instruments stay live after reset.
  c.add();
  EXPECT_EQ(c.value(), 1u);
}

TEST(TelemetryTest, BundleTogglesBothHalves) {
  Telemetry telemetry;
  EXPECT_FALSE(telemetry.metrics().enabled());
  EXPECT_FALSE(telemetry.tracing());
  telemetry.enable_all();
  EXPECT_TRUE(telemetry.metrics().enabled());
  EXPECT_TRUE(telemetry.tracer().enabled());
  telemetry.disable_all();
  EXPECT_FALSE(telemetry.tracing());
}

}  // namespace
}  // namespace dredbox::sim::metrics
