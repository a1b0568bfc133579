// Telemetry layer: histogram percentiles at bucket edges, thread-safe
// counters, span nesting, the disabled path's zero-allocation guarantee,
// and JSON round-trips through the bundled parser.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/telemetry/json.hpp"
#include "common/telemetry/telemetry.hpp"
#include "parallel/coordinated_checkpoint.hpp"

// Global allocation counter backing the zero-allocation test. Every
// heap allocation in the test binary bumps it; the disabled-telemetry
// hot path must leave it untouched.
namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tkmc::telemetry {
namespace {

TEST(Histogram, PercentilesExactAtBucketEdges) {
  ScopedEnable on;
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.observe(v);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.minValue(), 1.0);
  EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // With ten observations per bucket every multiple-of-ten percentile
  // lands exactly on a bucket edge.
  EXPECT_DOUBLE_EQ(h.percentile(10), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  // Interior percentiles interpolate linearly within their bucket.
  EXPECT_DOUBLE_EQ(h.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
}

TEST(Histogram, SingleObservationOnBoundIsExact) {
  ScopedEnable on;
  Histogram h({1.0, 2.0, 4.0});
  h.observe(2.0);  // upper-inclusive: lands in the (1, 2] bucket
  EXPECT_EQ(h.bucketCount(1), 1u);
  // Observed min == max == 2 pins every percentile to the value itself.
  EXPECT_DOUBLE_EQ(h.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 2.0);
}

TEST(Histogram, OverflowBucketUsesObservedMax) {
  ScopedEnable on;
  Histogram h({1.0, 2.0, 4.0});
  h.observe(10.0);
  h.observe(100.0);
  EXPECT_EQ(h.bucketCount(3), 2u);  // both beyond the last bound
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_GE(h.percentile(50), 10.0);
  EXPECT_LE(h.percentile(50), 100.0);
}

TEST(Histogram, QuantilesStayWithinTheObservedRange) {
  // Regression: checkpoint.delta_pages uses the default time-scale
  // bounds but observes small integer page counts. Interpolating inside
  // a sub-microsecond bucket reported p50 = 8.3e-07 for a series whose
  // median sample was exactly 0. A quantile must never leave the
  // observed [min, max] of the bucket it lands in.
  ScopedEnable on;
  MetricsRegistry registry;
  Histogram& h = registry.histogram("checkpoint.delta_pages");
  for (int i = 0; i < 9; ++i) h.observe(0.0);
  for (double v : {1.0, 1.0, 1.0, 2.0, 3.0, 3.0}) h.observe(v);
  EXPECT_EQ(h.count(), 15u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // 9 of 15 samples are zero
  EXPECT_DOUBLE_EQ(h.percentile(95), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 3.0);
  for (double p : {1.0, 10.0, 25.0, 75.0, 90.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 0.0) << "p" << p;
    EXPECT_LE(h.percentile(p), 3.0) << "p" << p;
  }
}

TEST(Histogram, EmptyReportsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::exception);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::exception);
  EXPECT_THROW(Histogram({}), std::exception);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  ScopedEnable on;
  MetricsRegistry registry;
  Counter& c = registry.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, MaxIsMonotone) {
  ScopedEnable on;
  Gauge g;
  g.max(5.0);
  g.max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set(1.0);  // set() is not monotone
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Tracer, SpansNestInLifoOrder) {
  ScopedEnable on;
  Tracer::global().reset();
  {
    TKMC_SPAN("outer");
    { TKMC_SPAN("inner"); }
  }
  const std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, 'E');
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].tsMicros, events[i - 1].tsMicros);
  Tracer::global().reset();
}

TEST(Tracer, CapacityDropsAreCountedAndExportStaysBalanced) {
  ScopedEnable on;
  Tracer t;
  t.setCapacity(2);
  t.begin("a");
  t.begin("b");
  t.begin("c");  // over capacity: dropped
  EXPECT_EQ(t.eventCount(), 2u);
  EXPECT_EQ(t.dropped(), 1u);

  const JsonValue doc = JsonValue::parse(t.toJson());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  int begins = 0;
  int ends = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "B") ++begins;
    if (ph->str == "E") ++ends;
  }
  // The exporter appends synthetic 'E' events for the still-open spans.
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
}

TEST(Tracer, FlowEventsExportAsMatchedArrowPairs) {
  ScopedEnable on;
  Tracer t;
  t.flowBegin("flow.fold", 7, 0);
  t.flowEnd("flow.fold", 7, 1);
  t.flowBegin("flow.ghost", 9, 2);  // never finished: close synthesized
  t.flowEnd("flow.msg", 11, 3);     // orphan finish: must be skipped

  const JsonValue doc = JsonValue::parse(t.toJson());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int starts = 0;
  int finishes = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.find("ph")->str;
    if (ph != "s" && ph != "f") continue;
    EXPECT_NE(e.find("name")->str, "flow.msg") << "orphan finish exported";
    const JsonValue* id = e.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_TRUE(id->number == 7.0 || id->number == 9.0);
    if (ph == "s") ++starts;
    if (ph == "f") {
      ++finishes;
      // Binding point "enclosing slice" is what draws the arrow to the
      // event under the finish, not just to the track.
      ASSERT_NE(e.find("bp"), nullptr);
      EXPECT_EQ(e.find("bp")->str, "e");
    }
  }
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(finishes, 2);  // matched fold + synthesized ghost close
}

TEST(Telemetry, WriteAllTearLeavesThePreviousSnapshotIntact) {
  // writeAll() goes through publishJson (temp + rename): a crash
  // mid-write — simulated by the telemetry.write_tear fault point —
  // must never tear a previously published metrics.json.
  resetAll();
  ScopedEnable on;
  const auto dir = std::filesystem::temp_directory_path() / "tkmc_tm_tear";
  std::filesystem::remove_all(dir);
  metrics().counter("tear.marker").inc();
  writeAll(dir.string());

  const auto readFile = [&] {
    std::ifstream in(dir / "metrics.json");
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const JsonValue first = JsonValue::parse(readFile());
  EXPECT_DOUBLE_EQ(first.find("counters")->find("tear.marker")->number, 1.0);

  metrics().counter("tear.marker").inc();  // would publish 2
  FaultInjector inj(7);
  // writeAll writes trace.json first, metrics.json second: hit ordinal 2
  // tears the metrics write after its temp file is half-written.
  inj.armSchedule("telemetry.write_tear", {2});
  FaultScope scope(inj);
  EXPECT_THROW(writeAll(dir.string()), IoError);
  EXPECT_EQ(inj.triggerCount("telemetry.write_tear"), 1u);

  // The published file is still the complete previous snapshot.
  const JsonValue after = JsonValue::parse(readFile());
  EXPECT_DOUBLE_EQ(after.find("counters")->find("tear.marker")->number, 1.0);
  std::filesystem::remove_all(dir);
  resetAll();
}

TEST(Telemetry, DisabledPathAllocatesNothing) {
  setEnabled(false);
  MetricsRegistry registry;
  // Handle acquisition may allocate; the recording path must not.
  Counter& c = registry.counter("test.zero_alloc");
  Gauge& g = registry.gauge("test.zero_alloc_gauge");
  Histogram& h = registry.histogram("test.zero_alloc_hist", {1.0, 2.0});

  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c.add(3);
    g.set(static_cast<double>(i));
    g.max(static_cast<double>(i));
    h.observe(static_cast<double>(i));
    ScopedSpan span("test.zero_alloc_span", i);
    Tracer::global().instant("test.zero_alloc_instant");
  }
  const std::uint64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  // And nothing was recorded either.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Telemetry, MetricsJsonRoundTrips) {
  ScopedEnable on;
  MetricsRegistry registry;
  registry.counter("comm.bytes_sent").add(4096);
  registry.gauge("kmc.cache.hit_rate").set(0.75);
  Histogram& h = registry.histogram("engine.cycle_seconds", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);

  const JsonValue doc = JsonValue::parse(registry.toJson());
  ASSERT_TRUE(doc.isObject());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* bytes = counters->find("comm.bytes_sent");
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(bytes->number, 4096.0);

  const JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* rate = gauges->find("kmc.cache.hit_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->number, 0.75);

  const JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* cycle = hists->find("engine.cycle_seconds");
  ASSERT_NE(cycle, nullptr);
  EXPECT_DOUBLE_EQ(cycle->find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(cycle->find("min")->number, 0.5);
  EXPECT_DOUBLE_EQ(cycle->find("max")->number, 3.0);
  EXPECT_DOUBLE_EQ(cycle->find("sum")->number, 5.0);
}

TEST(Telemetry, CheckpointShardStagingObservesShardBytes) {
  // The coordinated checkpoint store publishes every staged shard's
  // on-disk size to the global registry.
  resetAll();
  ScopedEnable on;
  const auto dir = std::filesystem::temp_directory_path() / "tkmc_tm_shard";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir.string());
  store.beginEpoch(1);
  ShardRecord shard;
  shard.rank = 0;
  shard.extentCells = {1, 1, 1};
  shard.species = {0, 1};
  const EpochManifest::ShardEntry entry = store.stageShard(1, shard);
  EXPECT_EQ(metrics().histogram("checkpoint.shard_bytes").count(), 1u);
  EXPECT_GE(metrics().histogram("checkpoint.shard_bytes").sum(),
            static_cast<double>(entry.bytes));
  const JsonValue doc = JsonValue::parse(metrics().toJson());
  EXPECT_NE(doc.find("histograms")->find("checkpoint.shard_bytes"), nullptr);
  store.abortEpoch(1);
  std::filesystem::remove_all(dir);
  resetAll();
}

TEST(Telemetry, EmptyHistogramSnapshotIsValidJson) {
  ScopedEnable on;
  MetricsRegistry registry;
  registry.histogram("never.observed", {1.0});
  // min/max of an empty histogram are +/-inf internally; the snapshot
  // must still be parseable JSON (they are emitted as 0).
  const JsonValue doc = JsonValue::parse(registry.toJson());
  const JsonValue* h = doc.find("histograms")->find("never.observed");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 0.0);
  EXPECT_DOUBLE_EQ(h->find("min")->number, 0.0);
}

TEST(Telemetry, TraceJsonRoundTripsWithRequiredFields) {
  ScopedEnable on;
  Tracer t;
  t.begin("engine.cycle.s0", 0);
  t.instant("engine.rollback", 2);
  t.end("engine.cycle.s0", 0);

  const JsonValue doc = JsonValue::parse(t.toJson());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  for (const JsonValue& e : events->array) {
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_NE(e.find("ph"), nullptr);
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  EXPECT_EQ(events->array[1].find("ph")->str, "i");
  EXPECT_DOUBLE_EQ(events->array[1].find("tid")->number, 2.0);
  const JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
}

TEST(Telemetry, ScopedEnableRestoresPreviousState) {
  setEnabled(false);
  {
    ScopedEnable on;
    EXPECT_TRUE(enabled());
    {
      ScopedEnable off(false);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace tkmc::telemetry
