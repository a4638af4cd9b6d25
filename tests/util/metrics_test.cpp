// MetricsRegistry tests: counter/gauge/histogram semantics, snapshot
// ordering, merge rules, the deterministic-vs-runtime ("rt.") split in the
// JSON serialisation, and thread-local registry scoping.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "util/json_check.hpp"
#include "util/metrics.hpp"

namespace tpi {
namespace {

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(histogram_bucket(0.0), 0);
  EXPECT_EQ(histogram_bucket(0.5), 0);
  EXPECT_EQ(histogram_bucket(1.0), 1);
  EXPECT_EQ(histogram_bucket(1.9), 1);
  EXPECT_EQ(histogram_bucket(2.0), 2);
  EXPECT_EQ(histogram_bucket(1024.0), 11);
  EXPECT_EQ(histogram_bucket(1.0e300), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(-3.0), 0);  // negatives clamp to the first bucket
}

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry reg;
  reg.add("a.count");
  reg.add("a.count", 41);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("a.count");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, MetricKind::kCounter);
  EXPECT_EQ(v->count, 42u);
}

TEST(MetricsTest, GaugesSetAndSetMax) {
  MetricsRegistry reg;
  reg.set("g.last", 3.0);
  reg.set("g.last", 1.0);
  reg.set_max("g.peak", 5.0);
  reg.set_max("g.peak", 2.0);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("g.last")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("g.peak")->value, 5.0);
}

TEST(MetricsTest, HistogramObserveAndBulkRecordAgree) {
  MetricsRegistry reg;
  reg.observe("h.direct", 1.0);
  reg.observe("h.direct", 100.0);
  HistogramData local;
  local.observe(1.0);
  local.observe(100.0);
  reg.record_histogram("h.bulk", local);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* a = snap.find("h.direct");
  const MetricValue* b = snap.find("h.bulk");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->hist.count, 2u);
  EXPECT_EQ(b->hist.count, 2u);
  EXPECT_DOUBLE_EQ(a->hist.sum, b->hist.sum);
  EXPECT_DOUBLE_EQ(a->hist.min, 1.0);
  EXPECT_DOUBLE_EQ(a->hist.max, 100.0);
  EXPECT_EQ(a->hist.buckets, b->hist.buckets);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.add("zebra");
  reg.add("alpha");
  reg.add("mid");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "alpha");
  EXPECT_EQ(snap.metrics[1].name, "mid");
  EXPECT_EQ(snap.metrics[2].name, "zebra");
}

TEST(MetricsTest, KindMismatchIsDroppedNotCrashed) {
  MetricsRegistry reg;
  reg.add("x");
  reg.set("x", 7.0);  // wrong kind: warned and dropped
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("x")->kind, MetricKind::kCounter);
  EXPECT_EQ(snap.find("x")->count, 1u);
}

TEST(MetricsTest, MergeAddsCountersMaxesGaugesFoldsHistograms) {
  MetricsRegistry a, b;
  a.add("c", 2);
  b.add("c", 3);
  a.set_max("g", 1.0);
  b.set_max("g", 9.0);
  a.observe("h", 4.0);
  b.observe("h", 8.0);
  b.add("only_b");
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.find("c")->count, 5u);
  EXPECT_DOUBLE_EQ(merged.find("g")->value, 9.0);
  EXPECT_EQ(merged.find("h")->hist.count, 2u);
  EXPECT_DOUBLE_EQ(merged.find("h")->hist.max, 8.0);
  ASSERT_NE(merged.find("only_b"), nullptr);
  EXPECT_EQ(merged.find("only_b")->count, 1u);
  // Merged snapshots stay sorted, so serialisation order is deterministic.
  for (std::size_t i = 1; i < merged.metrics.size(); ++i) {
    EXPECT_LT(merged.metrics[i - 1].name, merged.metrics[i].name);
  }
}

TEST(MetricsTest, MergeIsOrderInsensitiveForJson) {
  MetricsRegistry a, b;
  a.add("m.one", 1);
  a.observe("m.h", 2.0);
  b.add("m.one", 4);
  b.add("m.two");
  b.observe("m.h", 16.0);
  MetricsSnapshot ab = a.snapshot();
  ab.merge(b.snapshot());
  MetricsSnapshot ba = b.snapshot();
  ba.merge(a.snapshot());
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(MetricsTest, RuntimeMetricsExcludedFromDeterministicJson) {
  EXPECT_TRUE(is_runtime_metric("rt.threadpool.run_ms"));
  EXPECT_FALSE(is_runtime_metric("atpg.podem.calls"));
  EXPECT_FALSE(is_runtime_metric("sort.rt.x"));  // prefix only

  MetricsRegistry reg;
  reg.add("det.counter", 7);
  reg.observe("rt.wait_us", 12.5);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string all = snap.to_json(MetricsSnapshot::kWithRuntime);
  const std::string det = snap.to_json(MetricsSnapshot::kNoRuntime);
  EXPECT_NE(all.find("rt.wait_us"), std::string::npos);
  EXPECT_EQ(det.find("rt.wait_us"), std::string::npos);
  EXPECT_NE(det.find("det.counter"), std::string::npos);
  std::string error;
  EXPECT_TRUE(json_well_formed(all, &error)) << error;
  EXPECT_TRUE(json_well_formed(det, &error)) << error;
}

TEST(MetricsTest, ScopedRegistryRedirectsCurrentThreadOnly) {
  MetricsRegistry scoped;
  {
    ScopedMetricsRegistry scope(scoped);
    EXPECT_EQ(&metrics(), &scoped);
    metrics().add("scoped.hit");
    // A fresh thread does not inherit the scope: it records globally.
    std::thread other([] { EXPECT_EQ(&metrics(), &MetricsRegistry::global()); });
    other.join();
    {
      MetricsRegistry inner;
      ScopedMetricsRegistry nested(inner);
      EXPECT_EQ(&metrics(), &inner);
    }
    EXPECT_EQ(&metrics(), &scoped);
  }
  EXPECT_EQ(&metrics(), &MetricsRegistry::global());
  EXPECT_EQ(scoped.snapshot().find("scoped.hit")->count, 1u);
}

TEST(MetricsTest, HistogramMeanAndQuantileEdgeCases) {
  HistogramData h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty: no data, no NaN
  h.observe(10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
  // A single sample is every quantile, thanks to the [min, max] clamp.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
  h.observe(30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);  // q<=0 -> min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);  // q>=1 -> max
}

TEST(MetricsTest, QuantilesAreMonotonicAndBucketBounded) {
  HistogramData h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // 50 (pow2 bucket [32,64)) and 95/99 (bucket [64,128), clamped to max).
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p99, 100.0);  // clamped to the observed max, not the bucket edge
}

TEST(MetricsTest, QuantilesAreOrderInsensitive) {
  // Pure function of the bucket counts: the estimate cannot depend on
  // observation order, which is what keeps merged sweep metrics
  // bit-identical across worker counts.
  HistogramData fwd, rev;
  for (int i = 0; i < 64; ++i) fwd.observe(static_cast<double>(i * 3 + 1));
  for (int i = 63; i >= 0; --i) rev.observe(static_cast<double>(i * 3 + 1));
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(fwd.quantile(q), rev.quantile(q));
  }
  EXPECT_DOUBLE_EQ(fwd.mean(), rev.mean());
}

TEST(MetricsTest, HistogramJsonCarriesSummaryFields) {
  MetricsRegistry reg;
  reg.observe("h.lat", 2.0);
  reg.observe("h.lat", 50.0);
  const std::string json = reg.snapshot().to_json();
  std::string error;
  EXPECT_TRUE(json_well_formed(json, &error)) << error;
  for (const char* field : {"\"mean\":", "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(MetricsTest, PrometheusNameMapping) {
  EXPECT_EQ(prometheus_metric_name("atpg.sim.faults_graded"),
            "tpi_atpg_sim_faults_graded");
  EXPECT_EQ(prometheus_metric_name("server.stage_ms.tpi+scan"),
            "tpi_server_stage_ms_tpi_scan");
  EXPECT_EQ(prometheus_metric_name("rt.wait"), "tpi_rt_wait");
}

TEST(MetricsTest, PrometheusExpositionTypesEveryMetric) {
  MetricsRegistry reg;
  reg.add("jobs.done", 3);
  reg.set("cache.bytes", 4096.0);
  reg.observe("queue.wait_ns", 100.0);
  reg.observe("queue.wait_ns", 900.0);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE tpi_jobs_done counter\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_jobs_done 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tpi_cache_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_cache_bytes 4096\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tpi_queue_wait_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns{quantile=\"0.95\"} "), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns_sum 1000\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns_min 100\n"), std::string::npos);
  EXPECT_NE(text.find("tpi_queue_wait_ns_max 900\n"), std::string::npos);
  // Every line is either a # comment or "name value" / "name{...} value".
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    ASSERT_FALSE(line.empty());
    if (line[0] != '#') {
      EXPECT_EQ(line.compare(0, 4, "tpi_"), 0) << line;
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
}

TEST(MetricsTest, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_kb(), 0.0);
#else
  EXPECT_GE(peak_rss_kb(), 0.0);
#endif
}

}  // namespace
}  // namespace tpi
