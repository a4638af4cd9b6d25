// Flow-wide metrics registry: named counters, gauges and histograms with
// snapshot/merge/JSON support.
//
// Naming convention: metrics whose name starts with "rt." are *runtime*
// metrics — wall-clock-, scheduling- or memory-dependent quantities
// (thread-pool queue wait, peak RSS) that legitimately differ from run to
// run. Everything else is *deterministic*: pure functions of the inputs
// and seeds (PODEM backtracks, fault-sim events, routed net lengths), so
// snapshots of those metrics are bit-identical across job counts and the
// sweep report can assert on them. MetricsSnapshot::to_json(kNoRuntime)
// serialises only the deterministic subset.
//
// Scoping: library code records through metrics(), which resolves to the
// innermost ScopedMetricsRegistry on the calling thread, or the process
// global when none is active. FlowEngine scopes each stage to its own
// registry, so per-flow snapshots stay isolated even when many flows run
// concurrently on a sweep pool; worker threads of inner pools (fault-sim
// bank, thread-pool latency hooks) fall through to the global registry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tpi {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Power-of-two histogram buckets: bucket 0 holds v < 1, bucket i holds
/// 2^(i-1) <= v < 2^i, the last bucket is open-ended.
inline constexpr int kHistogramBuckets = 40;
int histogram_bucket(double v);

/// Local (unsynchronised) histogram accumulator for hot loops: observe
/// per item, then fold into a registry with one record_histogram call.
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0, max = 0.0;  ///< valid when count > 0
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void observe(double v);
  void merge(const HistogramData& o);

  /// Arithmetic mean (0 when empty).
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  /// Estimate the q-quantile (q in [0,1]) from the pow2 buckets: walk the
  /// cumulative counts to the bucket holding rank ceil(q*count), then
  /// interpolate linearly inside the bucket's [lo, hi) value range and
  /// clamp to the observed [min, max]. A pure function of the bucket
  /// counts, so deterministic whenever the histogram itself is.
  double quantile(double q) const;
};

/// One metric in a snapshot: counters use `count`, gauges use `value`,
/// histograms use `hist`.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value
  double value = 0.0;       ///< gauge value
  HistogramData hist;
};

/// True for "rt.<...>" names (runtime metrics, excluded from the
/// deterministic serialisation).
inline bool is_runtime_metric(std::string_view name) {
  return name.rfind("rt.", 0) == 0;
}

/// Plain-data copy of a registry, sorted by name: mergeable across runs
/// (counters/histograms add, gauges keep the max) and serialisable.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  bool empty() const { return metrics.empty(); }
  const MetricValue* find(std::string_view name) const;
  void merge(const MetricsSnapshot& other);

  enum Runtime { kNoRuntime = 0, kWithRuntime = 1 };
  /// Compact one-line JSON object. kNoRuntime drops "rt.*" entries, making
  /// the output bit-identical across job counts / machines. Histograms
  /// carry count/sum/min/max/mean/p50/p95/p99 plus the sparse buckets.
  std::string to_json(Runtime runtime = kWithRuntime) const;

  /// Prometheus text exposition (one block per metric, `# TYPE` line
  /// first). Names map as "tpi_" + metric name with every character
  /// outside [a-zA-Z0-9_] replaced by '_'; counters/gauges keep their
  /// type, histograms are exported as `summary` with quantile="0.5/0.95/
  /// 0.99" rows plus `_sum`, `_count`, `_min` and `_max`.
  std::string to_prometheus() const;
};

/// "flow.cells_added" -> "tpi_flow_cells_added" (the exposition name
/// mapping, shared with tools/tpi_top.py and the docs).
std::string prometheus_metric_name(std::string_view name);

/// Thread-safe registry. Metric kind is fixed by the first touch of a
/// name; a later touch under a different kind is dropped with a warning.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void add(std::string_view name, std::uint64_t delta = 1);  ///< counter
  void set(std::string_view name, double value);             ///< gauge, last write
  void set_max(std::string_view name, double value);         ///< gauge, keep max
  void observe(std::string_view name, double value);         ///< histogram point
  void record_histogram(std::string_view name, const HistogramData& data);

  MetricsSnapshot snapshot() const;

  /// Process-wide registry (thread-pool latencies, anything unscoped).
  static MetricsRegistry& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The registry library code should record into: the innermost
/// ScopedMetricsRegistry on this thread, or MetricsRegistry::global().
MetricsRegistry& metrics();

/// Redirect metrics() on the current thread for the lifetime of the scope.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry& registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* prev_;
};

/// Peak resident set size of the process in kilobytes (0 where
/// unsupported). Recorded per stage as the "rt.flow.peak_rss_kb" gauge.
double peak_rss_kb();

}  // namespace tpi
