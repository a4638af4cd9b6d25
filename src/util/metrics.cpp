#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "util/json.hpp"
#include "util/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tpi {

int histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  const int b = 1 + std::ilogb(v);
  return b >= kHistogramBuckets ? kHistogramBuckets - 1 : b;
}

void HistogramData::observe(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  ++buckets[static_cast<std::size_t>(histogram_bucket(v))];
}

void HistogramData::merge(const HistogramData& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += o.buckets[i];
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  if (!(q > 0.0)) return min;
  if (q >= 1.0) return max;
  // Rank of the requested order statistic, 1-based.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (cum + n < rank) {
      cum += n;
      continue;
    }
    // Bucket b holds the rank. Its value range: [0,1) for b == 0,
    // [2^(b-1), 2^b) otherwise; interpolate by position within the bucket.
    const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
    const double hi = b == 0 ? 1.0 : std::ldexp(1.0, b);
    const double frac =
        (static_cast<double>(rank - cum) - 0.5) / static_cast<double>(n);
    const double v = lo + (hi - lo) * frac;
    return std::min(std::max(v, min), max);
  }
  return max;  // unreachable when bucket counts sum to `count`
}

namespace {

struct MetricState {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  // counter
  double value = 0.0;       // gauge
  HistogramData hist;
};

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, MetricState, std::less<>> map;

  MetricState* touch(std::string_view name, MetricKind kind) {
    auto it = map.find(name);
    if (it == map.end()) {
      it = map.emplace(std::string(name), MetricState{}).first;
      it->second.kind = kind;
    } else if (it->second.kind != kind) {
      log_warn() << "metrics: " << std::string(name)
                 << " already registered with a different kind; sample dropped";
      return nullptr;
    }
    return &it->second;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (MetricState* m = impl_->touch(name, MetricKind::kCounter)) m->count += delta;
}

void MetricsRegistry::set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (MetricState* m = impl_->touch(name, MetricKind::kGauge)) m->value = value;
}

void MetricsRegistry::set_max(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (MetricState* m = impl_->touch(name, MetricKind::kGauge)) {
    m->value = std::max(m->value, value);
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (MetricState* m = impl_->touch(name, MetricKind::kHistogram)) m->hist.observe(value);
}

void MetricsRegistry::record_histogram(std::string_view name, const HistogramData& data) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (MetricState* m = impl_->touch(name, MetricKind::kHistogram)) m->hist.merge(data);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  snap.metrics.reserve(impl_->map.size());
  for (const auto& [name, state] : impl_->map) {
    MetricValue v;
    v.name = name;
    v.kind = state.kind;
    v.count = state.count;
    v.value = state.value;
    v.hist = state.hist;
    snap.metrics.push_back(std::move(v));
  }
  return snap;  // map iteration order is sorted by name already
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* g = new MetricsRegistry;  // never destroyed
  return *g;
}

namespace {
thread_local MetricsRegistry* t_current = nullptr;
}  // namespace

MetricsRegistry& metrics() {
  return t_current != nullptr ? *t_current : MetricsRegistry::global();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry& registry)
    : prev_(t_current) {
  t_current = &registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() { t_current = prev_; }

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const MetricValue& o : other.metrics) {
    const auto it = std::lower_bound(
        metrics.begin(), metrics.end(), o,
        [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
    if (it == metrics.end() || it->name != o.name) {
      metrics.insert(it, o);
      continue;
    }
    if (it->kind != o.kind) {
      log_warn() << "metrics: merge kind mismatch on " << o.name << "; entry kept as is";
      continue;
    }
    switch (o.kind) {
      case MetricKind::kCounter: it->count += o.count; break;
      case MetricKind::kGauge: it->value = std::max(it->value, o.value); break;
      case MetricKind::kHistogram: it->hist.merge(o.hist); break;
    }
  }
}

std::string MetricsSnapshot::to_json(Runtime runtime) const {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (runtime == kNoRuntime && is_runtime_metric(m.name)) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": ";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += std::to_string(m.count);
        break;
      case MetricKind::kGauge:
        out += report_number(m.value);
        break;
      case MetricKind::kHistogram: {
        out += "{\"count\": " + std::to_string(m.hist.count);
        out += ", \"sum\": " + report_number(m.hist.sum);
        out += ", \"min\": " + report_number(m.hist.count > 0 ? m.hist.min : 0.0);
        out += ", \"max\": " + report_number(m.hist.count > 0 ? m.hist.max : 0.0);
        out += ", \"mean\": " + report_number(m.hist.mean());
        out += ", \"p50\": " + report_number(m.hist.quantile(0.50));
        out += ", \"p95\": " + report_number(m.hist.quantile(0.95));
        out += ", \"p99\": " + report_number(m.hist.quantile(0.99));
        // Sparse buckets: {"<index>": count} for the non-empty ones only.
        out += ", \"buckets\": {";
        bool first_bucket = true;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          if (m.hist.buckets[static_cast<std::size_t>(b)] == 0) continue;
          if (!first_bucket) out += ", ";
          first_bucket = false;
          out += '"';
          out += std::to_string(b);
          out += "\": ";
          out += std::to_string(m.hist.buckets[static_cast<std::size_t>(b)]);
        }
        out += "}}";
        break;
      }
    }
  }
  return out + "}";
}

std::string prometheus_metric_name(std::string_view name) {
  std::string out = "tpi_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

namespace {

std::string fmt_prometheus_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    const std::string name = prometheus_metric_name(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(m.count) + "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + fmt_prometheus_double(m.value) + "\n";
        break;
      case MetricKind::kHistogram:
        out += "# TYPE " + name + " summary\n";
        out += name + "{quantile=\"0.5\"} " +
               fmt_prometheus_double(m.hist.quantile(0.50)) + "\n";
        out += name + "{quantile=\"0.95\"} " +
               fmt_prometheus_double(m.hist.quantile(0.95)) + "\n";
        out += name + "{quantile=\"0.99\"} " +
               fmt_prometheus_double(m.hist.quantile(0.99)) + "\n";
        out += name + "_sum " + fmt_prometheus_double(m.hist.sum) + "\n";
        out += name + "_count " + std::to_string(m.hist.count) + "\n";
        out += name + "_min " +
               fmt_prometheus_double(m.hist.count > 0 ? m.hist.min : 0.0) + "\n";
        out += name + "_max " +
               fmt_prometheus_double(m.hist.count > 0 ? m.hist.max : 0.0) + "\n";
        break;
    }
  }
  return out;
}

double peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // bytes on macOS
#else
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return 0.0;
#endif
}

}  // namespace tpi
