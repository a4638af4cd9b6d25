#include "soc/soc.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "util/trace.hpp"

namespace tpi {
namespace {

/// Budget of the private per-run cache (matches the server default).
constexpr std::size_t kPrivateCacheBytes = std::size_t{256} << 20;

/// Core size ladder: every third repetition of the profile set shrinks, so
/// a big chip mixes large and small cores — the shape rectangle packing
/// actually has to work for.
constexpr double kSizeLadder[] = {1.0, 0.7, 0.5};

}  // namespace

std::vector<SocCoreSpec> soc_core_specs(int cores, double scale) {
  const std::vector<CircuitProfile> base = paper_profiles();
  std::vector<SocCoreSpec> specs;
  specs.reserve(static_cast<std::size_t>(std::max(cores, 0)));
  for (int i = 0; i < cores; ++i) {
    const CircuitProfile& proto = base[static_cast<std::size_t>(i) % base.size()];
    const double factor =
        scale * kSizeLadder[(static_cast<std::size_t>(i) / base.size()) %
                            (sizeof kSizeLadder / sizeof kSizeLadder[0])];
    SocCoreSpec spec;
    spec.profile = scaled(proto, factor);
    spec.profile.name = proto.name;  // scaled() appends "_x<f>"; keep the paper name
    spec.label = "core" + std::to_string(i) + ":" + proto.name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

SocResult SocRunner::run(const CellLibrary& lib, ThreadPool* pool, DesignCache* cache,
                         const std::atomic<bool>* cancel) const {
  SocResult result;
  result.cores = config_.soc.cores;
  result.tam_width = std::max(config_.soc.tam_width, 1);
  result.schedule =
      soc_schedule_from_name(config_.soc.schedule).value_or(SocScheduleMethod::kDiagonal);

  const std::vector<SocCoreSpec> specs = soc_core_specs(result.cores, config_.scale);

  std::unique_ptr<DesignCache> own_cache;
  if (cache == nullptr) {
    own_cache = std::make_unique<DesignCache>(lib, kPrivateCacheBytes);
    cache = own_cache.get();
  }
  std::unique_ptr<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool =
        std::make_unique<ThreadPool>(static_cast<unsigned>(config_.effective_bench_jobs()));
    pool = own_pool.get();
  }

  // Fan the per-core flows out; collect strictly in core order so the
  // merged result is independent of scheduling. future::get() rethrows a
  // core's exception here. Each core task scopes the caller's trace sink,
  // so a traced chip keeps every core's stage spans.
  TraceSink* const sink = scoped_trace_sink();
  std::vector<std::future<FlowResult>> futures;
  futures.reserve(specs.size());
  for (const SocCoreSpec& spec : specs) {
    futures.push_back(pool->submit([&lib, &spec, cache, cancel, sink, this] {
      std::optional<ScopedTraceSink> scope;
      if (sink != nullptr) scope.emplace(*sink);
      const std::shared_ptr<DesignCache::Entry> entry = cache->acquire(spec.profile);
      Netlist nl = entry->netlist();  // private copy; the edit version survives
      FlowEngine engine(nl, spec.profile, config_.options);
      engine.design_db().adopt_views_from(entry->db());
      engine.set_cancel_token(cancel);
      engine.run(config_.stages);
      return engine.result();
    }));
  }

  std::vector<std::vector<WrapperDesign>> candidates;
  candidates.reserve(specs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SocCoreResult core;
    core.label = specs[i].label;
    core.profile_name = specs[i].profile.name;
    core.flow = futures[i].get();
    core.envelope = core_envelope(core.label, specs[i].profile, core.flow);
    result.cancelled = result.cancelled || core.flow.cancelled;
    result.metrics.merge(core.flow.metrics);
    candidates.push_back(pareto_wrappers(core.envelope, result.tam_width));
    result.per_core.push_back(std::move(core));
  }

  const SocSchedule sched = schedule_tests(candidates, result.tam_width, result.schedule);
  const SocSchedule serial =
      schedule_tests(candidates, result.tam_width, SocScheduleMethod::kSerial);
  result.chip_tat_cycles = sched.makespan;
  result.serial_tat_cycles = serial.makespan;
  result.tam_utilization_pct = sched.utilization_pct;
  for (std::size_t i = 0; i < result.per_core.size(); ++i) {
    SocCoreResult& core = result.per_core[i];
    const ScheduledRect& r = sched.rects[i];
    core.width = r.width;
    core.tam_start = r.tam_start;
    core.start_cycle = r.start;
    core.finish_cycle = r.finish;
    core.test_cycles = r.finish - r.start;
    const WrapperDesign chosen = design_wrapper(core.envelope, r.width);
    core.scan_in = chosen.scan_in;
    core.scan_out = chosen.scan_out;
  }

  // Chip-level deterministic metrics ride the merged snapshot, so they
  // reach sweep reports, the ledger and the Prometheus exposition through
  // the existing plumbing.
  MetricsRegistry chip;
  chip.set("soc.cores", result.cores);
  chip.set("soc.tam_width", result.tam_width);
  chip.set("soc.chip_tat_cycles", static_cast<double>(result.chip_tat_cycles));
  chip.set("soc.serial_tat_cycles", static_cast<double>(result.serial_tat_cycles));
  chip.set("soc.tam_utilization_pct", result.tam_utilization_pct);
  for (const SocCoreResult& core : result.per_core) {
    chip.add("soc.patterns_total", static_cast<std::uint64_t>(
                                       std::max(core.envelope.patterns, 0)));
  }
  result.metrics.merge(chip.snapshot());
  return result;
}

JsonValue soc_result_to_json_value(const SocResult& result) {
  JsonValue o{JsonObject{}};
  o.set("cores", result.cores);
  o.set("tam_width", result.tam_width);
  o.set("schedule", soc_schedule_name(result.schedule));
  o.set("chip_tat_cycles", result.chip_tat_cycles);
  o.set("serial_tat_cycles", result.serial_tat_cycles);
  o.set("tam_utilization_pct", result.tam_utilization_pct);
  if (result.cancelled) o.set("cancelled", true);
  JsonArray cores;
  cores.reserve(result.per_core.size());
  for (const SocCoreResult& core : result.per_core) {
    JsonValue c{JsonObject{}};
    c.set("label", core.label);
    c.set("profile", core.profile_name);
    c.set("width", core.width);
    c.set("tam_start", core.tam_start);
    c.set("start", core.start_cycle);
    c.set("finish", core.finish_cycle);
    c.set("test_cycles", core.test_cycles);
    c.set("scan_in", core.scan_in);
    c.set("scan_out", core.scan_out);
    c.set("patterns", core.envelope.patterns);
    c.set("scan_ffs", core.envelope.scan_ffs);
    c.set("chains", core.envelope.chains);
    c.set("fault_coverage_pct", core.flow.fault_coverage_pct);
    cores.push_back(std::move(c));
  }
  o.set("per_core", JsonValue(std::move(cores)));
  const JsonParseResult metrics =
      json_parse(result.metrics.to_json(MetricsSnapshot::kNoRuntime));
  o.set("metrics", metrics.ok ? metrics.value : JsonValue(JsonObject{}));
  return o;
}

std::string soc_result_to_json(const SocResult& result) {
  return soc_result_to_json_value(result).serialise();
}

}  // namespace tpi
