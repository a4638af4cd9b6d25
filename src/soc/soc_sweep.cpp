#include "soc/soc_sweep.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "util/json.hpp"

namespace tpi {

std::vector<SocSweepJob> SocSweepRunner::grid(const std::vector<int>& cores,
                                              const std::vector<int>& tam_widths,
                                              const std::vector<double>& tp_percents,
                                              const FlowConfig& config) {
  std::vector<SocSweepJob> jobs;
  jobs.reserve(cores.size() * tam_widths.size() * tp_percents.size());
  for (const int n : cores) {
    for (const int w : tam_widths) {
      for (const double pct : tp_percents) {
        // Process settings (jobs, trace_dir, ...) stay out, so the ledger
        // fingerprint of a cell does not depend on how the sweep was run.
        SocSweepJob job;
        job.label = soc_run_label(n, w, pct);
        job.config.scale = config.scale;
        job.config.options = config.options;
        job.config.options.tp_percent = pct;
        job.config.stages = config.stages;
        job.config.soc = {n, w, config.soc.schedule};
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

SocSweepReport SocSweepRunner::run(const CellLibrary& lib,
                                   std::vector<SocSweepJob> jobs) const {
  SocSweepReport report;
  report.jobs = opts_.effective_jobs();
  report.cells.reserve(jobs.size());
  const RunRecorder recorder(opts_.ledger);

  // One pool + one cache across the whole grid; cells run on this thread,
  // so the pool only ever executes leaf (core-flow) tasks.
  ThreadPool pool(static_cast<unsigned>(report.jobs));
  DesignCache cache(lib, std::size_t{256} << 20);

  const auto sweep_t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SocSweepJob& job = jobs[i];
    if (opts_.progress) std::fprintf(stderr, "[soc-sweep] %s...\n", job.label.c_str());
    const RunRecorder::Trace trace(!opts_.trace_dir.empty(), i + 1, job.label);
    const auto t0 = std::chrono::steady_clock::now();
    const SocRunner runner(job.config);
    SocResult result;
    trace.run([&] { result = runner.run(lib, &pool, &cache); });
    const double wall = ms_since(t0);
    trace.write(opts_.trace_dir, sanitize_trace_label(job.label));
    if (recorder.has_ledger()) {
      recorder.append(job.label, job.config, soc_result_to_json_value(result));
    }
    report.cells.push_back({std::move(job), std::move(result), wall});
  }
  report.wall_ms = ms_since(sweep_t0);
  for (const SocSweepCellResult& cell : report.cells) {
    report.cpu_ms += cell.wall_ms;
    report.metrics.merge(cell.result.metrics);
  }
  return report;
}

std::string SocSweepReport::to_json() const {
  std::string out = "{\n  \"context\": {\n";
  out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "    \"num_cells\": " + std::to_string(cells.size()) + ",\n";
  out += "    \"wall_ms\": " + report_number(wall_ms) + ",\n";
  out += "    \"cpu_ms\": " + report_number(cpu_ms) + "\n";
  out += "  },\n";
  // Deterministic subset: bit-identical at any job count / SIMD backend.
  out += "  \"metrics\": " + metrics.to_json(MetricsSnapshot::kNoRuntime) + ",\n";
  out += "  \"benchmarks\": [\n";
  bool first = true;
  for (const SocSweepCellResult& cell : cells) {
    if (!first) out += ",\n";
    first = false;
    const SocResult& r = cell.result;
    out += "    {\"name\": \"" + report_escape(cell.job.label) + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + report_number(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"cores\": " + std::to_string(r.cores) + ", ";
    out += "\"tam_width\": " + std::to_string(r.tam_width) + ", ";
    out += "\"tp_percent\": " + report_number(cell.job.config.options.tp_percent) + ", ";
    out += "\"schedule\": \"" + std::string(soc_schedule_name(r.schedule)) + "\", ";
    out += "\"chip_tat_cycles\": " + std::to_string(r.chip_tat_cycles) + ", ";
    out += "\"serial_tat_cycles\": " + std::to_string(r.serial_tat_cycles) + ", ";
    out += "\"tam_utilization_pct\": " + report_number(r.tam_utilization_pct) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace tpi
