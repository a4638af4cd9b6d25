#include "flow/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <future>
#include <utility>

#include "flow/flow_config.hpp"
#include "flow/flow_json.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tpi {
namespace {

std::string stages_json(const StageTimings& t) {
  std::string out = "{";
  bool first = true;
  for (const Stage s : kAllStages) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += stage_name(s);
    out += "\": ";
    out += report_number(t[s]);
  }
  return out + "}";
}

}  // namespace

std::string SweepReport::to_json() const {
  std::string out = "{\n  \"context\": {\n";
  out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "    \"num_cells\": " + std::to_string(cells.size()) + ",\n";
  out += "    \"wall_ms\": " + report_number(wall_ms) + ",\n";
  out += "    \"cpu_ms\": " + report_number(cpu_ms) + ",\n";
  out += "    \"speedup\": " + report_number(speedup()) + "\n";
  out += "  },\n";
  // Deterministic subset only: this line must be bit-identical at any
  // TPI_BENCH_JOBS / TPI_ATPG_JOBS (the sweep tests diff it verbatim).
  out += "  \"metrics\": " + metrics.to_json(MetricsSnapshot::kNoRuntime) + ",\n";
  out += "  \"benchmarks\": [\n";
  bool first = true;
  for (const SweepCellResult& cell : cells) {
    if (!first) out += ",\n";
    first = false;
    const FlowResult& r = cell.result;
    out += "    {\"name\": \"" + report_escape(cell.job.label) + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + report_number(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"tp_percent\": " + report_number(cell.job.options.tp_percent) + ", ";
    out += "\"num_test_points\": " + std::to_string(r.num_test_points) + ", ";
    out += "\"num_cells\": " + std::to_string(r.num_cells) + ", ";
    out += "\"saf_patterns\": " + std::to_string(r.saf_patterns) + ", ";
    out += "\"chip_area_um2\": " + report_number(r.chip_area_um2) + ", ";
    out += "\"wire_length_um\": " + report_number(r.wire_length_um) + ", ";
    out += "\"t_cp_ps\": " + report_number(r.sta.worst.valid ? r.sta.worst.t_cp_ps : 0.0) + ", ";
    // Conditional keys: stuck-at cells keep the seed's exact layout.
    if (r.atpg.fault_model == FaultModel::kTransition) {
      out += "\"fault_model\": \"transition\", ";
    }
    if (r.at_speed.ran) {
      out += "\"at_speed\": {";
      out += "\"capture_period_ps\": " + report_number(r.at_speed.capture_period_ps) + ", ";
      out += "\"at_speed_coverage_pct\": " + report_number(r.at_speed.at_speed_coverage_pct) + ", ";
      out += "\"slow_speed_coverage_pct\": " +
             report_number(r.at_speed.slow_speed_coverage_pct) + ", ";
      out += "\"coverage_delta_pct\": " + report_number(r.at_speed.coverage_delta_pct()) + ", ";
      out += "\"qualified_faults\": " + std::to_string(r.at_speed.qualified_faults) + "}, ";
    }
    out += "\"stages\": " + stages_json(r.timings) + "}";
  }
  for (const Stage s : kAllStages) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"name\": \"stage_totals/";
    out += stage_name(s);
    out += "\", \"run_type\": \"aggregate\", \"aggregate_name\": \"total\", ";
    out += "\"real_time\": " + report_number(stage_total_ms[static_cast<std::size_t>(s)]) +
           ", \"time_unit\": \"ms\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

SweepOptions SweepOptions::from_config(const FlowConfig& config) {
  SweepOptions opts;
  opts.jobs = config.effective_bench_jobs();
  opts.trace_dir = config.trace_dir;
  opts.ledger = config.ledger;
  return opts;
}

int SweepOptions::effective_jobs() const {
  return jobs > 0 ? jobs : static_cast<int>(ThreadPool::default_concurrency());
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowConfig& config) {
  std::vector<SweepJob> jobs = grid(circuits, tp_percents, config.options, config.stages);
  for (SweepJob& job : jobs) job.scale = config.scale;
  return jobs;
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowOptions& base_options, StageMask stages) {
  std::vector<SweepJob> jobs;
  jobs.reserve(circuits.size() * tp_percents.size());
  for (const CircuitProfile& profile : circuits) {
    for (const double pct : tp_percents) {
      SweepJob job;
      job.label = run_label(profile.name, pct);
      job.profile = profile;
      job.options = base_options;
      job.options.tp_percent = pct;
      job.stages = stages;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

SweepReport SweepRunner::run(const CellLibrary& lib, std::vector<SweepJob> jobs) const {
  SweepReport report;
  report.jobs = effective_jobs();
  report.cells.reserve(jobs.size());

  struct CellOut {
    FlowResult result;
    double wall_ms;
  };

  const bool progress = opts_.progress;
  const std::string& trace_dir = opts_.trace_dir;
  const RunRecorder recorder(opts_.ledger);

  const auto sweep_t0 = std::chrono::steady_clock::now();
  std::vector<std::future<CellOut>> futures;
  futures.reserve(jobs.size());
  {
    ThreadPool pool(static_cast<unsigned>(report.jobs));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SweepJob& job = jobs[i];
      futures.push_back(pool.submit([&lib, &job, &trace_dir, i, progress] {
        if (progress) std::fprintf(stderr, "[sweep] %s...\n", job.label.c_str());
        const RunRecorder::Trace trace(!trace_dir.empty(), i + 1, job.label);
        const auto t0 = std::chrono::steady_clock::now();
        FlowEngine engine(lib, job.profile, job.options);
        trace.run([&] { engine.run(job.stages); });
        trace.write(trace_dir, sanitize_trace_label(job.label));
        return CellOut{engine.result(), ms_since(t0)};
      }));
    }
    // Collect in submission order so the report layout matches the grid
    // regardless of scheduling; future::get() rethrows task exceptions.
    // Ledger lines are appended here too, so their order is deterministic.
    for (std::size_t i = 0; i < futures.size(); ++i) {
      CellOut out = futures[i].get();
      if (recorder.has_ledger()) {
        FlowConfig cell_cfg;
        cell_cfg.profile = jobs[i].profile.name;
        cell_cfg.options = jobs[i].options;
        cell_cfg.stages = jobs[i].stages;
        cell_cfg.scale = jobs[i].scale;
        recorder.append(jobs[i].label, cell_cfg, flow_result_to_json_value(out.result));
      }
      report.cells.push_back(
          {std::move(jobs[i]), std::move(out.result), out.wall_ms});
    }
  }
  report.wall_ms = ms_since(sweep_t0);
  for (const SweepCellResult& cell : report.cells) {
    report.cpu_ms += cell.wall_ms;
    for (const Stage s : kAllStages) {
      report.stage_total_ms[static_cast<std::size_t>(s)] += cell.result.timings[s];
    }
    report.metrics.merge(cell.result.metrics);
  }
  return report;
}

}  // namespace tpi
