// Ablation (§5 / Cheng & Lin [2]): timing-driven TPI. A pre-TPI layout and
// timing analysis identify nets with small slack; test points are excluded
// from them. The paper argues this is feasible but trades away part of the
// fault-coverage / pattern-count gain — quantified here.
#include "bench_common.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();

  std::printf("=== Ablation: timing-driven TPI (exclude small-slack nets) ===\n\n");

  const CircuitProfile profile = bench_profiles().front();  // s38417

  struct Case {
    const char* name;
    double pct;
    bool timing_driven;
  };
  const Case cases[] = {
      {"no TP", 0.0, false},
      {"plain TPI 2%", 2.0, false},
      {"timing-driven TPI 2%", 2.0, true},
  };
  std::vector<SweepJob> jobs;
  for (const Case& c : cases) {
    SweepJob job;
    job.label = c.name;
    job.profile = profile;
    job.options = bench_config().options;
    job.scale = bench_scale();
    job.options.tp_percent = c.pct;
    job.options.timing_driven_tpi = c.timing_driven;
    job.options.timing_exclude_slack_ps = 1500.0;
    jobs.push_back(std::move(job));
  }
  const SweepReport report = run_jobs(std::move(jobs));

  TextTable table({"mode", "#TP", "#TP_cp", "T_cp(ps)", "dTcp vs none(%)",
                   "SAF patterns", "FC(%)"});
  const double base_tcp = report.cells.front().result.sta.worst.t_cp_ps;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const FlowResult& r = report.cells[i].result;
    table.add_row({cases[i].name, fmt_int(r.num_test_points),
                   fmt_int(r.sta.worst.test_points_on_path),
                   fmt_int(static_cast<long long>(r.sta.worst.t_cp_ps)),
                   cases[i].pct == 0.0
                       ? std::string("-")
                       : fmt_fixed(100.0 * (r.sta.worst.t_cp_ps - base_tcp) /
                                       base_tcp,
                                   2),
                   fmt_int(r.saf_patterns), fmt_fixed(r.fault_coverage_pct, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("§5: \"excluding test points from critical paths lowers the positive\n"
              "effects of TPI on fault coverage and test data\" — the timing-driven\n"
              "row keeps #TP_cp at zero but gives back part of the pattern-count\n"
              "and coverage gain relative to unconstrained TPI.\n");
  return 0;
}
