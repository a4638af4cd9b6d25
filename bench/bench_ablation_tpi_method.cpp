// Ablation (§3.1): the hybrid TPI cost function against its COP-only and
// SCOAP-only components. The analysis outcome chooses the method in the
// Philips CAT flow; here all three run on the same circuit to show why the
// hybrid (gain-driven) selection wins on compact pattern count.
#include "bench_common.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();

  std::printf("=== Ablation: TPI selection method (hybrid vs COP vs SCOAP) ===\n\n");

  // Use the s38417 profile at 2% test points — enough to cover the gated
  // hard regions when the selector aims well.
  const CircuitProfile profile = bench_profiles().front();

  struct MethodCase {
    const char* name;
    TpiMethod method;
    double pct;
  };
  const MethodCase cases[] = {
      {"none", TpiMethod::kHybrid, 0.0},
      {"hybrid", TpiMethod::kHybrid, 2.0},
      {"cop", TpiMethod::kCop, 2.0},
      {"scoap", TpiMethod::kScoap, 2.0},
  };
  std::vector<SweepJob> jobs;
  for (const MethodCase& mc : cases) {
    SweepJob job;
    job.label = std::string(profile.name) + "/method=" + mc.name;
    job.profile = profile;
    job.options = bench_config().options;
    job.scale = bench_scale();
    job.options.tp_percent = mc.pct;
    job.options.tpi_method = mc.method;
    job.stages = StageMask::all().without(Stage::kExtract).without(Stage::kSta);
    jobs.push_back(std::move(job));
  }
  const SweepReport report = run_jobs(std::move(jobs));

  TextTable table({"method", "#TP", "FC(%)", "FE(%)", "SAF patterns", "dec. vs none(%)"});
  const int base_patterns = report.cells.front().result.saf_patterns;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const FlowResult& r = report.cells[i].result;
    table.add_row({cases[i].name, fmt_int(r.num_test_points),
                   fmt_fixed(r.fault_coverage_pct, 2),
                   fmt_fixed(r.fault_efficiency_pct, 2), fmt_int(r.saf_patterns),
                   cases[i].pct == 0.0
                       ? std::string("-")
                       : fmt_fixed(100.0 * (base_patterns - r.saf_patterns) /
                                       static_cast<double>(base_patterns),
                                   2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("The hybrid selector evaluates the explicit testability *gain* of a\n"
              "candidate (Seiss-style gradient), so it finds the rare gating\n"
              "enables; raw COP/SCOAP hardness chases unreachable tree internals\n"
              "and buys far less pattern-count reduction per test point.\n");
  return 0;
}
