// Quickstart: the complete DfT + layout flow on a small synthetic circuit.
//
// Generates a scaled-down version of the paper's s38417 test case, runs the
// Fig. 2 flow twice through the staged FlowEngine — without test points and
// with 2% test points — stepping it one stage at a time to narrate each, and
// prints the headline metrics of all three tables side by side plus the
// per-stage wall-clock breakdown.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "circuits/generator.hpp"
#include "flow/flow.hpp"
#include "util/log.hpp"

int main() {
  using namespace tpi;
  set_log_level(LogLevel::kWarn);

  const auto lib = make_phl130_library();
  CircuitProfile profile = scaled(s38417_profile(), 0.10);
  profile.name = "s38417_mini";

  auto run_at = [&](double tp_percent) {
    FlowOptions opts;
    opts.tp_percent = tp_percent;
    std::printf("%s @ %.0f%% test points:\n", profile.name.c_str(), tp_percent);
    FlowEngine engine(*lib, profile, opts);
    for (const Stage s : kAllStages) {  // the six stages, one line each
      if (!StageMask::all().has(s) || !engine.run_stage(s)) continue;
      std::printf("  [%d/6] %-15s %7.1f ms  (%zu cells)\n", static_cast<int>(s) + 1,
                  stage_name(s), engine.result().timings[s], engine.netlist().num_cells());
    }
    return engine.result();
  };

  const FlowResult base = run_at(0.0);
  const FlowResult with_tp = run_at(2.0);

  auto pct = [](double now, double before) {
    return before > 0 ? 100.0 * (now - before) / before : 0.0;
  };

  std::printf("\n%-28s %14s %14s %9s\n", "metric", "no TP", "2% TP", "delta%");
  std::printf("%-28s %14d %14d\n", "test points", base.num_test_points,
              with_tp.num_test_points);
  std::printf("%-28s %14d %14d\n", "scan flip-flops", base.num_ffs, with_tp.num_ffs);
  std::printf("%-28s %14lld %14lld %+8.1f\n", "stuck-at faults",
              static_cast<long long>(base.num_faults),
              static_cast<long long>(with_tp.num_faults),
              pct(static_cast<double>(with_tp.num_faults), static_cast<double>(base.num_faults)));
  std::printf("%-28s %14.2f %14.2f\n", "fault coverage (%)", base.fault_coverage_pct,
              with_tp.fault_coverage_pct);
  std::printf("%-28s %14d %14d %+8.1f\n", "ATPG patterns", base.saf_patterns,
              with_tp.saf_patterns,
              pct(with_tp.saf_patterns, base.saf_patterns));
  std::printf("%-28s %14lld %14lld %+8.1f\n", "test data volume (bits)",
              static_cast<long long>(base.tdv_bits), static_cast<long long>(with_tp.tdv_bits),
              pct(static_cast<double>(with_tp.tdv_bits), static_cast<double>(base.tdv_bits)));
  std::printf("%-28s %14.0f %14.0f %+8.2f\n", "chip area (um^2)", base.chip_area_um2,
              with_tp.chip_area_um2, pct(with_tp.chip_area_um2, base.chip_area_um2));
  std::printf("%-28s %14.0f %14.0f %+8.2f\n", "wire length (um)", base.wire_length_um,
              with_tp.wire_length_um, pct(with_tp.wire_length_um, base.wire_length_um));
  if (base.sta.worst.valid && with_tp.sta.worst.valid) {
    std::printf("%-28s %14.0f %14.0f %+8.2f\n", "critical path (ps)", base.sta.worst.t_cp_ps,
                with_tp.sta.worst.t_cp_ps,
                pct(with_tp.sta.worst.t_cp_ps, base.sta.worst.t_cp_ps));
    std::printf("%-28s %14.1f %14.1f\n", "Fmax (MHz)", base.sta.worst.fmax_mhz(),
                with_tp.sta.worst.fmax_mhz());
    std::printf("%-28s %14d %14d\n", "test points on crit. path", 0,
                with_tp.sta.worst.test_points_on_path);
  }
  std::printf("\nDone. See DESIGN.md for the full experiment index.\n");
  return 0;
}
