// Timing explorer: run the complete Fig. 2 flow on a circuit with and
// without test points and print a Pearl-style critical-path report with the
// eq. (3) decomposition, per clock domain.
//
//   ./build/examples/timing_report [s38417|circuit1|p26909] [scale] [tp%]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "flow/flow.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

void print_path(const tpi::FlowResult& r, const char* label) {
  using namespace tpi;
  std::printf("--- %s ---\n", label);
  for (std::size_t d = 0; d < r.sta.per_domain.size(); ++d) {
    const CriticalPath& cp = r.sta.per_domain[d];
    if (!cp.valid) continue;
    std::printf("clock domain %zu: T_cp = %.0f ps  (F_max = %.1f MHz)\n", d, cp.t_cp_ps,
                cp.fmax_mhz());
    std::printf("  T_wires=%.0f  T_intrinsic=%.0f  T_load-dep=%.0f  T_setup=%.0f  "
                "T_skew=%.0f   [eq. 3]\n",
                cp.t_wires_ps, cp.t_intrinsic_ps, cp.t_load_dep_ps, cp.t_setup_ps,
                cp.t_skew_ps);
    std::printf("  cells on path: %d (%d test point%s)\n", cp.logic_cells_on_path,
                cp.test_points_on_path, cp.test_points_on_path == 1 ? "" : "s");
  }
  std::printf("slow nodes (extrapolated lookups): %d\n\n", r.sta.slow_nodes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tpi;
  set_log_level(LogLevel::kInfo);
  const auto lib = make_phl130_library();

  CircuitProfile profile = s38417_profile();
  if (argc > 1 && std::strcmp(argv[1], "circuit1") == 0) profile = circuit1_profile();
  if (argc > 1 && std::strcmp(argv[1], "p26909") == 0) profile = p26909_profile();
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;
  const double tp_percent = argc > 3 ? std::atof(argv[3]) : 2.0;
  if (scale != 1.0) {
    const std::string keep = profile.name;
    profile = scaled(profile, scale);
    profile.name = keep;
  }

  // Timing only: mask off the ATPG stage; the scan chains are still
  // stitched, so the layout matches a full flow's.
  const StageMask timing_stages = StageMask::all().without(Stage::kReorderAtpg);

  FlowOptions base_opts;
  FlowEngine base_engine(*lib, profile, base_opts);
  const FlowResult base = base_engine.run(timing_stages);

  FlowOptions tp_opts = base_opts;
  tp_opts.tp_percent = tp_percent;
  FlowEngine tp_engine(*lib, profile, tp_opts);
  const FlowResult with_tp = tp_engine.run(timing_stages);

  std::printf("\n=== %s: static timing before/after TPI ===\n\n", profile.name.c_str());
  print_path(base, "without test points");
  char label[64];
  std::snprintf(label, sizeof label, "with %.1f%% test points (%d TSFFs)", tp_percent,
                with_tp.num_test_points);
  print_path(with_tp, label);

  const double delta = 100.0 *
                       (with_tp.sta.worst.t_cp_ps - base.sta.worst.t_cp_ps) /
                       base.sta.worst.t_cp_ps;
  std::printf("worst-path delta: %+.2f%% (paper §6: 1%% TP may cost >=5%% in\n"
              "performance when no timing optimisation is performed)\n",
              delta);

  std::printf("\nflow stage wall clock (with-TP run):");
  for (const Stage s : kAllStages) {
    if (with_tp.timings.stage_ran(s)) {
      std::printf("  %s %.0fms", stage_name(s), with_tp.timings[s]);
    }
  }
  std::printf("  (total %.0fms)\n", with_tp.timings.total_ms());
  return 0;
}
