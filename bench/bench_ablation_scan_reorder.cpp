// Ablation (flow step 3): layout-driven scan chain reordering on/off.
// Reordering assigns scan cells to chains by placement region and orders
// them with a nearest-neighbour tour, minimising scan routing (§3.2).
#include "bench_common.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();

  std::printf("=== Ablation: layout-driven scan chain reordering ===\n\n");

  // Grid: every circuit with reordering off and on (no ATPG, no STA).
  std::vector<SweepJob> jobs;
  for (const CircuitProfile& profile : bench_profiles()) {
    for (const bool reorder : {false, true}) {
      SweepJob job;
      job.label = profile.name + (reorder ? "/reorder=on" : "/reorder=off");
      job.profile = profile;
      job.options = bench_config().options;
      job.scale = bench_scale();
      job.options.layout_driven_reorder = reorder;
      job.stages = StageMask::all()
                       .without(Stage::kReorderAtpg)
                       .without(Stage::kExtract)
                       .without(Stage::kSta);
      jobs.push_back(std::move(job));
    }
  }
  const SweepReport report = run_jobs(std::move(jobs));

  TextTable table({"circuit", "reorder", "scan wire(um)", "total wire(um)", "saved(%)"});
  double base_scan = 0.0;
  for (const SweepCellResult& cell : report.cells) {
    const FlowResult& r = cell.result;
    const bool reorder = cell.job.options.layout_driven_reorder;
    if (!reorder) base_scan = r.scan_wire_length_um;
    table.add_row({cell.job.profile.name, reorder ? "on" : "off",
                   fmt_int(static_cast<long long>(r.scan_wire_length_um)),
                   fmt_int(static_cast<long long>(r.wire_length_um)),
                   reorder ? fmt_fixed(100.0 * (base_scan - r.scan_wire_length_um) /
                                           base_scan,
                                       1)
                           : std::string("-")});
    if (reorder) table.add_separator();
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Step 3 of the paper's flow exists precisely because netlist-order\n"
              "stitching wastes wirelength: \"scan flip-flops are assigned to scan\n"
              "chains using cell placement information, such that the wire length\n"
              "for the scan chains is minimized.\"\n");
  return 0;
}
