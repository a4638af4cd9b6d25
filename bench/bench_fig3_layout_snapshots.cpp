// Reproduces Fig. 3: layout after (a) floorplanning, (b) placement and
// (c) routing — written as SVG files plus a terminal summary of each stage.
#include "bench_common.hpp"
#include "circuits/generator.hpp"
#include "layout/clock_tree.hpp"
#include "layout/svg.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"

int main() {
  using namespace tpi;
  using namespace tpi::bench;
  setup_logging();
  const auto lib = make_phl130_library();

  std::printf("=== Figure 3: layout after floorplanning / placement / routing ===\n\n");

  // Use the s38417 profile (scaled) with 2% test points so TSFFs show up
  // red in the placement snapshot.
  CircuitProfile profile = bench_profiles().front();
  auto nl = generate_circuit(*lib, profile);
  TpiOptions tpi_opts;
  tpi_opts.num_test_points =
      static_cast<int>(0.02 * static_cast<double>(nl->flip_flops().size()));
  DesignDB db(*nl);
  insert_test_points(db, tpi_opts);
  ScanOptions scan_opts;
  scan_opts.max_chain_length = profile.max_chain_length;
  scan_opts.max_chains = profile.max_chains;
  insert_scan(*nl);

  FloorplanOptions fpo;
  fpo.target_row_utilization = profile.target_row_utilization;
  const Floorplan fp = make_floorplan(*nl, fpo);
  std::printf("(a) floorplan: %d rows x %.0f um, core %.0f x %.0f um, chip %.0f x %.0f um\n",
              fp.num_rows, fp.row_length_um, fp.core_box.width(), fp.core_box.height(),
              fp.chip_box.width(), fp.chip_box.height());
  write_layout_svg("fig3a_floorplan.svg", *nl, fp, nullptr, nullptr,
                   LayoutStage::kFloorplan);

  Placement pl = place(*nl, fp);
  const ChainPlan plan = plan_chains(*nl, scan_opts, pl.pos);
  stitch_chains(*nl, plan);
  synthesize_clock_trees(*nl, fp, pl);
  const FillerReport fillers = insert_fillers(*nl, fp, pl);
  std::printf("(b) placement: %zu cells placed, HPWL %.0f um, %d filler cells\n",
              nl->num_cells(), pl.total_hpwl(*nl), fillers.cells_added);
  write_layout_svg("fig3b_placement.svg", *nl, fp, &pl, nullptr, LayoutStage::kPlacement);

  assign_io_pads(*nl, fp, pl);
  const RoutingResult routes = route(*nl, fp, pl);
  std::printf("(c) routing: total wire length %.0f um (%.0f um detours, %d overflows)\n",
              routes.total_wire_length_um, routes.detour_length_um,
              routes.overflowed_crossings);
  write_layout_svg("fig3c_routing.svg", *nl, fp, &pl, &routes, LayoutStage::kRouted);

  std::printf("\nwrote fig3a_floorplan.svg, fig3b_placement.svg, fig3c_routing.svg\n"
              "legend: grey=logic, blue=flip-flops, red=test points,\n"
              "green=clock buffers, light grey=fillers; rings: IO/power/ground\n");
  return 0;
}
