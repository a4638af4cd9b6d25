// Layout gallery: run the physical half of the flow (floorplan, placement,
// scan stitching, clock trees, fillers, routing) on a chosen circuit and
// emit SVG snapshots of every stage plus an area report.
//
//   ./build/examples/layout_gallery [s38417|circuit1|p26909] [scale] [tp%]
//
// Defaults: s38417 at scale 0.25 with 2% test points (fast to render).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "circuits/generator.hpp"
#include "layout/clock_tree.hpp"
#include "layout/svg.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace tpi;
  set_log_level(LogLevel::kInfo);
  const auto lib = make_phl130_library();

  CircuitProfile profile = s38417_profile();
  if (argc > 1 && std::strcmp(argv[1], "circuit1") == 0) profile = circuit1_profile();
  if (argc > 1 && std::strcmp(argv[1], "p26909") == 0) profile = p26909_profile();
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;
  const double tp_percent = argc > 3 ? std::atof(argv[3]) : 2.0;
  const std::string base = profile.name;
  if (scale != 1.0) {
    const std::string keep = profile.name;
    profile = scaled(profile, scale);
    profile.name = keep;
  }

  auto nl = generate_circuit(*lib, profile);
  TpiOptions tpi_opts;
  tpi_opts.num_test_points = static_cast<int>(
      tp_percent / 100.0 * static_cast<double>(nl->flip_flops().size()));
  DesignDB db(*nl);
  insert_test_points(db, tpi_opts);
  ScanOptions scan_opts;
  scan_opts.max_chain_length = profile.max_chain_length;
  scan_opts.max_chains = profile.max_chains;
  insert_scan(*nl, scan_opts);

  FloorplanOptions fpo;
  fpo.target_row_utilization = profile.target_row_utilization;
  const Floorplan fp = make_floorplan(*nl, fpo);
  write_layout_svg(base + "_floorplan.svg", *nl, fp, nullptr, nullptr,
                   LayoutStage::kFloorplan);

  Placement pl = place(*nl, fp, {});
  std::vector<std::pair<double, double>> pos(nl->num_cells());
  for (std::size_t c = 0; c < pos.size(); ++c) pos[c] = {pl.pos[c].x, pl.pos[c].y};
  ChainPlan plan = plan_chains(*nl, scan_opts, pos);
  reorder_chains(plan, pos);
  stitch_chains(*nl, plan);
  const CtsReport cts = synthesize_clock_trees(*nl, fp, pl, {});
  const FillerReport fillers = insert_fillers(*nl, fp, pl);
  write_layout_svg(base + "_placement.svg", *nl, fp, &pl, nullptr,
                   LayoutStage::kPlacement);

  assign_io_pads(*nl, fp, pl);
  const RoutingResult routes = route(*nl, fp, pl);
  write_layout_svg(base + "_routing.svg", *nl, fp, &pl, &routes, LayoutStage::kRouted);

  const Netlist::Stats stats = nl->stats();
  std::printf("\n=== %s (scale %.2f, %d test points) ===\n", base.c_str(), scale,
              tpi_opts.num_test_points);
  std::printf("cells           : %zu (+%d clock buffers, %d fillers)\n", stats.cells,
              cts.buffers_added, fillers.cells_added);
  std::printf("rows            : %d x %.1f um\n", fp.num_rows, fp.row_length_um);
  std::printf("core area       : %.0f um^2 (aspect %.2f)\n", fp.core_area_um2(),
              fp.aspect_ratio());
  std::printf("chip area       : %.0f um^2\n", fp.chip_area_um2());
  std::printf("filler area     : %.0f um^2 (%.2f%% of core)\n", fillers.area_um2,
              100.0 * fillers.area_um2 / fp.core_area_um2());
  std::printf("wire length     : %.0f um (%.0f um congestion detours)\n",
              routes.total_wire_length_um, routes.detour_length_um);
  std::printf("scan chains     : %d (l_max %d)\n", plan.num_chains, plan.max_length);
  std::printf("snapshots       : %s_{floorplan,placement,routing}.svg\n", base.c_str());
  return 0;
}
