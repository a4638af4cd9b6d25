#include "layout/svg.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(SvgTest, RendersAllThreeStages) {
  auto nl = generate_circuit(lib(), test::tiny_profile(55));
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement pl = place(*nl, fp);
  const RoutingResult routes = route(*nl, fp, pl);

  const std::string floorplan_svg =
      render_layout_svg(*nl, fp, nullptr, nullptr, LayoutStage::kFloorplan);
  const std::string placed_svg =
      render_layout_svg(*nl, fp, &pl, nullptr, LayoutStage::kPlacement);
  const std::string routed_svg =
      render_layout_svg(*nl, fp, &pl, &routes, LayoutStage::kRouted);

  for (const std::string* svg : {&floorplan_svg, &placed_svg, &routed_svg}) {
    EXPECT_NE(svg->find("<svg"), std::string::npos);
    EXPECT_NE(svg->find("</svg>"), std::string::npos);
  }
  // Placement adds cell rectangles; routing adds polylines.
  EXPECT_GT(placed_svg.size(), floorplan_svg.size());
  EXPECT_NE(routed_svg.find("polyline"), std::string::npos);
  EXPECT_EQ(floorplan_svg.find("polyline"), std::string::npos);
}

TEST(SvgTest, WritesFile) {
  auto nl = generate_circuit(lib(), test::tiny_profile(56));
  const Floorplan fp = make_floorplan(*nl, {});
  const std::string path = ::testing::TempDir() + "/fp.svg";
  EXPECT_TRUE(write_layout_svg(path, *nl, fp, nullptr, nullptr, LayoutStage::kFloorplan));
  EXPECT_FALSE(write_layout_svg("/nonexistent-dir/fp.svg", *nl, fp, nullptr, nullptr,
                                LayoutStage::kFloorplan));
}

}  // namespace
}  // namespace tpi
