#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tpi {
namespace {

TEST(LinearFitTest, ExactLine) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double xi : x) y.push_back(2.5 * xi + 1.0);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFitTest, NoisyLineHasHighR2) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5};
  const std::vector<double> y{0.1, 1.05, 1.9, 3.1, 3.95, 5.05};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFitTest, DegenerateInputs) {
  EXPECT_EQ(fit_linear({}, {}).slope, 0.0);
  EXPECT_EQ(fit_linear({1.0}, {2.0}).slope, 0.0);
  // Vertical spread on constant x: no fit possible.
  const LinearFit fit = fit_linear({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.r_squared, 0.0);
}

TEST(LinearFitTest, FlatDataIsPerfectFlatFit) {
  const LinearFit fit = fit_linear({0, 1, 2, 3}, {5, 5, 5, 5});
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);  // zero residual
}

}  // namespace
}  // namespace tpi
