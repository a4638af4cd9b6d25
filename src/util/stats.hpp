// Small statistics helpers shared by the analysis and reporting code.
#pragma once

#include <vector>

namespace tpi {

/// Ordinary least-squares fit y = a + b*x; used by benches to check the
/// paper's "increases nearly linearly" claims (R^2 close to 1).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace tpi
