#include "util/stats.hpp"

#include <algorithm>

namespace tpi {

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace tpi
