#include "par/partition.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dt::par {

std::vector<Window> make_windows(std::int32_t n_bins, int n_windows,
                                 double overlap) {
  DT_CHECK_MSG(n_bins >= 1, "n_bins must be >= 1, got " << n_bins);
  DT_CHECK_MSG(n_windows >= 1, "n_windows must be >= 1, got " << n_windows);
  DT_CHECK_MSG(overlap >= 0.0 && overlap < 1.0,
               "overlap must be in [0, 1), got " << overlap);
  if (n_windows == 1) return {Window{0, n_bins - 1}};

  // n_bins = w + (n_windows - 1) * w * (1 - overlap)  =>  solve for w.
  const double stride_frac = 1.0 - overlap;
  const double w = static_cast<double>(n_bins) /
                   (1.0 + (n_windows - 1) * stride_frac);
  const double stride = w * stride_frac;
  DT_CHECK_MSG(w >= 4.0, "windows too narrow: " << w
                                                << " bins; reduce n_windows "
                                                   "or increase n_bins");

  std::vector<Window> windows;
  windows.reserve(static_cast<std::size_t>(n_windows));
  for (int k = 0; k < n_windows; ++k) {
    const auto lo = static_cast<std::int32_t>(
        std::llround(static_cast<double>(k) * stride));
    auto hi = static_cast<std::int32_t>(
        std::llround(static_cast<double>(k) * stride + w)) - 1;
    if (k == n_windows - 1) hi = n_bins - 1;
    DT_CHECK(lo >= 0 && hi < n_bins && lo < hi);
    windows.push_back(Window{lo, hi});
  }

  for (std::size_t k = 1; k < windows.size(); ++k) {
    const std::int32_t shared =
        windows[k - 1].hi_bin - windows[k].lo_bin + 1;
    DT_CHECK_MSG(shared >= 2, "adjacent windows " << k - 1 << "/" << k
                                                  << " overlap in " << shared
                                                  << " bins (<2)");
  }
  return windows;
}

}  // namespace dt::par
