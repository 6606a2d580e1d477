#include "mc/reweighting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/units.hpp"

namespace dt::mc {

namespace {
constexpr int kMaxIterations = 2000;
constexpr double kTolerance = 1e-8;
}  // namespace

WhamResult wham(const EnergyGrid& grid,
                const std::vector<Histogram>& histograms,
                const std::vector<double>& temperatures) {
  const std::size_t n_temps = temperatures.size();
  DT_CHECK_MSG(n_temps >= 1, "wham: no histograms");
  DT_CHECK_MSG(histograms.size() == n_temps,
               "wham: histogram/temperature count mismatch");
  for (const auto& h : histograms)
    DT_CHECK_MSG(h.grid() == grid, "wham: histogram grid mismatch");
  for (double t : temperatures) DT_CHECK_MSG(t > 0.0, "wham: T <= 0");

  const auto n_bins = static_cast<std::size_t>(grid.n_bins());
  std::vector<double> betas(n_temps);
  std::vector<double> log_n(n_temps);  // ln N_k
  for (std::size_t k = 0; k < n_temps; ++k) {
    betas[k] = units::to_beta(units::Temperature(temperatures[k])).value();
    const auto total = histograms[k].total();
    DT_CHECK_MSG(total > 0, "wham: empty histogram for T index " << k);
    log_n[k] = std::log(static_cast<double>(total));
  }

  // ln of the pooled counts per bin; -inf marks unobserved bins.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> log_counts(n_bins, kNegInf);
  for (std::size_t b = 0; b < n_bins; ++b) {
    std::uint64_t total = 0;
    for (const auto& h : histograms)
      total += h.count(static_cast<std::int32_t>(b));
    if (total > 0) log_counts[b] = std::log(static_cast<double>(total));
  }

  // Self-consistent iteration on f_k = -ln Z_k (f_0 pinned to 0).
  std::vector<double> f(n_temps, 0.0);
  std::vector<double> log_g(n_bins, kNegInf);
  WhamResult result;
  std::vector<double> terms(n_temps);
  std::vector<double> lse_buf;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // ln g(E) given f.
    for (std::size_t b = 0; b < n_bins; ++b) {
      if (log_counts[b] == kNegInf) continue;
      const double e = grid.energy(static_cast<std::int32_t>(b));
      for (std::size_t k = 0; k < n_temps; ++k)
        terms[k] = log_n[k] + f[k] - betas[k] * e;
      log_g[b] = log_counts[b] - log_sum_exp(terms);
    }
    // f_k given ln g.
    double max_delta = 0.0;
    for (std::size_t k = 0; k < n_temps; ++k) {
      lse_buf.clear();
      for (std::size_t b = 0; b < n_bins; ++b) {
        if (log_g[b] == kNegInf) continue;
        lse_buf.push_back(log_g[b] -
                          betas[k] * grid.energy(static_cast<std::int32_t>(b)));
      }
      const double new_f = -log_sum_exp(lse_buf);
      max_delta = std::max(max_delta, std::abs(new_f - f[k]));
      f[k] = new_f;
    }
    // Gauge fix: f_0 = 0 (ln g is only defined up to a constant anyway).
    const double gauge = f[0];
    for (auto& fk : f) fk -= gauge;
    for (auto& lg : log_g)
      if (lg != kNegInf) lg += gauge;
    result.iterations = iter + 1;
    if (max_delta < kTolerance) {
      result.converged = true;
      break;
    }
  }

  result.dos = DensityOfStates(grid);
  for (std::size_t b = 0; b < n_bins; ++b)
    if (log_g[b] != kNegInf)
      result.dos.set(static_cast<std::int32_t>(b), units::LogDoS(log_g[b]));
  result.log_z.assign(n_temps, 0.0);
  for (std::size_t k = 0; k < n_temps; ++k) result.log_z[k] = -f[k];
  return result;
}

}  // namespace dt::mc
