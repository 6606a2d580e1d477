#include "mc/dos.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "common/math.hpp"

namespace dt::mc {

DensityOfStates::DensityOfStates(const EnergyGrid& grid)
    : grid_(grid),
      log_g_(static_cast<std::size_t>(grid.n_bins()), 0.0),
      visited_(static_cast<std::size_t>(grid.n_bins()), 0) {}

void DensityOfStates::add(std::int32_t bin, units::LogWeight delta_log_f) {
  auto i = static_cast<std::size_t>(bin);
  DT_CHECK(bin >= 0 && bin < grid_.n_bins());
  // Finite-ln-g is a class invariant: a NaN/Inf entering one fragment
  // would silently poison every stitch/normalize/thermo downstream.
  DT_CHECK_MSG(std::isfinite(delta_log_f.value()),
               "DOS add: non-finite ln f increment " << delta_log_f.value());
  log_g_[i] += delta_log_f.value();
  visited_[i] = 1;
}

void DensityOfStates::set(std::int32_t bin, units::LogDoS value) {
  auto i = static_cast<std::size_t>(bin);
  DT_CHECK(bin >= 0 && bin < grid_.n_bins());
  DT_CHECK_MSG(std::isfinite(value.value()),
               "DOS set: non-finite ln g " << value.value() << " at bin "
                                           << bin);
  log_g_[i] = value.value();
  visited_[i] = 1;
}

std::int32_t DensityOfStates::num_visited() const {
  return static_cast<std::int32_t>(
      std::count(visited_.begin(), visited_.end(), std::uint8_t{1}));
}

std::int32_t DensityOfStates::first_visited() const {
  for (std::int32_t b = 0; b < grid_.n_bins(); ++b)
    if (visited_[static_cast<std::size_t>(b)]) return b;
  return -1;
}

std::int32_t DensityOfStates::last_visited() const {
  for (std::int32_t b = grid_.n_bins() - 1; b >= 0; --b)
    if (visited_[static_cast<std::size_t>(b)]) return b;
  return -1;
}

void DensityOfStates::shift(units::LogWeight delta) {
  for (std::int32_t b = 0; b < grid_.n_bins(); ++b)
    if (visited_[static_cast<std::size_t>(b)])
      log_g_[static_cast<std::size_t>(b)] += delta.value();
}

void DensityOfStates::normalize(units::LogWeight log_total_states) {
  std::vector<double> vals;
  for (std::int32_t b = 0; b < grid_.n_bins(); ++b)
    if (visited_[static_cast<std::size_t>(b)])
      vals.push_back(log_g_[static_cast<std::size_t>(b)]);
  DT_CHECK_MSG(!vals.empty(), "cannot normalize an empty DOS");
  shift(units::LogWeight(log_total_states.value() - log_sum_exp(vals)));
}

double DensityOfStates::log_range() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::int32_t b = 0; b < grid_.n_bins(); ++b) {
    if (!visited_[static_cast<std::size_t>(b)]) continue;
    lo = std::min(lo, log_g_[static_cast<std::size_t>(b)]);
    hi = std::max(hi, log_g_[static_cast<std::size_t>(b)]);
  }
  if (hi < lo) return 0.0;
  return hi - lo;
}

DensityOfStates DensityOfStates::stitch(
    const std::vector<DensityOfStates>& parts) {
  DT_CHECK(!parts.empty());
  const EnergyGrid& grid = parts.front().grid();
  for (const auto& p : parts)
    DT_CHECK_MSG(p.grid() == grid, "stitch requires a shared grid");

  // Order fragments by their first visited bin.
  std::vector<const DensityOfStates*> ordered;
  ordered.reserve(parts.size());
  for (const auto& p : parts) {
    DT_CHECK_MSG(p.first_visited() >= 0, "stitch: empty fragment");
    // Defense in depth against fragments deserialised or assembled
    // outside the class invariant (add/set reject non-finite values).
    for (std::int32_t b = p.first_visited(); b <= p.last_visited(); ++b)
      DT_CHECK_MSG(!p.visited(b) || std::isfinite(p.log_g(b).value()),
                   "stitch: non-finite ln g at bin " << b);
    ordered.push_back(&p);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const DensityOfStates* a, const DensityOfStates* b) {
              return a->first_visited() < b->first_visited();
            });

  DensityOfStates out(grid);
  // Running copy of the already-stitched curve; offsets accumulate.
  std::vector<double> offset(ordered.size(), 0.0);
  for (std::size_t k = 1; k < ordered.size(); ++k) {
    const DensityOfStates& prev = *ordered[k - 1];
    const DensityOfStates& cur = *ordered[k];
    const std::int32_t lo = std::max(prev.first_visited(), cur.first_visited());
    const std::int32_t hi = std::min(prev.last_visited(), cur.last_visited());

    // Find the overlap bin where the discrete slopes agree best. Sparse
    // spectra (few visitable levels) may not offer adjacent visited pairs;
    // then fall back to a least-squares offset over all commonly visited
    // bins (>= 1 required).
    double best_mismatch = std::numeric_limits<double>::infinity();
    std::int32_t best_bin = lo;
    for (std::int32_t b = lo; b < hi; ++b) {
      if (!prev.visited(b) || !prev.visited(b + 1) || !cur.visited(b) ||
          !cur.visited(b + 1))
        continue;
      const double slope_prev = (prev.log_g(b + 1) - prev.log_g(b)).value();
      const double slope_cur = (cur.log_g(b + 1) - cur.log_g(b)).value();
      const double mismatch = std::abs(slope_prev - slope_cur);
      if (mismatch < best_mismatch) {
        best_mismatch = mismatch;
        best_bin = b;
      }
    }
    if (!std::isfinite(best_mismatch)) {
      double acc = 0.0;
      int n = 0;
      for (std::int32_t b = std::max<std::int32_t>(0, lo);
           b <= hi; ++b) {
        if (!prev.visited(b) || !cur.visited(b)) continue;
        acc += (prev.log_g(b).value() + offset[k - 1]) - cur.log_g(b).value();
        ++n;
      }
      DT_CHECK_MSG(n > 0, "stitch: fragments " << k - 1 << " and " << k
                                               << " share no visited bins");
      offset[k] = acc / n;
    } else {
      offset[k] =
          (prev.log_g(best_bin).value() + offset[k - 1]) -
          cur.log_g(best_bin).value();
    }
  }

  // Average aligned fragments bin-wise.
  std::vector<double> sum(static_cast<std::size_t>(grid.n_bins()), 0.0);
  std::vector<int> hits(static_cast<std::size_t>(grid.n_bins()), 0);
  for (std::size_t k = 0; k < ordered.size(); ++k) {
    for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
      if (!ordered[k]->visited(b)) continue;
      sum[static_cast<std::size_t>(b)] +=
          ordered[k]->log_g(b).value() + offset[k];
      ++hits[static_cast<std::size_t>(b)];
    }
  }
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    const auto i = static_cast<std::size_t>(b);
    if (hits[i] > 0) out.set(b, units::LogDoS(sum[i] / hits[i]));
  }
  return out;
}

void DensityOfStates::save(std::ostream& os) const {
  os << grid_.e_min() << ' ' << grid_.e_max() << ' ' << grid_.n_bins()
     << '\n';
  for (std::int32_t b = 0; b < grid_.n_bins(); ++b)
    if (visited_[static_cast<std::size_t>(b)])
      os << b << ' ' << grid_.energy(b) << ' '
         << log_g_[static_cast<std::size_t>(b)] << '\n';
}

DensityOfStates DensityOfStates::load(std::istream& is) {
  double e_min = 0.0, e_max = 0.0;
  std::int32_t n_bins = 0;
  DT_CHECK_MSG(static_cast<bool>(is >> e_min >> e_max >> n_bins),
               "DOS load: bad header");
  DensityOfStates dos(EnergyGrid(e_min, e_max, n_bins));
  std::int32_t bin = 0;
  double energy = 0.0, lg = 0.0;
  while (is >> bin >> energy >> lg) dos.set(bin, units::LogDoS(lg));
  // The loop must stop at end-of-stream, not at a malformed entry:
  // stream extraction rejects "nan"/"inf" tokens, and silently
  // truncating there would drop bins instead of surfacing corruption.
  DT_CHECK_MSG(is.eof(), "DOS load: malformed entry after "
                             << dos.num_visited() << " bins");
  return dos;
}

}  // namespace dt::mc
