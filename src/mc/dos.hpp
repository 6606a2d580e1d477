// Density-of-states container: ln g(E) on an EnergyGrid plus a visited
// mask (bins never reached carry no information, not ln g = 0).
//
// Wang-Landau determines ln g only up to an additive constant; normalize()
// anchors the fragment so that log-sum over visited bins equals the exact
// ln(total state count) of the sampled ensemble, after which absolute
// entropies/free energies are meaningful. stitch() joins overlapping
// window fragments (replica-exchange Wang-Landau) into one global curve.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mc/energy_grid.hpp"

namespace dt::mc {

class DensityOfStates {
 public:
  DensityOfStates() = default;
  explicit DensityOfStates(const EnergyGrid& grid);

  [[nodiscard]] const EnergyGrid& grid() const { return grid_; }

  [[nodiscard]] bool visited(std::int32_t bin) const {
    return visited_[static_cast<std::size_t>(bin)];
  }
  [[nodiscard]] units::LogDoS log_g(std::int32_t bin) const {
    return units::LogDoS(log_g_[static_cast<std::size_t>(bin)]);
  }

  /// Reinforce ln g at `bin` by the modification factor ln f.
  void add(std::int32_t bin, units::LogWeight delta_log_f);
  void set(std::int32_t bin, units::LogDoS value);

  [[nodiscard]] std::int32_t num_visited() const;
  /// First/last visited bin; -1 when nothing is visited.
  [[nodiscard]] std::int32_t first_visited() const;
  [[nodiscard]] std::int32_t last_visited() const;

  /// Shift all visited ln g by a constant.
  void shift(units::LogWeight delta);

  /// Anchor so that log-sum-exp over visited bins == log_total_states
  /// (the ln of the exact state count of the sampled ensemble).
  void normalize(units::LogWeight log_total_states);

  /// Span of ln g over visited bins (the paper's "range of ~e^10,000").
  [[nodiscard]] double log_range() const;

  /// Join window fragments. Fragments must share this->grid(); each pair
  /// of adjacent (by energy) fragments must overlap in >= 2 visited bins.
  /// The offset of each fragment is chosen where the local slopes
  /// d(ln g)/dE agree best (standard REWL stitching), then the joined
  /// curve averages overlapping values after alignment.
  static DensityOfStates stitch(const std::vector<DensityOfStates>& parts);

  /// Plain-text serialisation: "bin energy ln_g" per visited bin.
  void save(std::ostream& os) const;
  static DensityOfStates load(std::istream& is);

 private:
  EnergyGrid grid_;
  std::vector<double> log_g_;
  std::vector<std::uint8_t> visited_;
};

}  // namespace dt::mc
