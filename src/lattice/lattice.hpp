// Crystal lattice geometry with periodic boundaries and shell-resolved
// neighbour tables.
//
// A Lattice is a cubic supercell of nx*ny*nz conventional cells, each
// holding `basis` atoms (SC: 1, BCC: 2, FCC: 4). Neighbour shells are
// grouped by interatomic distance; because all sites of a Bravais-basis
// position are geometrically equivalent, neighbour *offsets* are computed
// once per basis position and then instantiated into flat per-site index
// tables for cache-friendly traversal in the Monte Carlo inner loop.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dt::lattice {

enum class LatticeType { kSimpleCubic, kBCC, kFCC };

[[nodiscard]] std::string to_string(LatticeType type);

/// Number of basis atoms in the conventional cubic cell.
[[nodiscard]] int basis_count(LatticeType type);

class Lattice {
 public:
  /// Most neighbour shells a lattice resolves.
  static constexpr int kMaxShells = 6;

  /// Build a lattice with `n_shells` nearest-neighbour shells resolved.
  /// Throws if the supercell is too small for the requested shells to be
  /// unambiguous under periodic boundary conditions.
  static Lattice create(LatticeType type, int nx, int ny, int nz,
                        int n_shells);

  [[nodiscard]] LatticeType type() const { return type_; }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] int basis() const { return basis_; }
  [[nodiscard]] std::int32_t num_sites() const { return num_sites_; }
  [[nodiscard]] int num_shells() const { return static_cast<int>(shell_z_.size()); }

  /// Coordination number of `shell` (identical for every site).
  [[nodiscard]] int coordination(int shell) const {
    return shell_z_.at(static_cast<std::size_t>(shell));
  }

  /// Squared distance of `shell` in units of the cubic lattice parameter.
  [[nodiscard]] double shell_distance_sq(int shell) const {
    return shell_d2_.at(static_cast<std::size_t>(shell));
  }

  /// Neighbour site indices of `site` within `shell`.
  [[nodiscard]] std::span<const std::int32_t> neighbors(std::int32_t site,
                                                        int shell) const {
    const auto& flat = flat_[static_cast<std::size_t>(shell)];
    const auto z = static_cast<std::size_t>(shell_z_[static_cast<std::size_t>(shell)]);
    return {flat.data() + static_cast<std::size_t>(site) * z, z};
  }

  /// True if `other` is a `shell`-neighbour of `site` (linear scan; shells
  /// are small so this is O(8) worst case).
  [[nodiscard]] bool are_neighbors(std::int32_t site, std::int32_t other,
                                   int shell) const;

  /// Number of distinct `shell` bonds between `site` and `other`. Greater
  /// than 1 when the supercell is exactly twice the shell offset: the +x
  /// and -x periodic images then reach the same site through two
  /// physically distinct bonds.
  [[nodiscard]] int neighbor_multiplicity(std::int32_t site,
                                          std::int32_t other,
                                          int shell) const;

  /// Cartesian position of `site` in units of the cubic lattice parameter.
  [[nodiscard]] std::array<double, 3> position(std::int32_t site) const;

  /// Decompose a site index into (cell-x, cell-y, cell-z, basis).
  [[nodiscard]] std::array<int, 4> decompose(std::int32_t site) const;

  /// Inverse of decompose(); coordinates are wrapped periodically.
  [[nodiscard]] std::int32_t site_index(int cx, int cy, int cz, int b) const;

 private:
  Lattice() = default;

  LatticeType type_ = LatticeType::kSimpleCubic;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  int basis_ = 1;
  std::int32_t num_sites_ = 0;
  std::vector<int> shell_z_;      // coordination per shell
  std::vector<double> shell_d2_;  // squared shell distance
  // flat_[shell][site * z + n] = neighbour site index
  std::vector<std::vector<std::int32_t>> flat_;
};

}  // namespace dt::lattice
