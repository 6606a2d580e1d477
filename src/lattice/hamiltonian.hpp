// Effective pair interaction (EPI) Hamiltonian for multi-component alloys.
//
//   E(sigma) = sum_s sum_{<ij> in shell s} V_s(sigma_i, sigma_j)
//
// where V_s is a symmetric species-pair coupling matrix per neighbour
// shell. This is the cluster expansion truncated at pairs, the standard
// configurational model for refractory HEAs (e.g. NbMoTaW).
//
// The class provides the O(z) swap energy difference used by local Monte
// Carlo moves and the O(N z) total energy. The total energy has one
// definition: integer bond counts per shell and unordered species pair,
// combined by energy_from_counts,
//
//   E = sum_s sum_{a <= b} V_s(a,b) N_s{a,b},
//
// the pair form of the cluster expansion. The counts are exact and do
// not depend on the order bonds are visited, so the VAE global move
// counts its candidate's bonds while it samples them (PairCounter) and
// prices it with the same combine step as total_energy.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lattice/configuration.hpp"
#include "lattice/lattice.hpp"

namespace dt::lattice {

/// Exact bond counts by species pair, gathered one site at a time.
/// add_site(i, a, occ) counts the bonds from site i, holding species a,
/// to every neighbour whose species in occ is set; entries equal to
/// kUnset are skipped. Neighbours come from the fixed-stride
/// Lattice::neighbors rows, so every site runs the same trip count, and
/// the mask is the occupancy itself rather than an index compare.
///
///  * Sampling: occ starts all kUnset and each site is added just before
///    its species is written, so the set neighbours of site i are those
///    with nb < i. Every bond -- duplicate periodic images on 2-cell
///    supercells included -- is then seen once, from its higher-index
///    end.
///  * A complete occupancy (EpiHamiltonian::total_energy) sees every
///    bond twice, once from each end.
///
/// EpiHamiltonian::energy_from_counts prices counts() given how many
/// times each bond was seen.
///
/// Counts build up in 16-bit lanes, four species to a 64-bit word, and
/// are flushed to 64-bit totals every 0xFFFF / z_max sites: one site adds
/// at most z_max to a lane, so no lane can overflow at any lattice size.
/// The counter holds no heap memory.
class PairCounter {
 public:
  static constexpr int kMaxSpecies = 16;
  static constexpr std::size_t kMaxCounts =
      static_cast<std::size_t>(Lattice::kMaxShells * kMaxSpecies *
                               kMaxSpecies);
  /// Occupancy value of a site whose species is not yet picked.
  static constexpr Species kUnset = 0xFF;

  PairCounter(const Lattice& lat, int n_species, int n_shells);

  void add_site(std::int32_t site, Species a, const Species* occ) {
    // Members are read into locals first: the lane stores below are
    // 64-bit and would otherwise force them to be reloaded.
    const auto i = static_cast<std::size_t>(site);
    const std::size_t n_shells = n_shells_;
    const std::size_t words = words_;
    const std::size_t row = static_cast<std::size_t>(a) * words;
    const std::size_t shell_stride = n_species_ * words;
    for (std::size_t s = 0; s < n_shells; ++s) {
      const std::size_t z = z_[s];
      const std::int32_t* nbrs = rows_[s] + i * z;
      std::uint64_t* lanes = &packed_[s * shell_stride + row];
      if (words == 1) {
        std::uint64_t acc = 0;
        for (std::size_t k = 0; k < z; ++k)
          acc += kLaneOne[occ[static_cast<std::size_t>(nbrs[k])]];
        lanes[0] += acc;
      } else {
        for (std::size_t k = 0; k < z; ++k) {
          const unsigned b = occ[static_cast<std::size_t>(nbrs[k])];
          if (b != kUnset) lanes[b / 4] += kLaneOne[b % 4];
        }
      }
    }
    if (++pending_ == flush_every_) flush();
  }

  /// Totals: counts()[(s*S + a)*S + b] is the number of shell-s bonds
  /// counted from a site holding a to a neighbour holding b.
  [[nodiscard]] std::span<const std::uint64_t> counts();

 private:
  /// kLaneOne[b] is one count in lane b for b < 4, and 0 for every other
  /// value -- kUnset in particular, so unset neighbours add nothing.
  static constexpr std::array<std::uint64_t, 256> kLaneOne = [] {
    std::array<std::uint64_t, 256> one{};
    for (unsigned b = 0; b < 4; ++b) one[b] = std::uint64_t{1} << (16 * b);
    return one;
  }();

  void flush();

  std::size_t n_species_;
  std::size_t n_shells_;
  std::size_t words_;  // 64-bit words per (shell, species) lane row
  std::int32_t flush_every_ = 0;
  std::int32_t pending_ = 0;  // sites added since the last flush
  std::array<const std::int32_t*, Lattice::kMaxShells> rows_{};
  std::array<std::size_t, Lattice::kMaxShells> z_{};
  // Sized for the largest system; the constructor zeroes only the
  // entries this shell and species count use, and only those are read.
  std::array<std::uint64_t, kMaxCounts / 4> packed_;
  std::array<std::uint64_t, kMaxCounts> totals_;
};

class EpiHamiltonian {
 public:
  /// `couplings[s]` is the row-major S x S matrix V_s; each must be
  /// symmetric to 1e-12 (checked) and is stored exactly symmetrised,
  /// (V(a,b) + V(b,a)) / 2, so every energy path prices the same
  /// couplings. At most PairCounter::kMaxSpecies species and
  /// Lattice::kMaxShells shells.
  EpiHamiltonian(int n_species,
                 std::vector<std::vector<double>> couplings);

  [[nodiscard]] int n_species() const { return n_species_; }
  [[nodiscard]] int n_shells() const { return n_shells_; }

  [[nodiscard]] double coupling(int shell, Species a, Species b) const {
    // One contiguous [shell][a][b] table: a single indexed load in the
    // delta/total-energy inner loops instead of a double indirection.
    return coupling_row(shell, a)[b];
  }

  /// Row V_s(a, *) of the flat table; hot loops hoist this so the inner
  /// bond iteration is a single indexed load per neighbour.
  [[nodiscard]] const double* coupling_row(int shell, Species a) const {
    return &couplings_[(static_cast<std::size_t>(shell) *
                            static_cast<std::size_t>(n_species_) +
                        a) *
                       static_cast<std::size_t>(n_species_)];
  }

  /// Total energy: the configuration's bonds counted by a PairCounter
  /// and priced by energy_from_counts.
  [[nodiscard]] double total_energy(const Configuration& cfg) const;

  /// Energy of PairCounter::counts() over this Hamiltonian's shells and
  /// species, in which every bond was seen `seen` times (1 or 2, see
  /// PairCounter). Combined in one fixed order -- shell, then a, then
  /// b >= a -- as V_s(a,b) (N_ab + N_ba) / seen off the diagonal and
  /// V_s(a,a) N_aa / seen on it; the integer division is exact.
  [[nodiscard]] double energy_from_counts(
      std::span<const std::uint64_t> counts, int seen = 1) const;

  /// Energy change of exchanging the species at sites `a` and `b`
  /// (without mutating cfg). Exact also when a and b are neighbours.
  [[nodiscard]] double swap_delta(const Configuration& cfg, std::int32_t a,
                                  std::int32_t b) const;

  /// Lower/upper bounds on the per-bond coupling, used to bracket the
  /// reachable energy range: N_bonds * min <= E <= N_bonds * max.
  [[nodiscard]] double min_coupling() const { return min_coupling_; }
  [[nodiscard]] double max_coupling() const { return max_coupling_; }

  /// Total number of bonds on `lat` within this Hamiltonian's shells.
  [[nodiscard]] std::int64_t bond_count(const Lattice& lat) const;

 private:
  int n_species_;
  int n_shells_;
  std::vector<double> couplings_;  // flat [(shell*S + a)*S + b]
  double min_coupling_ = 0.0;
  double max_coupling_ = 0.0;
};

/// Literature-shaped EPI set for the quaternary refractory HEA
/// (Nb, Mo, Ta, W) on BCC with two shells. Units are eV-scale and the
/// dominant feature -- strong first-shell Mo-Ta (B2-type) ordering with
/// weaker Nb/W interactions -- matches published cluster expansions in
/// qualitative structure. Species order: 0=Nb, 1=Mo, 2=Ta, 3=W.
EpiHamiltonian epi_nbmotaw();

/// Degenerate two-species EPI reproducing a spin-1/2 Ising
/// antiferromagnet/ferromagnet with coupling J on the first shell:
/// V(a,b) = -J if a==b else +J (energy per bond; spin map s=2a-1).
EpiHamiltonian epi_ising(double j_coupling, int n_shells = 1);

/// Reproducible random EPI landscape: couplings ~ scale * U(-1,1),
/// symmetrised; used by stress/property tests.
EpiHamiltonian random_epi(int n_species, int n_shells, double scale,
                          std::uint64_t seed);

}  // namespace dt::lattice
