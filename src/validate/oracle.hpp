// Exact physics oracle: brute-force enumeration of the density of states
// and canonical observables for small lattices at fixed composition.
//
// Every statistical validation in this repository bottoms out here: for a
// lattice small enough to enumerate (16-32 sites depending on
// composition), the oracle iterates the full fixed-composition slice of
// configuration space -- every distinct permutation of the composition
// multiset, i.e. the multinomial(N; n_0..n_{S-1}) states of the canonical
// alloy ensemble -- and tabulates
//
//   * g(E): exact level degeneracies (energies quantised to a fixed
//     energy quantum so analytically-equal levels collapse to one key
//     despite floating-point summation order),
//   * per-level sums of the Warren-Cowley SRO magnitude (optional), from
//     which exact canonical <SRO>(T) follows,
//   * exact canonical observables ln Z, U(T), Cv(T), F(T), S(T) by
//     log-domain reweighting of the exact levels.
//
// Enumeration cost is O(multinomial * N z); a 24-site equiatomic binary
// (2.7M states) takes ~1 s. Results are memoized in-process and cached
// on disk as golden references (see OracleOptions::cache_dir), so oracle
// generation runs once per (lattice, Hamiltonian, composition) -- reruns
// and seed sweeps hit the cache.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "mc/dos.hpp"
#include "mc/energy_grid.hpp"
#include "mc/thermo.hpp"

namespace dt::validate {

struct OracleOptions {
  /// Accumulate the shell-0 sro_magnitude per level (doubles the
  /// enumeration cost; required for exact_mean_sro()).
  bool with_sro = false;
  /// Golden-reference cache directory. Empty: use $DT_ORACLE_CACHE_DIR,
  /// or "dt-oracle-cache" under the working directory when unset. "-"
  /// disables the on-disk cache entirely.
  std::string cache_dir;
};

struct ExactLevel {
  double energy = 0.0;
  double count = 0.0;    ///< exact degeneracy (integer-valued double)
  double sro_sum = 0.0;  ///< sum of sro_magnitude over the level's states
};

class ExactOracle {
 public:
  /// Enumerate (or load from cache) the exact DOS of `hamiltonian` on
  /// `lat` with per-species site counts `composition` (must sum to
  /// lat.num_sites()). Results are memoized in-process: repeated calls
  /// with identical inputs return the same shared instance.
  static std::shared_ptr<const ExactOracle> get(
      const lattice::EpiHamiltonian& hamiltonian, const lattice::Lattice& lat,
      std::span<const std::int32_t> composition,
      const OracleOptions& options = {});

  /// Always enumerates; no memo, no disk I/O. Exposed for cache tests.
  static ExactOracle enumerate(const lattice::EpiHamiltonian& hamiltonian,
                               const lattice::Lattice& lat,
                               std::span<const std::int32_t> composition,
                               const OracleOptions& options = {});

  [[nodiscard]] const std::vector<ExactLevel>& levels() const {
    return levels_;
  }
  [[nodiscard]] double e_min() const { return e_min_; }
  [[nodiscard]] double e_max() const { return e_max_; }
  /// Total state count (exact for any enumerable system: < 2^53).
  [[nodiscard]] double total_states() const { return total_; }
  /// ln of the total state count -- the multinomial coefficient; DOS
  /// fragments are normalized against this.
  [[nodiscard]] double log_total_states() const { return log_total_; }
  [[nodiscard]] bool has_sro() const { return with_sro_; }
  /// True when this instance was loaded from the on-disk golden cache.
  [[nodiscard]] bool from_cache() const { return from_cache_; }

  /// Exact ln g of the level containing `energy` (quantised key match);
  /// -inf when no level sits there.
  [[nodiscard]] units::LogDoS log_g_at(units::Energy energy) const;

  /// Exact DOS projected onto `grid`: each bin holds ln of the summed
  /// degeneracies of the levels it contains. Throws if any level falls
  /// outside the grid.
  [[nodiscard]] mc::DensityOfStates to_dos(const mc::EnergyGrid& grid) const;

  /// Grid bracketing the exact spectrum with `pad` of slack on each side.
  [[nodiscard]] mc::EnergyGrid make_grid(std::int32_t n_bins,
                                         double pad = 0.5) const;

  /// Exact canonical observables at temperature T (log-domain over the
  /// exact levels -- no grid discretisation error).
  [[nodiscard]] mc::ThermoPoint thermo(units::Temperature temperature) const;
  [[nodiscard]] std::vector<mc::ThermoPoint> thermo_scan(
      const std::vector<double>& temperatures) const;

  /// Exact canonical Boltzmann probability of each level at T, in
  /// levels() order (energy-ascending) -- the expected visited-energy
  /// distribution of a correct fixed-T sampler, ready for
  /// chi_square_expected / ks_discrete.
  [[nodiscard]] std::vector<double> level_probabilities(
      units::Temperature temperature) const;

  /// Exact canonical <sro_magnitude(shell 0)>(T); requires with_sro.
  [[nodiscard]] double mean_sro(units::Temperature temperature) const;

  /// Golden-reference serialisation (plain text, rename-atomic on save).
  void save(std::ostream& os) const;
  static ExactOracle load(std::istream& is);

  /// Cache identity of (lattice, Hamiltonian, composition, options).
  [[nodiscard]] std::uint64_t key() const { return key_; }

 private:
  ExactOracle() = default;

  double quantum_ = 0.0;
  bool with_sro_ = false;
  bool from_cache_ = false;
  std::uint64_t key_ = 0;
  double e_min_ = 0.0;
  double e_max_ = 0.0;
  double total_ = 0.0;
  double log_total_ = 0.0;
  std::vector<ExactLevel> levels_;  // energy-ascending
};

/// Even split of `n_sites` over `n_species` (remainder to the lowest
/// species indices) -- the composition used by random_configuration with
/// empty fractions.
std::vector<std::int32_t> equiatomic_composition(std::int32_t n_sites,
                                                 int n_species);

}  // namespace dt::validate
