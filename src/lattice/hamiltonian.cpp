#include "lattice/hamiltonian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dt::lattice {

PairCounter::PairCounter(const Lattice& lat, int n_species, int n_shells)
    : n_species_(static_cast<std::size_t>(n_species)),
      n_shells_(static_cast<std::size_t>(n_shells)),
      words_((n_species_ + 3) / 4) {
  DT_CHECK_MSG(n_species >= 1 && n_species <= kMaxSpecies,
               "PairCounter: " << n_species << " species (1.."
                               << kMaxSpecies << " supported)");
  DT_CHECK_MSG(n_shells >= 1 && n_shells <= lat.num_shells(),
               "Hamiltonian has more shells than the lattice resolves");
  int z_max = 1;
  for (int s = 0; s < n_shells; ++s) {
    const auto sh = static_cast<std::size_t>(s);
    rows_[sh] = lat.neighbors(0, s).data();
    z_[sh] = static_cast<std::size_t>(lat.coordination(s));
    z_max = std::max(z_max, lat.coordination(s));
  }
  flush_every_ = 0xFFFF / z_max;
  std::fill_n(packed_.begin(), n_shells_ * n_species_ * words_, 0);
  std::fill_n(totals_.begin(), n_shells_ * n_species_ * n_species_, 0);
}

void PairCounter::flush() {
  for (std::size_t row = 0; row < n_shells_ * n_species_; ++row) {
    std::uint64_t* total = &totals_[row * n_species_];
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t lanes = packed_[row * words_ + w];
      packed_[row * words_ + w] = 0;
      for (std::size_t b = 4 * w; b < std::min(4 * w + 4, n_species_); ++b) {
        total[b] += lanes & 0xFFFF;
        lanes >>= 16;
      }
    }
  }
  pending_ = 0;
}

std::span<const std::uint64_t> PairCounter::counts() {
  flush();
  return {totals_.data(), n_shells_ * n_species_ * n_species_};
}

EpiHamiltonian::EpiHamiltonian(int n_species,
                               std::vector<std::vector<double>> couplings)
    : n_species_(n_species),
      n_shells_(static_cast<int>(couplings.size())) {
  DT_CHECK(n_species_ >= 1);
  DT_CHECK_MSG(n_species_ <= PairCounter::kMaxSpecies,
               "EpiHamiltonian: " << n_species_ << " species (at most "
                                  << PairCounter::kMaxSpecies << ")");
  DT_CHECK(!couplings.empty());
  DT_CHECK_MSG(n_shells_ <= Lattice::kMaxShells,
               "EpiHamiltonian: " << n_shells_ << " shells (at most "
                                  << Lattice::kMaxShells << ")");
  const auto s = static_cast<std::size_t>(n_species_);
  min_coupling_ = std::numeric_limits<double>::infinity();
  max_coupling_ = -std::numeric_limits<double>::infinity();
  couplings_.reserve(couplings.size() * s * s);
  for (const auto& v : couplings) {
    DT_CHECK_MSG(v.size() == s * s, "coupling matrix size mismatch");
    for (std::size_t a = 0; a < s; ++a) {
      for (std::size_t b = 0; b < s; ++b) {
        DT_CHECK_MSG(std::abs(v[a * s + b] - v[b * s + a]) < 1e-12,
                     "coupling matrix not symmetric at (" << a << "," << b
                                                          << ")");
        // Symmetrised: V(a,b) and V(b,a) become the same double, so the
        // pair-count energy (one triangle) and swap_delta (both
        // orientations) price identical couplings.
        const double sym = 0.5 * (v[a * s + b] + v[b * s + a]);
        couplings_.push_back(sym);
        min_coupling_ = std::min(min_coupling_, sym);
        max_coupling_ = std::max(max_coupling_, sym);
      }
    }
  }
}

double EpiHamiltonian::total_energy(const Configuration& cfg) const {
  const Species* occ = cfg.occupancy().data();
  PairCounter bonds(cfg.lattice(), n_species_, n_shells_);
  for (std::int32_t site = 0; site < cfg.num_sites(); ++site)
    bonds.add_site(site, occ[site], occ);
  return energy_from_counts(bonds.counts(), 2);  // seen from both ends
}

double EpiHamiltonian::energy_from_counts(
    std::span<const std::uint64_t> counts, int seen) const {
  // counts has the [shell][a][b] layout of couplings_.
  DT_CHECK(counts.size() == couplings_.size());
  DT_CHECK(seen == 1 || seen == 2);
  const auto s = static_cast<std::size_t>(n_species_);
  const auto shift = static_cast<unsigned>(seen - 1);
  const std::uint64_t odd = seen == 2 ? 1 : 0;  // the bit a division drops
  std::uint64_t dropped = 0;
  double energy = 0.0;
  for (std::size_t shell = 0; shell < counts.size(); shell += s * s) {
    const std::uint64_t* n = &counts[shell];
    const double* v = &couplings_[shell];
    for (std::size_t a = 0; a < s; ++a) {
      dropped |= n[a * s + a] & odd;
      energy += v[a * s + a] * static_cast<double>(n[a * s + a] >> shift);
      for (std::size_t b = a + 1; b < s; ++b) {
        const std::uint64_t mixed = n[a * s + b] + n[b * s + a];
        dropped |= mixed & odd;
        energy += v[a * s + b] * static_cast<double>(mixed >> shift);
      }
    }
  }
  DT_CHECK_MSG(dropped == 0, "pair counts: a bond seen from only one end");
  return energy;
}

double EpiHamiltonian::swap_delta(const Configuration& cfg, std::int32_t a,
                                  std::int32_t b) const {
  const Species sa = cfg.at(a);
  const Species sb = cfg.at(b);
  if (sa == sb || a == b) return 0.0;
  const Lattice& lat = cfg.lattice();

  double delta = 0.0;
  for (int s = 0; s < n_shells(); ++s) {
    // Field terms: treat the other site's spin as frozen, then correct the
    // doubly-counted (a,b) bond below.
    for (std::int32_t nb : lat.neighbors(a, s))
      delta += coupling(s, sb, cfg.at(nb)) - coupling(s, sa, cfg.at(nb));
    for (std::int32_t nb : lat.neighbors(b, s))
      delta += coupling(s, sa, cfg.at(nb)) - coupling(s, sb, cfg.at(nb));
    // Every (a,b) bond in this shell (there can be several through
    // distinct periodic images on small supercells) is invariant under
    // the exchange, but the two field sums above turned each one into
    // V(sb,sb)+V(sa,sa)-2V(sa,sb); undo per bond.
    const int bonds = lat.neighbor_multiplicity(a, b, s);
    if (bonds > 0) {
      delta -= bonds * (coupling(s, sa, sa) + coupling(s, sb, sb) -
                        2.0 * coupling(s, sa, sb));
    }
  }
  return delta;
}

std::int64_t EpiHamiltonian::bond_count(const Lattice& lat) const {
  std::int64_t bonds = 0;
  for (int s = 0; s < n_shells(); ++s)
    bonds += static_cast<std::int64_t>(lat.num_sites()) *
             lat.coordination(s) / 2;
  return bonds;
}

EpiHamiltonian epi_nbmotaw() {
  // Species order: 0=Nb, 1=Mo, 2=Ta, 3=W.
  //
  // Synthetic EPI with the qualitative structure of DFT-fitted cluster
  // expansions for NbMoTaW (see DESIGN.md, substitution table): strong
  // first-shell Mo-Ta attraction driving B2 ordering, moderate Nb-W
  // ordering, like-pair repulsion, and a weaker second shell with partly
  // inverted sign (frustration), all in eV per bond.
  std::vector<double> v1 = {
      //  Nb      Mo      Ta      W
      0.020, -0.015, -0.010, -0.045,   // Nb
      -0.015, 0.025, -0.085, -0.005,   // Mo
      -0.010, -0.085, 0.030, -0.020,   // Ta
      -0.045, -0.005, -0.020, 0.015};  // W
  std::vector<double> v2 = {
      0.008, 0.012, -0.004, 0.018,
      0.012, -0.010, 0.030, 0.002,
      -0.004, 0.030, -0.012, 0.008,
      0.018, 0.002, 0.008, -0.006};
  return EpiHamiltonian(4, {std::move(v1), std::move(v2)});
}

EpiHamiltonian epi_ising(double j_coupling, int n_shells) {
  std::vector<std::vector<double>> shells;
  for (int s = 0; s < n_shells; ++s) {
    // E = -J s_i s_j with s = +/-1: like pairs -J, unlike +J.
    shells.push_back({-j_coupling, j_coupling, j_coupling, -j_coupling});
  }
  return EpiHamiltonian(2, std::move(shells));
}

EpiHamiltonian random_epi(int n_species, int n_shells, double scale,
                          std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto s = static_cast<std::size_t>(n_species);
  std::vector<std::vector<double>> shells;
  for (int sh = 0; sh < n_shells; ++sh) {
    std::vector<double> v(s * s, 0.0);
    for (std::size_t a = 0; a < s; ++a) {
      for (std::size_t b = a; b < s; ++b) {
        const double x = scale * (2.0 * uniform01(rng) - 1.0);
        v[a * s + b] = x;
        v[b * s + a] = x;
      }
    }
    shells.push_back(std::move(v));
  }
  return EpiHamiltonian(n_species, std::move(shells));
}

}  // namespace dt::lattice
