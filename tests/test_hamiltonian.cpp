#include "lattice/hamiltonian.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace dt::lattice {
namespace {

TEST(EpiHamiltonian, RejectsAsymmetricCouplings) {
  std::vector<double> v = {0.0, 1.0, 2.0, 0.0};  // V(0,1) != V(1,0)
  EXPECT_THROW((void)EpiHamiltonian(2, {v}), dt::Error);
}

TEST(EpiHamiltonian, StoresNearSymmetricCouplingsExactlySymmetric) {
  // A 1e-13 asymmetry passes the symmetry check; both orientations must
  // then hold the same double, or the pair-count energy (one triangle)
  // and swap_delta (both orientations) would price different couplings.
  const std::vector<double> v = {0.02, -0.1,        0.03,  //
                                 -0.1 + 1e-13, 0.05, 0.07,  //
                                 0.03, 0.07 - 1e-13, -0.01};
  const EpiHamiltonian ham(3, {v});
  for (Species a = 0; a < 3; ++a)
    for (Species b = 0; b < 3; ++b)
      EXPECT_EQ(ham.coupling(0, a, b), ham.coupling(0, b, a));
  EXPECT_EQ(ham.coupling(0, 0, 1), 0.5 * (-0.1 + (-0.1 + 1e-13)));

  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 1);
  Xoshiro256ss rng(17);
  auto cfg = random_configuration(lat, 3, rng);
  for (int t = 0; t < 50; ++t) {
    const auto a = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const auto b = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const double before = ham.total_energy(cfg);
    const double delta = ham.swap_delta(cfg, a, b);
    cfg.swap(a, b);
    ASSERT_NEAR(ham.total_energy(cfg) - before, delta, 1e-13) << "trial " << t;
  }
}

TEST(EpiHamiltonian, RejectsWrongMatrixSize) {
  EXPECT_THROW((void)EpiHamiltonian(3, {{0.0, 0.0, 0.0, 0.0}}), dt::Error);
}

TEST(EpiHamiltonian, CouplingBounds) {
  const auto ham = epi_ising(2.0);
  EXPECT_DOUBLE_EQ(ham.min_coupling(), -2.0);
  EXPECT_DOUBLE_EQ(ham.max_coupling(), 2.0);
}

TEST(EpiHamiltonian, IsingGroundStateEnergy) {
  // Ferromagnetic single-species limit: all bonds at -J.
  const auto lat = Lattice::create(LatticeType::kBCC, 4, 4, 4, 1);
  const auto ham = epi_ising(1.0);
  Configuration cfg(lat, 2);  // all species 0
  const std::int64_t bonds = ham.bond_count(lat);
  EXPECT_EQ(bonds, static_cast<std::int64_t>(lat.num_sites()) * 8 / 2);
  EXPECT_NEAR(ham.total_energy(cfg), -static_cast<double>(bonds), 1e-9);
}

TEST(EpiHamiltonian, IsingB2IsAntiferroGroundState) {
  const auto lat = Lattice::create(LatticeType::kBCC, 4, 4, 4, 1);
  // Antiferromagnetic: like pairs +J, unlike -J.
  const EpiHamiltonian ham(2, {{1.0, -1.0, -1.0, 1.0}});
  const auto cfg = ordered_b2(lat, 2);
  EXPECT_NEAR(ham.total_energy(cfg),
              -static_cast<double>(ham.bond_count(lat)), 1e-9);
}

TEST(EpiHamiltonian, SwapDeltaMatchesRecompute) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = random_epi(4, 2, 0.1, 7);
  Xoshiro256ss rng(6);
  auto cfg = random_configuration(lat, 4, rng);
  double energy = ham.total_energy(cfg);

  // Random swaps including neighbouring pairs; ΔE must match recompute.
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const auto b = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const double delta = ham.swap_delta(cfg, a, b);
    cfg.swap(a, b);
    const double fresh = ham.total_energy(cfg);
    ASSERT_NEAR(fresh, energy + delta, 1e-8)
        << "trial " << trial << " a=" << a << " b=" << b;
    energy = fresh;
  }
}

TEST(EpiHamiltonian, SwapDeltaNeighbourPairExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = random_epi(3, 2, 0.2, 9);
  Xoshiro256ss rng(8);
  auto cfg = random_configuration(lat, 3, rng);

  // Exercise explicitly-neighbouring pairs on both shells.
  for (std::int32_t site = 0; site < lat.num_sites(); site += 5) {
    for (int s = 0; s < 2; ++s) {
      const auto nb = lat.neighbors(site, s)[0];
      const double e0 = ham.total_energy(cfg);
      const double delta = ham.swap_delta(cfg, site, nb);
      cfg.swap(site, nb);
      EXPECT_NEAR(ham.total_energy(cfg), e0 + delta, 1e-8);
      cfg.swap(site, nb);  // restore
    }
  }
}

TEST(EpiHamiltonian, SwapDeltaTrivialCases) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 1);
  const auto ham = epi_ising(1.0);
  Xoshiro256ss rng(10);
  const auto cfg = random_configuration(lat, 2, rng);
  EXPECT_DOUBLE_EQ(ham.swap_delta(cfg, 4, 4), 0.0);
  // Same-species pair.
  std::int32_t a = 0, b = 1;
  while (cfg.at(a) != cfg.at(b)) ++b;
  EXPECT_DOUBLE_EQ(ham.swap_delta(cfg, a, b), 0.0);
}

TEST(EpiHamiltonian, SwapDeltaExactOnWrappingSupercell) {
  // Regression: on a 2x2x2 BCC supercell the second shell's +x and -x
  // offsets wrap onto the same site, giving neighbour multiplicity 2.
  // The swap correction must be applied once per bond, not once per pair.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 2);
  EXPECT_EQ(lat.neighbor_multiplicity(0, lat.neighbors(0, 1)[0], 1), 2);

  const auto ham = epi_nbmotaw();
  Xoshiro256ss rng(31);
  auto cfg = random_configuration(lat, 4, rng);
  double energy = ham.total_energy(cfg);
  for (int t = 0; t < 500; ++t) {
    const auto a = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const auto b = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    energy += ham.swap_delta(cfg, a, b);
    cfg.swap(a, b);
    ASSERT_NEAR(energy, ham.total_energy(cfg), 1e-8) << "trial " << t;
  }
}

TEST(EpiHamiltonian, EnergyBoundsHold) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = random_epi(4, 2, 0.3, 21);
  Xoshiro256ss rng(14);
  const double bonds = static_cast<double>(ham.bond_count(lat));
  for (int trial = 0; trial < 20; ++trial) {
    const auto cfg = random_configuration(lat, 4, rng);
    const double e = ham.total_energy(cfg);
    EXPECT_GE(e, bonds * ham.min_coupling() - 1e-9);
    EXPECT_LE(e, bonds * ham.max_coupling() + 1e-9);
  }
}

/// The total energy before pair counts: upper-half bonds of each site
/// summed plainly, one Kahan add per site. The upper-half list is the
/// full neighbour row filtered to nb > site, in row order.
double kahan_site_sum(const EpiHamiltonian& ham, const Configuration& cfg) {
  const Lattice& lat = cfg.lattice();
  KahanSum energy;
  for (int s = 0; s < ham.n_shells(); ++s) {
    for (std::int32_t site = 0; site < lat.num_sites(); ++site) {
      const double* row = ham.coupling_row(s, cfg.at(site));
      double site_sum = 0.0;
      for (std::int32_t nb : lat.neighbors(site, s))
        if (nb > site) site_sum += row[cfg.at(nb)];
      energy.add(site_sum);
    }
  }
  return energy.value();
}

TEST(EpiHamiltonian, PairCountEnergyMatchesKahanSiteSum) {
  // Cells = 2 puts duplicate periodic images into every shell that
  // reaches a full cell, so the bond set with multiplicity is covered.
  for (const LatticeType type : {LatticeType::kBCC, LatticeType::kFCC}) {
    for (const int n_species : {2, 3, 4}) {
      for (const int n_shells : {1, 2, 3}) {
        for (const int cells : {2, 3}) {
          const auto lat =
              Lattice::create(type, cells, cells, cells, n_shells);
          const auto seed =
              static_cast<std::uint64_t>(100 * n_species + 10 * n_shells +
                                         cells);
          const auto ham = random_epi(n_species, n_shells, 0.3, seed);
          Xoshiro256ss rng(seed);
          for (int trial = 0; trial < 3; ++trial) {
            const auto cfg = random_configuration(lat, n_species, rng);
            const double want = kahan_site_sum(ham, cfg);
            const double got = ham.total_energy(cfg);
            EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::abs(want)))
                << to_string(type) << " S=" << n_species
                << " shells=" << n_shells << " cells=" << cells;
          }
        }
      }
    }
  }
}

TEST(EpiHamiltonian, PairCountEnergyExactPastLaneCapacity) {
  // One species everywhere loads every bond into a single 16-bit lane.
  // Each shell here holds more bonds than a lane can (0xFFFF), so a
  // missing flush would wrap; the energy must stay exactly V_s(a,a)
  // times the bond count. Dyadic couplings keep every product and sum
  // exact, so the comparison is exact too. S = 5 also runs the
  // multi-word lane rows.
  const auto lat = Lattice::create(LatticeType::kBCC, 23, 23, 23, 2);
  const std::int64_t bonds0 = std::int64_t{lat.num_sites()} * 8 / 2;
  const std::int64_t bonds1 = std::int64_t{lat.num_sites()} * 6 / 2;
  ASSERT_GT(bonds0, 0xFFFF);
  ASSERT_GT(bonds1, 0xFFFF);
  for (const int n_species : {4, 5}) {
    const auto s = static_cast<std::size_t>(n_species);
    std::vector<double> v0(s * s, 0.25), v1(s * s, -0.5);
    for (std::size_t a = 0; a < s; ++a) {
      v0[a * s + a] = 0.125 * static_cast<double>(a + 1);
      v1[a * s + a] = -0.0625 * static_cast<double>(a + 1);
    }
    const EpiHamiltonian ham(n_species, {v0, v1});
    for (int sp = 0; sp < n_species; ++sp) {
      Configuration cfg(lat, n_species);
      const std::vector<Species> occ(
          static_cast<std::size_t>(lat.num_sites()),
          static_cast<Species>(sp));
      cfg.assign(occ);
      const auto a = static_cast<Species>(sp);
      const double want =
          ham.coupling(0, a, a) * static_cast<double>(bonds0) +
          ham.coupling(1, a, a) * static_cast<double>(bonds1);
      EXPECT_EQ(ham.total_energy(cfg), want) << "species " << sp;
    }
  }
}

TEST(EpiHamiltonian, NbMoTaWPresetShape) {
  const auto ham = epi_nbmotaw();
  EXPECT_EQ(ham.n_species(), 4);
  EXPECT_EQ(ham.n_shells(), 2);
  // Mo-Ta first-shell attraction is the dominant ordering interaction.
  double strongest = 0.0;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      strongest = std::min(strongest,
                           ham.coupling(0, static_cast<Species>(a),
                                        static_cast<Species>(b)));
  EXPECT_DOUBLE_EQ(ham.coupling(0, 1, 2), strongest);
  // Symmetry.
  for (int s = 0; s < 2; ++s)
    for (int a = 0; a < 4; ++a)
      for (int b = 0; b < 4; ++b)
        EXPECT_DOUBLE_EQ(ham.coupling(s, static_cast<Species>(a),
                                      static_cast<Species>(b)),
                         ham.coupling(s, static_cast<Species>(b),
                                      static_cast<Species>(a)));
}

TEST(EpiHamiltonian, RandomEpiReproducible) {
  const auto a = random_epi(3, 2, 0.5, 99);
  const auto b = random_epi(3, 2, 0.5, 99);
  for (int s = 0; s < 2; ++s)
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        EXPECT_DOUBLE_EQ(a.coupling(s, static_cast<Species>(i),
                                    static_cast<Species>(j)),
                         b.coupling(s, static_cast<Species>(i),
                                    static_cast<Species>(j)));
}

// Parameterised sweep: bookkeeping invariants across lattice types and
// species counts.
struct Combo {
  LatticeType type;
  int n_species;
};

class EnergyBookkeeping : public ::testing::TestWithParam<Combo> {};

TEST_P(EnergyBookkeeping, IncrementalMatchesFullRecompute) {
  const auto [type, n_species] = GetParam();
  const auto lat = Lattice::create(type, 3, 3, 3, 2);
  const auto ham =
      random_epi(n_species, 2, 0.2,
                 static_cast<std::uint64_t>(n_species) * 31 + 7);
  Xoshiro256ss rng(static_cast<std::uint64_t>(n_species));
  auto cfg = random_configuration(lat, n_species, rng);
  double energy = ham.total_energy(cfg);
  for (int t = 0; t < 100; ++t) {
    const auto a = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    const auto b = static_cast<std::int32_t>(
        uniform_index(rng, static_cast<std::uint64_t>(lat.num_sites())));
    energy += ham.swap_delta(cfg, a, b);
    cfg.swap(a, b);
  }
  EXPECT_NEAR(energy, ham.total_energy(cfg), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnergyBookkeeping,
    ::testing::Values(Combo{LatticeType::kSimpleCubic, 2},
                      Combo{LatticeType::kSimpleCubic, 5},
                      Combo{LatticeType::kBCC, 2}, Combo{LatticeType::kBCC, 4},
                      Combo{LatticeType::kFCC, 3},
                      Combo{LatticeType::kFCC, 4}));

}  // namespace
}  // namespace dt::lattice
