// Cross-module property sweeps: randomized invariants that must hold for
// ANY seed / Hamiltonian / kernel combination. Parameterised over seeds
// so each instantiation explores a different random instance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>

#include "common/math.hpp"
#include "core/deepthermo.hpp"

namespace dt {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Invariant: energy bookkeeping through ANY interleaving of kernels and
// accept/reject decisions equals a fresh recomputation.
TEST_P(SeedSweep, EnergyLedgerNeverDrifts) {
  const auto seed = GetParam();
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = lattice::random_epi(4, 2, 0.15, seed);
  mc::Rng rng(seed, 1);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  mc::MetropolisSampler sampler(ham, cfg, units::Temperature(0.2),
                                mc::Rng(seed, 2));

  mc::LocalSwapProposal local(ham);
  mc::BlockSwapProposal block(ham, 2, 5);
  nn::VaeOptions vo;
  vo.n_sites = lat.num_sites();
  vo.n_species = 4;
  vo.hidden = 16;
  vo.latent = 4;
  auto vae = std::make_shared<nn::Vae>(vo, seed);
  core::VaeProposal global(ham, vae);

  mc::Proposal* kernels[] = {&local, &block, &global};
  mc::Rng pick(seed, 3);
  for (int i = 0; i < 600; ++i) {
    sampler.step(*kernels[uniform_index(pick, 3)]);
  }
  EXPECT_NEAR(sampler.energy().value(), sampler.recompute_energy().value(), 1e-7);
}

// Invariant: composition is conserved by every kernel under any mix of
// accepted and rejected moves.
TEST_P(SeedSweep, CompositionConservedUnderAllKernels) {
  const auto seed = GetParam();
  const auto lat = Lattice::create(LatticeType::kFCC, 3, 3, 3, 1);
  const auto ham = lattice::random_epi(3, 1, 0.3, seed + 5);
  mc::Rng rng(seed, 4);
  const std::vector<double> fractions = {0.5, 0.3, 0.2};
  auto cfg = lattice::random_configuration(lat, 3, rng, fractions);
  const std::vector<std::int32_t> composition(cfg.composition().begin(),
                                              cfg.composition().end());

  mc::MetropolisSampler sampler(ham, cfg, units::Temperature(0.5),
                                mc::Rng(seed, 5));
  mc::LocalSwapProposal local(ham);
  mc::BlockSwapProposal block(ham, 2, 7);
  nn::VaeOptions vo;
  vo.n_sites = lat.num_sites();
  vo.n_species = 3;
  vo.hidden = 16;
  vo.latent = 4;
  auto vae = std::make_shared<nn::Vae>(vo, seed);
  core::VaeProposal global(ham, vae);

  mc::Proposal* kernels[] = {&local, &block, &global};
  mc::Rng pick(seed, 6);
  for (int i = 0; i < 400; ++i) {
    sampler.step(*kernels[uniform_index(pick, 3)]);
    const std::vector<std::int32_t> now(
        sampler.configuration().composition().begin(),
        sampler.configuration().composition().end());
    ASSERT_EQ(now, composition) << "step " << i;
  }
}

// Invariant: Wang-Landau DOS of the same system is seed-independent
// within the accuracy implied by its final ln f.
TEST_P(SeedSweep, WangLandauSeedRobustness) {
  const auto seed = GetParam();
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const mc::EnergyGrid grid(-0.5, 64.5, 100);

  auto run = [&](std::uint64_t s) {
    mc::Rng rng(s, 0);
    auto cfg = lattice::random_configuration(lat, 2, rng);
    mc::WangLandauOptions opts;
    opts.log_f_final = 1e-3;
    mc::WangLandauSampler wl(ham, cfg, grid, opts, mc::Rng(s, 1));
    mc::LocalSwapProposal kernel(ham);
    wl.run(kernel, 60000);
    auto dos = wl.dos();
    dos.normalize(units::LogWeight(std::log(12870.0)));
    return dos;
  };
  const auto a = run(seed);
  const auto b = run(seed + 1000);
  for (std::int32_t bin = 0; bin < grid.n_bins(); ++bin) {
    if (!a.visited(bin) || !b.visited(bin)) continue;
    // Skip the rarest levels where single-visit noise dominates.
    if (a.log_g(bin).value() < 1.5) continue;
    EXPECT_NEAR(a.log_g(bin).value(), b.log_g(bin).value(), 0.8) << "bin " << bin;
  }
}

// Invariant: thermodynamic identities hold for every DOS the pipeline
// can produce: F = U - TS, Cv >= 0, S monotone in T, ln Z monotone in T.
TEST_P(SeedSweep, ThermodynamicIdentities) {
  const auto seed = GetParam();
  const mc::EnergyGrid grid(0.0, 20.0, 64);
  mc::DensityOfStates dos(grid);
  Xoshiro256ss rng(seed);
  // A random-but-plausible DOS: smooth dome plus noise.
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    const double x = (b - 32.0) / 12.0;
    dos.set(b, units::LogDoS(50.0 - 8.0 * x * x + 0.3 * normal01(rng)));
  }
  const auto scan = mc::thermo_scan(dos, linspace(0.05, 10.0, 40));
  for (std::size_t i = 0; i < scan.size(); ++i) {
    const auto& pt = scan[i];
    EXPECT_GE(pt.specific_heat, 0.0);
    EXPECT_NEAR(pt.free_energy,
                pt.internal_energy - pt.temperature * pt.entropy, 1e-7);
    if (i > 0) {
      EXPECT_GE(pt.entropy + 1e-9, scan[i - 1].entropy);
      EXPECT_GE(scan[i - 1].free_energy + 1e-9, pt.free_energy)
          << "F must decrease with T";
    }
  }
}

// Invariant: the sequential proposal density is a proper distribution
// for random probability tables and random compositions.
TEST_P(SeedSweep, SequentialDensityNormalises) {
  const auto seed = GetParam();
  Xoshiro256ss rng(seed);
  const int n = 6, s = 2;
  std::vector<float> probs(static_cast<std::size_t>(n * s));
  for (auto& p : probs) p = 0.05f + static_cast<float>(uniform01(rng));
  // Random composition of 6 sites over 2 species (1..5 of species 0);
  // every arrangement is a mask with that many zero bits.
  const auto k = static_cast<int>(1 + uniform_index(rng, 5));
  std::vector<std::uint8_t> occ(n);
  double total = 0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (std::popcount(mask) != n - k) continue;
    for (int i = 0; i < n; ++i)
      occ[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((mask >> static_cast<unsigned>(i)) & 1u);
    total += std::exp(
        core::VaeProposal::sequential_log_density(probs, occ, s).value());
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// Invariant: DOS save/load and checkpoint round trips preserve all data
// for arbitrary random content.
TEST_P(SeedSweep, DosSerializationRoundTrip) {
  const auto seed = GetParam();
  Xoshiro256ss rng(seed);
  const mc::EnergyGrid grid(-3.0, 7.0, 50);
  mc::DensityOfStates dos(grid);
  for (std::int32_t b = 0; b < grid.n_bins(); ++b)
    if (uniform01(rng) < 0.6)
      dos.set(b, units::LogDoS(1000.0 * (2.0 * uniform01(rng) - 1.0)));
  std::stringstream ss;
  dos.save(ss);
  const auto back = mc::DensityOfStates::load(ss);
  ASSERT_EQ(back.grid(), grid);
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    ASSERT_EQ(back.visited(b), dos.visited(b));
    if (dos.visited(b)) {
      // Text round trip: values agree to printed precision.
      EXPECT_NEAR(back.log_g(b).value(), dos.log_g(b).value(),
                  1e-4 * std::abs(dos.log_g(b).value()) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11u, 23u, 47u, 101u));

}  // namespace
}  // namespace dt
