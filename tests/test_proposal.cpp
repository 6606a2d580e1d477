#include "mc/proposal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "mc/metropolis.hpp"
#include "validate/oracle.hpp"

namespace dt::mc {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

Lattice bcc3() { return Lattice::create(LatticeType::kBCC, 3, 3, 3, 1); }

std::vector<std::int32_t> composition_of(const Configuration& cfg) {
  return {cfg.composition().begin(), cfg.composition().end()};
}

TEST(LocalSwap, PreservesComposition) {
  const auto lat = bcc3();
  const auto ham = lattice::epi_ising(1.0);
  Rng rng(1, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  const auto before = composition_of(cfg);

  LocalSwapProposal prop(ham);
  for (int i = 0; i < 500; ++i) {
    const auto r = prop.propose(cfg, units::Energy(0.0), rng);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(composition_of(cfg), before);
    EXPECT_DOUBLE_EQ(r.log_q_ratio.value(), 0.0);  // symmetric kernel
  }
}

TEST(LocalSwap, RevertRestoresExactState) {
  const auto lat = bcc3();
  // 4-species Hamiltonian to match the 4-species configuration (a
  // 2-species table would be indexed out of bounds).
  const auto ham = lattice::random_epi(4, 1, 0.1, 11);
  Rng rng(2, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  const std::vector<std::uint8_t> snapshot(cfg.occupancy().begin(),
                                           cfg.occupancy().end());

  LocalSwapProposal prop(ham);
  for (int i = 0; i < 100; ++i) {
    (void)prop.propose(cfg, units::Energy(0.0), rng);
    prop.revert(cfg);
    const std::vector<std::uint8_t> now(cfg.occupancy().begin(),
                                        cfg.occupancy().end());
    ASSERT_EQ(now, snapshot);
  }
}

TEST(LocalSwap, DeltaEnergyIsExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = lattice::random_epi(4, 2, 0.2, 3);
  Rng rng(3, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  double energy = ham.total_energy(cfg);

  LocalSwapProposal prop(ham);
  for (int i = 0; i < 300; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    ASSERT_TRUE(r.valid);
    energy += r.delta_energy.value();
    ASSERT_NEAR(energy, ham.total_energy(cfg), 1e-8);
  }
}

TEST(LocalSwap, SingleSpeciesGivesInvalid) {
  const auto lat = bcc3();
  const auto ham = lattice::epi_ising(1.0);
  Configuration cfg(lat, 2);  // all species 0
  Rng rng(4, 0);
  LocalSwapProposal prop(ham);
  const auto r = prop.propose(cfg, units::Energy(0.0), rng);
  EXPECT_FALSE(r.valid);
}

TEST(LocalSwap, ProposedSitesAlwaysDiffer) {
  const auto lat = bcc3();
  const auto ham = lattice::epi_ising(1.0);
  Rng rng(5, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  LocalSwapProposal prop(ham);
  for (int i = 0; i < 200; ++i) {
    const auto snapshot = std::vector<std::uint8_t>(cfg.occupancy().begin(),
                                                    cfg.occupancy().end());
    const auto r = prop.propose(cfg, units::Energy(0.0), rng);
    ASSERT_TRUE(r.valid);
    const auto now = std::vector<std::uint8_t>(cfg.occupancy().begin(),
                                               cfg.occupancy().end());
    // A valid swap always changes exactly two sites.
    int changed = 0;
    for (std::size_t k = 0; k < now.size(); ++k)
      if (now[k] != snapshot[k]) ++changed;
    EXPECT_EQ(changed, 2);
    prop.revert(cfg);
  }
}

TEST(BlockSwap, PreservesCompositionAndReverts) {
  const auto lat = Lattice::create(LatticeType::kBCC, 4, 4, 4, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 13);
  Rng rng(6, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  const auto before = composition_of(cfg);
  const std::vector<std::uint8_t> snapshot(cfg.occupancy().begin(),
                                           cfg.occupancy().end());

  BlockSwapProposal prop(ham, /*block_cells=*/2, /*n_swaps=*/6);
  for (int i = 0; i < 100; ++i) {
    const auto r = prop.propose(cfg, units::Energy(0.0), rng);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(composition_of(cfg), before);
    prop.revert(cfg);
    const std::vector<std::uint8_t> now(cfg.occupancy().begin(),
                                        cfg.occupancy().end());
    ASSERT_EQ(now, snapshot);
  }
}

TEST(BlockSwap, DeltaEnergyIsExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 4, 4, 4, 1);
  const auto ham = lattice::random_epi(3, 1, 0.3, 17);
  Rng rng(7, 0);
  auto cfg = lattice::random_configuration(lat, 3, rng);
  double energy = ham.total_energy(cfg);
  BlockSwapProposal prop(ham, 2, 8);
  for (int i = 0; i < 100; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
    ASSERT_NEAR(energy, ham.total_energy(cfg), 1e-8);
  }
}

// The decisive correctness test for any kernel: Metropolis sampling with
// it must reproduce the exact Boltzmann distribution on an enumerable
// system (2x2x2 BCC Ising, 16 sites, C(16,8)=12870 states).
class KernelBoltzmann : public ::testing::TestWithParam<int> {};

TEST_P(KernelBoltzmann, EmpiricalEnergyDistributionMatchesExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const double temperature = 10.0;

  // Exact Boltzmann level marginals from the shared enumeration oracle.
  const auto oracle = validate::ExactOracle::get(
      ham, lat, validate::equiatomic_composition(lat.num_sites(), 2));
  const auto probs = oracle->level_probabilities(units::Temperature(temperature));

  Rng rng(100 + static_cast<std::uint64_t>(GetParam()), 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  MetropolisSampler sampler(ham, cfg, units::Temperature(temperature),
                            Rng(200 + static_cast<std::uint64_t>(GetParam()), 1));

  LocalSwapProposal local(ham);
  BlockSwapProposal block(ham, 2, 4);
  Proposal* kernels[] = {&local, &block};
  Proposal& kernel = *kernels[GetParam()];

  std::map<long long, double> counts;
  const int steps = 200000;
  for (int s = 0; s < steps; ++s) {
    sampler.step(kernel);
    counts[std::llround(4 * sampler.energy().value())] += 1.0;
  }

  const auto& levels = oracle->levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const long long k = std::llround(4 * levels[i].energy);
    const double got = (counts.count(k) ? counts[k] : 0.0) / steps;
    EXPECT_NEAR(got, probs[i], 0.012)
        << "energy level " << levels[i].energy;
  }
}

std::string kernel_name(const ::testing::TestParamInfo<int>& info) {
  return info.param == 0 ? "LocalSwap" : "BlockSwap";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelBoltzmann,
                         ::testing::Values(0, 1), kernel_name);

}  // namespace
}  // namespace dt::mc
