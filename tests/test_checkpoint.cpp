// Checkpoint/restart of the Wang-Landau sampler: a restored run must be
// bit-exactly identical to the uninterrupted one (including the RNG
// stream position -- the counter-based generator makes this testable).
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "mc/wang_landau.hpp"

namespace dt::mc {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

struct TestSystem {
  Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  EnergyGrid grid{-0.5, 64.5, 80};
};

WangLandauSampler make_sampler(const TestSystem& setup, Configuration& cfg,
                               std::uint64_t seed) {
  WangLandauOptions opts;
  opts.log_f_final = 1e-5;
  return WangLandauSampler(setup.ham, cfg, setup.grid, opts,
                           Rng(seed, 9));
}

TEST(PhiloxState, PositionRoundTrip) {
  Philox4x32 g(3, 4);
  EXPECT_EQ(g.position(), 0u);
  std::vector<std::uint32_t> draws(23);
  for (auto& d : draws) d = g();
  EXPECT_EQ(g.position(), 23u);

  Philox4x32 h(0, 0);
  h.set_key(g.key());
  h.seek(10);
  for (std::size_t i = 10; i < draws.size(); ++i)
    EXPECT_EQ(h(), draws[i]) << "draw " << i;
}

TEST(Checkpoint, ResumedRunIsBitExact) {
  const TestSystem setup;
  // Reference: 400 sweeps straight through.
  Rng init(1, 0);
  auto cfg_ref = lattice::random_configuration(setup.lat, 2, init);
  auto wl_ref = make_sampler(setup, cfg_ref, 77);
  LocalSwapProposal kernel_ref(setup.ham);
  wl_ref.advance(kernel_ref, 400);

  // Checkpointed: 150 sweeps, save, restore into a FRESH sampler with a
  // different initial configuration/seed, 250 more sweeps.
  Rng init2(1, 0);
  auto cfg_a = lattice::random_configuration(setup.lat, 2, init2);
  auto wl_a = make_sampler(setup, cfg_a, 77);
  LocalSwapProposal kernel_a(setup.ham);
  wl_a.advance(kernel_a, 150);
  std::stringstream checkpoint;
  wl_a.save_state(checkpoint);

  Rng init3(999, 0);
  auto cfg_b = lattice::random_configuration(setup.lat, 2, init3);
  auto wl_b = make_sampler(setup, cfg_b, 12345);  // seed overwritten by load
  wl_b.load_state(checkpoint);
  LocalSwapProposal kernel_b(setup.ham);
  wl_b.advance(kernel_b, 250);

  EXPECT_EQ(wl_ref.energy(), wl_b.energy());
  EXPECT_EQ(wl_ref.stats().sweeps, wl_b.stats().sweeps);
  EXPECT_EQ(wl_ref.stats().accepted, wl_b.stats().accepted);
  EXPECT_EQ(wl_ref.stats().attempted, wl_b.stats().attempted);
  EXPECT_EQ(wl_ref.log_f(), wl_b.log_f());
  for (std::int32_t b = 0; b < setup.grid.n_bins(); ++b) {
    ASSERT_EQ(wl_ref.dos().visited(b), wl_b.dos().visited(b)) << "bin " << b;
    if (wl_ref.dos().visited(b)) {
      ASSERT_EQ(wl_ref.dos().log_g(b), wl_b.dos().log_g(b)) << "bin " << b;
    }
  }
  EXPECT_TRUE(wl_ref.configuration() == wl_b.configuration());
}

TEST(Checkpoint, SurvivesScheduleBoundaries) {
  // Save inside the 1/t phase and resume; convergence point must match.
  const TestSystem setup;
  Rng init(2, 0);
  auto cfg_ref = lattice::random_configuration(setup.lat, 2, init);
  auto wl_ref = make_sampler(setup, cfg_ref, 5);
  LocalSwapProposal kernel(setup.ham);
  const bool ref_conv = wl_ref.advance(kernel, 30000);

  Rng init2(2, 0);
  auto cfg_a = lattice::random_configuration(setup.lat, 2, init2);
  auto wl_a = make_sampler(setup, cfg_a, 5);
  wl_a.advance(kernel, 5000);
  std::stringstream checkpoint;
  wl_a.save_state(checkpoint);

  Rng init3(2, 0);
  auto cfg_b = lattice::random_configuration(setup.lat, 2, init3);
  auto wl_b = make_sampler(setup, cfg_b, 5);
  wl_b.load_state(checkpoint);
  const bool resumed_conv = wl_b.advance(kernel, 25000);

  EXPECT_EQ(ref_conv, resumed_conv);
  EXPECT_EQ(wl_ref.stats().sweeps, wl_b.stats().sweeps);
  EXPECT_EQ(wl_ref.log_f(), wl_b.log_f());
}

TEST(Checkpoint, RejectsMismatchedGeometry) {
  const TestSystem setup;
  Rng init(3, 0);
  auto cfg = lattice::random_configuration(setup.lat, 2, init);
  auto wl = make_sampler(setup, cfg, 1);
  LocalSwapProposal kernel(setup.ham);
  wl.advance(kernel, 10);
  std::stringstream checkpoint;
  wl.save_state(checkpoint);

  const EnergyGrid other_grid(-0.5, 64.5, 90);
  auto cfg2 = lattice::random_configuration(setup.lat, 2, init);
  WangLandauOptions opts;
  WangLandauSampler other(setup.ham, cfg2, other_grid, opts, Rng(1, 9));
  EXPECT_THROW(other.load_state(checkpoint), dt::Error);
}

TEST(Checkpoint, RejectsGarbage) {
  const TestSystem setup;
  Rng init(4, 0);
  auto cfg = lattice::random_configuration(setup.lat, 2, init);
  auto wl = make_sampler(setup, cfg, 1);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(wl.load_state(garbage), dt::Error);
}

TEST(Checkpoint, DetectsCorruptedPayload) {
  const TestSystem setup;
  Rng init(5, 0);
  auto cfg = lattice::random_configuration(setup.lat, 2, init);
  auto wl = make_sampler(setup, cfg, 2);
  LocalSwapProposal kernel(setup.ham);
  wl.advance(kernel, 20);
  std::stringstream checkpoint;
  wl.save_state(checkpoint);
  std::string blob = checkpoint.str();
  blob.resize(blob.size() / 2);  // truncate
  std::stringstream truncated(blob);
  auto cfg2 = lattice::random_configuration(setup.lat, 2, init);
  auto wl2 = make_sampler(setup, cfg2, 2);
  EXPECT_THROW(wl2.load_state(truncated), dt::Error);
}

}  // namespace
}  // namespace dt::mc
