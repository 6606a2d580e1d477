// Cross-walker decode plane: the batched serve path must be bitwise
// identical to per-walker decoding for any walker count, decode batch
// size, batch composition, and thread interleaving; weight refreshes
// must invalidate the walkers' decode buffers; and checkpoint/resume
// must stay bit-exact through the plane. The concurrent tests double as
// the TSan workload for the plane's queue protocol (scripts/check.sh,
// tsan stage).
#include "core/decode_plane.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/vae_proposal.hpp"

namespace dt::core {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

std::shared_ptr<nn::Vae> make_vae(std::int32_t n_sites, int n_species,
                                  std::uint64_t seed) {
  nn::VaeOptions o;
  o.n_sites = n_sites;
  o.n_species = n_species;
  o.hidden = 24;
  o.latent = 4;
  return std::make_shared<nn::Vae>(o, seed);
}

/// Trajectory fingerprint (same shape as test_vae_proposal's): every
/// occupancy, MH number, and physics-stream position along the run.
struct Trajectory {
  std::vector<std::vector<std::uint8_t>> occupancies;
  std::vector<double> delta_energies;
  std::vector<double> log_q_ratios;
  std::vector<std::uint64_t> rng_positions;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_trajectory(VaeProposal& prop,
                          const lattice::EpiHamiltonian& ham, int steps,
                          mc::Rng& rng, Configuration& cfg) {
  Trajectory t;
  double energy = ham.total_energy(cfg);
  for (int i = 0; i < steps; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
    t.occupancies.emplace_back(cfg.occupancy().begin(),
                               cfg.occupancy().end());
    t.delta_energies.push_back(r.delta_energy.value());
    t.log_q_ratios.push_back(r.log_q_ratio.value());
    t.rng_positions.push_back(rng.position());
  }
  return t;
}

/// Per-walker reference: W independent plane-off trajectories, walker w
/// on physics stream (seed, w).
std::vector<Trajectory> reference_trajectories(
    const lattice::EpiHamiltonian& ham, const Lattice& lat,
    const std::shared_ptr<nn::Vae>& vae, int n_walkers, int steps,
    std::int32_t decode_batch) {
  std::vector<Trajectory> out;
  for (int w = 0; w < n_walkers; ++w) {
    VaeProposal prop(ham, vae);
    prop.set_decode_batch(decode_batch);
    mc::Rng rng(11, static_cast<std::uint64_t>(w));
    auto cfg = lattice::random_configuration(lat, 4, rng);
    out.push_back(run_trajectory(prop, ham, steps, rng, cfg));
  }
  return out;
}

TEST(DecodePlane, BitwiseEqualAcrossWalkerAndBatchCounts) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);
  constexpr int kSteps = 12;

  for (const int n_walkers : {1, 2, 3}) {
    for (const std::int32_t k : {std::int32_t{1}, std::int32_t{4}}) {
      const auto want =
          reference_trajectories(ham, lat, vae, n_walkers, kSteps, k);

      // Plane-on, single-threaded: walkers interleave proposal by
      // proposal, so every refill self-serves (leader = requester) and
      // prefetched requests from different walkers coalesce arbitrarily.
      auto plane = std::make_shared<DecodePlane>(vae);
      std::vector<std::unique_ptr<VaeProposal>> props;
      std::vector<mc::Rng> rngs;
      std::vector<Configuration> cfgs;
      std::vector<double> energies;
      std::vector<Trajectory> got(static_cast<std::size_t>(n_walkers));
      for (int w = 0; w < n_walkers; ++w) {
        props.push_back(std::make_unique<VaeProposal>(ham, vae));
        props.back()->set_decode_batch(k);
        props.back()->attach_decode_plane(plane);
        rngs.emplace_back(11, static_cast<std::uint64_t>(w));
        cfgs.push_back(lattice::random_configuration(lat, 4, rngs.back()));
        energies.push_back(ham.total_energy(cfgs.back()));
      }
      for (int step = 0; step < kSteps; ++step) {
        for (int w = 0; w < n_walkers; ++w) {
          const auto wi = static_cast<std::size_t>(w);
          const auto r =
              props[wi]->propose(cfgs[wi], units::Energy(energies[wi]), rngs[wi]);
          energies[wi] += r.delta_energy.value();
          got[wi].occupancies.emplace_back(cfgs[wi].occupancy().begin(),
                                           cfgs[wi].occupancy().end());
          got[wi].delta_energies.push_back(r.delta_energy.value());
          got[wi].log_q_ratios.push_back(r.log_q_ratio.value());
          got[wi].rng_positions.push_back(rngs[wi].position());
        }
      }
      for (int w = 0; w < n_walkers; ++w)
        EXPECT_EQ(got[static_cast<std::size_t>(w)],
                  want[static_cast<std::size_t>(w)])
            << "walkers=" << n_walkers << " K=" << k << " walker " << w;

      const auto st = plane->stats();
      EXPECT_GT(st.requests, 0u);
      EXPECT_GT(st.batches, 0u);
      // Every *served* request is >= 1 row, but `requests` also counts
      // prefetches cancelled at kernel destruction (at most one per
      // walker), whose rows are never decoded.
      EXPECT_GE(st.rows + static_cast<std::uint64_t>(n_walkers),
                st.requests);
      props.clear();  // detach before the plane dies
    }
  }
}

TEST(DecodePlane, ConcurrentWalkersStayBitwiseEqual) {
  // Free-running threads: batch composition and leader identity are
  // nondeterministic, the trajectories must not be. Also the TSan
  // workload for the queue protocol.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);
  constexpr int kWalkers = 3;
  constexpr int kSteps = 40;
  constexpr std::int32_t kBatch = 4;

  const auto want =
      reference_trajectories(ham, lat, vae, kWalkers, kSteps, kBatch);

  auto plane = std::make_shared<DecodePlane>(vae);
  std::vector<Trajectory> got(kWalkers);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWalkers; ++w) {
      threads.emplace_back([&, w] {
        VaeProposal prop(ham, vae);
        prop.set_decode_batch(kBatch);
        prop.attach_decode_plane(plane);
        mc::Rng rng(11, static_cast<std::uint64_t>(w));
        auto cfg = lattice::random_configuration(lat, 4, rng);
        got[static_cast<std::size_t>(w)] =
            run_trajectory(prop, ham, kSteps, rng, cfg);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int w = 0; w < kWalkers; ++w)
    EXPECT_EQ(got[static_cast<std::size_t>(w)],
              want[static_cast<std::size_t>(w)])
        << "walker " << w;
  EXPECT_EQ(plane->attached(), 0);
}

TEST(DecodePlane, WeightRefreshInvalidatesBuffers) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 33);
  constexpr int kHead = 6, kTail = 10;
  constexpr std::int32_t kBatch = 4;

  // "Retrained" weights: a differently-seeded model, serialized.
  std::string new_weights;
  {
    std::ostringstream os(std::ios::binary);
    make_vae(lat.num_sites(), 4, 901)->save(os);
    new_weights = std::move(os).str();
  }

  // Reference: plane-off walker whose shared VAE is swapped mid-run.
  auto vae_ref = make_vae(lat.num_sites(), 4, 77);
  VaeProposal ref(ham, vae_ref);
  ref.set_decode_batch(kBatch);
  mc::Rng ref_rng(11, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  (void)run_trajectory(ref, ham, kHead, ref_rng, ref_cfg);
  {
    std::istringstream is(new_weights, std::ios::binary);
    vae_ref->load(is);
  }
  ref.invalidate_decode_cache();
  const auto want = run_trajectory(ref, ham, kTail, ref_rng, ref_cfg);

  // Plane walker: same refresh through the framework's protocol --
  // invalidate (cancels the prefetch), refresh the plane replica, reload
  // the walker replica, continue.
  auto vae_walker = make_vae(lat.num_sites(), 4, 77);
  auto vae_plane = make_vae(lat.num_sites(), 4, 77);
  auto plane = std::make_shared<DecodePlane>(vae_plane);
  {
    VaeProposal prop(ham, vae_walker);
    prop.set_decode_batch(kBatch);
    prop.attach_decode_plane(plane);
    mc::Rng rng(11, 0);
    auto cfg = lattice::random_configuration(lat, 4, rng);
    (void)run_trajectory(prop, ham, kHead, rng, cfg);

    prop.invalidate_decode_cache();
    {
      std::istringstream is(new_weights, std::ios::binary);
      plane->refresh_weights(is);
    }
    {
      std::istringstream is(new_weights, std::ios::binary);
      vae_walker->load(is);
    }
    EXPECT_TRUE(prop.last_probs().empty())
        << "invalidate_decode_cache() must clear the last-probs span";

    const auto got = run_trajectory(prop, ham, kTail, rng, cfg);
    EXPECT_EQ(got, want);
  }
}

TEST(DecodePlane, SaveLoadResumesBitExactThroughPlane) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 33);
  auto vae = make_vae(lat.num_sites(), 4, 5);
  constexpr int kHead = 7, kTail = 15;

  // Reference: one uninterrupted plane-off run.
  VaeProposal ref(ham, vae);
  mc::Rng ref_rng(3, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  (void)run_trajectory(ref, ham, kHead, ref_rng, ref_cfg);
  const auto want = run_trajectory(ref, ham, kTail, ref_rng, ref_cfg);

  // Interrupted run THROUGH the plane, resumed into a fresh plane-backed
  // kernel with a different decode batch.
  auto plane = std::make_shared<DecodePlane>(vae);
  std::stringstream state;
  mc::Rng rng(3, 0);
  Configuration cfg = ref_cfg;
  {
    VaeProposal first(ham, vae);
    first.attach_decode_plane(plane);
    mc::Rng fresh(3, 0);
    auto run_cfg = lattice::random_configuration(lat, 4, fresh);
    (void)run_trajectory(first, ham, kHead, fresh, run_cfg);
    first.save_state(state);
    rng.seek(fresh.position());
    cfg.assign(run_cfg.occupancy());
  }
  VaeProposal resumed(ham, vae);
  resumed.set_decode_batch(3);
  resumed.attach_decode_plane(plane);
  resumed.load_state(state);
  EXPECT_EQ(resumed.served(), static_cast<std::uint64_t>(kHead));
  const auto got = run_trajectory(resumed, ham, kTail, rng, cfg);
  EXPECT_EQ(got, want);
}

TEST(DecodePlane, InvalidateClearsLastProbsSpan) {
  // Satellite regression (also asserted in test_vae_proposal without a
  // plane): after invalidate_decode_cache() the kernel must not hand out
  // rows decoded before the invalidation.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);
  auto plane = std::make_shared<DecodePlane>(vae);
  VaeProposal prop(ham, vae);
  prop.attach_decode_plane(plane);
  mc::Rng rng(11, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  (void)prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
  ASSERT_FALSE(prop.last_probs().empty());
  prop.invalidate_decode_cache();
  EXPECT_TRUE(prop.last_probs().empty());
}

}  // namespace
}  // namespace dt::core
