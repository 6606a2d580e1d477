#include "core/vae_proposal.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "mc/metropolis.hpp"
#include "validate/oracle.hpp"

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

/// Sum of exp(sequential_log_density) over every arrangement of the
/// species counts `counts` across the sites of `probs`.
double total_density(const std::vector<float>& probs,
                     std::vector<std::int32_t> counts) {
  const int s = static_cast<int>(counts.size());
  std::size_t n = 0;
  for (const std::int32_t c : counts) n += static_cast<std::size_t>(c);
  std::vector<std::uint8_t> occ(n);
  double total = 0.0;
  // Depth-first over the sites: each site takes any species with count
  // left, so every distinct arrangement is visited exactly once.
  const auto place = [&](const auto& self, std::size_t site) -> void {
    if (site == n) {
      total += std::exp(
          VaeProposal::sequential_log_density(probs, occ, s).value());
      return;
    }
    for (int k = 0; k < s; ++k) {
      auto& left = counts[static_cast<std::size_t>(k)];
      if (left == 0) continue;
      --left;
      occ[site] = static_cast<std::uint8_t>(k);
      self(self, site + 1);
      ++left;
    }
  };
  place(place, 0);
  return total;
}

TEST(SequentialDensity, NormalizesOverAllArrangements) {
  // 4 sites, composition {2,2}: 6 arrangements. The constrained
  // sequential process must define a proper distribution: the densities
  // of all arrangements sum to 1 for ANY site-probability table.
  Xoshiro256ss rng(1);
  std::vector<float> probs(8);
  for (auto& p : probs) p = 0.05f + 0.9f * static_cast<float>(uniform01(rng));
  // Normalise per site.
  for (int site = 0; site < 4; ++site) {
    const float s = probs[static_cast<std::size_t>(2 * site)] +
                    probs[static_cast<std::size_t>(2 * site + 1)];
    probs[static_cast<std::size_t>(2 * site)] /= s;
    probs[static_cast<std::size_t>(2 * site + 1)] /= s;
  }
  EXPECT_NEAR(total_density(probs, {2, 2}), 1.0, 1e-9);
}

TEST(SequentialDensity, ThreeSpeciesNormalizes) {
  Xoshiro256ss rng(2);
  const int n = 6, s = 3;
  std::vector<float> probs(static_cast<std::size_t>(n * s));
  for (auto& p : probs) p = 0.1f + static_cast<float>(uniform01(rng));
  EXPECT_NEAR(total_density(probs, {2, 2, 2}), 1.0, 1e-9);
}

TEST(SequentialDensity, FourSpeciesNormalizes) {
  // The quaternary instantiation, at the dilute composition of the
  // quaternary balance audit.
  Xoshiro256ss rng(3);
  const int n = 6, s = 4;
  std::vector<float> probs(static_cast<std::size_t>(n * s));
  for (auto& p : probs) p = 0.1f + static_cast<float>(uniform01(rng));
  EXPECT_NEAR(total_density(probs, {3, 1, 1, 1}), 1.0, 1e-9);
}

TEST(SequentialDensity, UniformProbsGiveUniformArrangements) {
  const std::vector<float> probs(8, 0.5f);
  const std::vector<std::uint8_t> a = {0, 1, 0, 1};
  const std::vector<std::uint8_t> b = {1, 1, 0, 0};
  EXPECT_NEAR(VaeProposal::sequential_log_density(probs, a, 2).value(),
              VaeProposal::sequential_log_density(probs, b, 2).value(), 1e-9);
  // 6 arrangements, each probability 1/6.
  EXPECT_NEAR(VaeProposal::sequential_log_density(probs, a, 2).value(),
              std::log(1.0 / 6.0), 1e-9);
}

TEST(VaeProposal, PreservesCompositionAndReverts) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  // 4-species Hamiltonian to match the 4-species configuration (a
  // 2-species table would be indexed out of bounds).
  const auto ham = lattice::random_epi(4, 1, 0.1, 9);
  auto vae = make_vae(lat.num_sites(), 4, 3);
  VaeProposal prop(ham, vae);

  mc::Rng rng(4, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  const std::vector<std::int32_t> comp(cfg.composition().begin(),
                                       cfg.composition().end());
  const std::vector<std::uint8_t> snapshot(cfg.occupancy().begin(),
                                           cfg.occupancy().end());

  for (int i = 0; i < 50; ++i) {
    const auto r = prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
    ASSERT_TRUE(r.valid);
    const std::vector<std::int32_t> now(cfg.composition().begin(),
                                        cfg.composition().end());
    ASSERT_EQ(now, comp) << "composition broken at " << i;
    prop.revert(cfg);
    const std::vector<std::uint8_t> occ(cfg.occupancy().begin(),
                                        cfg.occupancy().end());
    ASSERT_EQ(occ, snapshot);
  }
  EXPECT_EQ(prop.stats().proposed, 50u);
  EXPECT_EQ(prop.stats().reverted, 50u);
}

TEST(VaeProposal, DeltaEnergyIsExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(3, 1, 0.2, 5);
  auto vae = make_vae(lat.num_sites(), 3, 6);
  VaeProposal prop(ham, vae);
  mc::Rng rng(7, 0);
  auto cfg = lattice::random_configuration(lat, 3, rng);
  double energy = ham.total_energy(cfg);
  for (int i = 0; i < 30; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    energy += r.delta_energy.value();
    ASSERT_NEAR(energy, ham.total_energy(cfg), 1e-8);
  }
}

TEST(VaeProposal, LogQRatioIsFinite) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  auto vae = make_vae(lat.num_sites(), 2, 8);
  VaeProposal prop(ham, vae);
  mc::Rng rng(9, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  for (int i = 0; i < 50; ++i) {
    const auto r = prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
    EXPECT_TRUE(std::isfinite(r.log_q_ratio.value()));
    prop.revert(cfg);
  }
}

// THE correctness test: Metropolis driven purely by the (untrained) VAE
// kernel must sample the exact Boltzmann distribution. Any error in the
// q-ratio accounting shows up here as a systematic bias.
TEST(VaeProposal, SatisfiesDetailedBalanceEmpirically) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const int n = lat.num_sites();
  const double temperature = 8.0;

  // Exact Boltzmann level marginals from the shared enumeration oracle.
  const auto oracle = validate::ExactOracle::get(
      ham, lat, validate::equiatomic_composition(n, 2));
  const auto probs = oracle->level_probabilities(units::Temperature(temperature));

  auto vae = make_vae(n, 2, 123);
  VaeProposal prop(ham, vae);
  mc::Rng rng(99, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  mc::MetropolisSampler sampler(ham, cfg, units::Temperature(temperature),
                                mc::Rng(99, 1));

  std::map<long long, double> counts;
  const int steps = 150000;
  for (int s = 0; s < 2000; ++s) sampler.step(prop);  // burn-in
  for (int s = 0; s < steps; ++s) {
    sampler.step(prop);
    counts[std::llround(4 * sampler.energy().value())] += 1.0;
  }
  EXPECT_NEAR(sampler.energy().value(), sampler.recompute_energy().value(), 1e-7);

  const auto& levels = oracle->levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const long long k = std::llround(4 * levels[i].energy);
    const double got = (counts.count(k) ? counts[k] : 0.0) / steps;
    EXPECT_NEAR(got, probs[i], 0.012) << "level " << levels[i].energy;
  }
  // An independence-style global kernel on a tiny system accepts often.
  EXPECT_GT(prop.stats().acceptance_rate(), 0.05);
}

TEST(VaeProposal, RejectsMismatchedGeometry) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  auto vae = make_vae(8, 2, 10);  // wrong n_sites
  VaeProposal prop(ham, vae);
  mc::Rng rng(11, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  EXPECT_THROW((void)prop.propose(cfg, units::Energy(0.0), rng), dt::Error);

  // Two coupling shells on a lattice that resolves one.
  const auto two_shells = lattice::epi_ising(1.0, 2);
  VaeProposal deep(two_shells, make_vae(lat.num_sites(), 2, 10));
  EXPECT_THROW((void)deep.propose(cfg, units::Energy(0.0), rng), dt::Error);
}

// ---- decode-ahead fast path: RNG stream discipline ----

/// Drive `prop` for `steps` proposals from a fresh chain and record the
/// trajectory fingerprint: occupancies, MH numbers, and the physics
/// stream position after every step.
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
    // Accept everything: the fingerprint must cover mutated states.
    t.occupancies.emplace_back(cfg.occupancy().begin(),
                               cfg.occupancy().end());
    t.delta_energies.push_back(r.delta_energy.value());
    t.log_q_ratios.push_back(r.log_q_ratio.value());
    t.rng_positions.push_back(rng.position());
  }
  return t;
}

TEST(VaeProposalFastPath, DecodeBatchNeverChangesTheTrajectory) {
  // The core stream-discipline guarantee: latents and sampling uniforms
  // ride derived streams indexed by the proposal ordinal, so every K --
  // below, at and past one pass of sampling lanes -- gives bitwise-
  // identical trajectories, and the physics stream is never drawn.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);

  std::vector<Trajectory> runs;
  for (const std::int32_t k : {1, 3, 8, 16, 17}) {
    VaeProposal prop(ham, vae);
    prop.set_decode_batch(k);
    mc::Rng rng(11, 0);
    auto cfg = lattice::random_configuration(lat, 4, rng);
    const std::uint64_t start = rng.position();
    runs.push_back(run_trajectory(prop, ham, 40, rng, cfg));
    EXPECT_EQ(rng.position(), start) << "K=" << k;
  }
  for (std::size_t r = 1; r < runs.size(); ++r)
    EXPECT_EQ(runs[0], runs[r]) << "run " << r;
}

TEST(VaeProposalFastPath, InvalidateClearsLastProbsAndIsTrajectoryNeutral) {
  // Regression: invalidate_decode_cache() used to leave last_probs()
  // pointing at the stale pre-invalidation rows. It must clear the span
  // (the rows no longer correspond to any served proposal) without
  // disturbing the trajectory -- the next propose() re-decodes from the
  // derived latent stream at the same ordinal.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 21);
  auto vae = make_vae(lat.num_sites(), 4, 77);

  VaeProposal ref(ham, vae);
  ref.set_decode_batch(4);
  mc::Rng ref_rng(11, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  const auto want = run_trajectory(ref, ham, 12, ref_rng, ref_cfg);

  VaeProposal prop(ham, vae);
  prop.set_decode_batch(4);
  mc::Rng rng(11, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  auto got = run_trajectory(prop, ham, 5, rng, cfg);
  EXPECT_FALSE(prop.last_probs().empty());

  prop.invalidate_decode_cache();
  EXPECT_TRUE(prop.last_probs().empty());  // the regression assertion

  const auto rest = run_trajectory(prop, ham, 7, rng, cfg);
  got.occupancies.insert(got.occupancies.end(), rest.occupancies.begin(),
                         rest.occupancies.end());
  got.delta_energies.insert(got.delta_energies.end(),
                            rest.delta_energies.begin(),
                            rest.delta_energies.end());
  got.log_q_ratios.insert(got.log_q_ratios.end(), rest.log_q_ratios.begin(),
                          rest.log_q_ratios.end());
  got.rng_positions.insert(got.rng_positions.end(),
                           rest.rng_positions.begin(),
                           rest.rng_positions.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(prop.last_probs().empty());  // serving resumed
}

TEST(VaeProposalFastPath, SaveLoadResumesBitExact) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 33);
  auto vae = make_vae(lat.num_sites(), 4, 5);
  constexpr int kHead = 7, kTail = 15;

  // Reference: one uninterrupted run.
  VaeProposal ref(ham, vae);
  mc::Rng ref_rng(3, 0);
  auto ref_cfg = lattice::random_configuration(lat, 4, ref_rng);
  const auto seed_occ = std::vector<std::uint8_t>(ref_cfg.occupancy().begin(),
                                                  ref_cfg.occupancy().end());
  const std::uint64_t seed_pos = ref_rng.position();
  (void)run_trajectory(ref, ham, kHead, ref_rng, ref_cfg);
  const auto want = run_trajectory(ref, ham, kTail, ref_rng, ref_cfg);

  // Interrupted run: kHead proposals, checkpoint, restore into a FRESH
  // kernel with a different decode batch, continue.
  VaeProposal first(ham, vae);
  mc::Rng rng(3, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  (void)run_trajectory(first, ham, kHead, rng, cfg);
  std::stringstream state;
  first.save_state(state);
  EXPECT_EQ(first.served(), static_cast<std::uint64_t>(kHead));

  VaeProposal resumed(ham, vae);
  resumed.set_decode_batch(3);  // K is a pure perf knob, also on resume
  resumed.load_state(state);
  EXPECT_EQ(resumed.served(), static_cast<std::uint64_t>(kHead));
  EXPECT_EQ(resumed.stats().proposed, static_cast<std::uint64_t>(kHead));
  // Walker state (cfg + rng) is checkpointed by the REWL driver; emulate
  // its restore.
  mc::Rng resumed_rng(3, 0);
  resumed_rng.seek(rng.position());
  auto resumed_cfg = ref_cfg;  // placeholder shape; overwritten next line
  resumed_cfg.assign(cfg.occupancy());
  const auto got =
      run_trajectory(resumed, ham, kTail, resumed_rng, resumed_cfg);
  EXPECT_EQ(got, want);

  // Sanity: the resumed kernel really served the tail, and VAE moves
  // left the physics stream where the configuration draw left it.
  EXPECT_EQ(resumed.served(), static_cast<std::uint64_t>(kHead + kTail));
  EXPECT_EQ(rng.position(), seed_pos);
  EXPECT_EQ(resumed_rng.position(), seed_pos);
  EXPECT_FALSE(seed_occ.empty());
}

/// FNV-1a digests of `steps` proposals (odd ones reverted, so the saved
/// state varies): `chain` over the candidate occupancies and the served
/// ordinal, `log_q` over the log_q_ratio bits. The energy is
/// deliberately left out: it may move in the last ulps when the energy
/// path changes, the sampled chain may not.
struct SamplingDigest {
  std::uint64_t chain = 0xcbf29ce484222325ULL;
  std::uint64_t log_q = 0xcbf29ce484222325ULL;
};

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

SamplingDigest sampling_digest(int n_species, std::uint64_t ham_seed,
                               std::uint64_t vae_seed, std::uint64_t rng_seed,
                               int steps) {
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  const auto ham = lattice::random_epi(n_species, 2, 0.2, ham_seed);
  auto vae = make_vae(lat.num_sites(), n_species, vae_seed);
  VaeProposal prop(ham, vae);
  mc::Rng rng(rng_seed, 0);
  auto cfg = lattice::random_configuration(lat, n_species, rng);
  double energy = ham.total_energy(cfg);
  SamplingDigest d;
  for (int i = 0; i < steps; ++i) {
    const auto r = prop.propose(cfg, units::Energy(energy), rng);
    for (const std::uint8_t sp : cfg.occupancy()) fnv1a(d.chain, sp);
    fnv1a(d.chain, prop.served());
    fnv1a(d.log_q, std::bit_cast<std::uint64_t>(r.log_q_ratio.value()));
    if (i % 2 == 1) {
      prop.revert(cfg);
    } else {
      energy += r.delta_energy.value();
    }
  }
  return d;
}

TEST(VaeProposalFastPath, SamplingMatchesGoldenHash) {
  // The candidates, ordinals and log_q_ratio of s = 4 (the quaternary
  // instantiation) and s = 3 (the generic one) are pinned bit for bit:
  // a change to the energy path must leave the sampling untouched.
  const auto quaternary = sampling_digest(4, 41, 42, 43, 200);
  const auto ternary = sampling_digest(3, 51, 52, 53, 200);
  EXPECT_EQ(quaternary.chain, 0xc732cffa55d7f9edULL);
  EXPECT_EQ(ternary.chain, 0x20f1fb5f78db498dULL);
#if defined(__OPTIMIZE__) && defined(__FP_FAST_FMA)
  // The log q bits depend on whether the compiler contracts a*b + c
  // into an FMA, so they are pinned for the optimised FMA builds they
  // were recorded with.
  EXPECT_EQ(quaternary.log_q, 0x3f38d1dc6659c79dULL);
  EXPECT_EQ(ternary.log_q, 0x559ed1b2cc4d3186ULL);
#endif
}

/// One proposal drawn the scalar way: what a sampling lane must
/// reproduce bit for bit.
struct ScalarDraw {
  std::vector<std::uint8_t> candidate;
  double log_q = 0.0;  // forward: ln q(candidate | z)
};

/// The constrained sequential sampler, one site at a time, for proposal
/// `ordinal` of a walker whose sampling stream has key `key`: site i
/// reads words 2i, 2i+1 of the window starting at ordinal * W, W = 2n
/// rounded up to whole Philox blocks. The pick is the last species with
/// budget whose cumulative interval starts at or below u * norm.
ScalarDraw scalar_draw(std::span<const float> probs,
                       std::span<const std::int32_t> composition,
                       const std::array<std::uint32_t, 2>& key,
                       std::uint64_t ordinal) {
  const std::size_t s = composition.size();
  const std::size_t n = probs.size() / s;
  mc::Rng rng;
  rng.set_key(key);
  rng.seek(ordinal * ((2 * n + 3) / 4 * 4));
  std::vector<double> rem(composition.begin(), composition.end());
  std::vector<double> w(s);
  std::vector<double> start(s);
  ScalarDraw d;
  double run = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u01 = uniform01(rng);
    double norm = 0.0;
    for (std::size_t k = 0; k < s; ++k) {
      w[k] = static_cast<double>(probs[i * s + k]) * rem[k];
      start[k] = norm;
      norm += w[k];
    }
    const double u = u01 * norm;
    std::size_t chosen = 0;
    for (std::size_t k = 1; k < s; ++k)
      if (u >= start[k] && rem[k] > 0.0) chosen = k;
    run *= w[chosen] / norm;
    if (run < 1e-270) {
      d.log_q += std::log(run);
      run = 1.0;
    }
    rem[chosen] -= 1.0;
    d.candidate.push_back(static_cast<std::uint8_t>(chosen));
  }
  d.log_q += std::log(run);
  return d;
}

TEST(VaeProposalLanes, MatchTheScalarSampler) {
  // Every lane of every pass -- one lane (K = 1), a partial pass (5), a
  // full pass (16) and a pass plus one (17) -- draws exactly the scalar
  // sampler's candidate, prices it at total_energy and reports its
  // forward log q. 54 sites span two uniform chunks and a byte-counter
  // flush; two shells add second-neighbour counts.
  const auto lat = Lattice::create(LatticeType::kBCC, 3, 3, 3, 2);
  for (const int n_species : {2, 3, 4}) {
    const auto seed = static_cast<std::uint64_t>(n_species);
    const auto ham = lattice::random_epi(n_species, 2, 0.2, 60 + seed);
    auto vae = make_vae(lat.num_sites(), n_species, 70 + seed);
    for (const std::int32_t k : {1, 5, 16, 17}) {
      VaeProposal prop(ham, vae);
      prop.set_decode_batch(k);
      mc::Rng rng(81, seed);
      auto cfg = lattice::random_configuration(lat, n_species, rng);
      const std::vector<std::int32_t> comp(cfg.composition().begin(),
                                           cfg.composition().end());
      for (int i = 0; i < 36; ++i) {
        const std::vector<std::uint8_t> before(cfg.occupancy().begin(),
                                               cfg.occupancy().end());
        const double current = ham.total_energy(cfg);
        const auto r = prop.propose(cfg, units::Energy(current), rng);
        const auto probs = prop.last_probs();
        const auto want = scalar_draw(probs, comp,
                                      VaeProposal::sampling_key(rng.key()),
                                      prop.served() - 1);
        const std::vector<std::uint8_t> got(cfg.occupancy().begin(),
                                            cfg.occupancy().end());
        ASSERT_EQ(got, want.candidate)
            << "S=" << n_species << " K=" << k << " proposal " << i;
        EXPECT_EQ(r.delta_energy.value(), ham.total_energy(cfg) - current);
        const double log_q_rev =
            VaeProposal::sequential_log_density(probs, before, n_species)
                .value();
        EXPECT_NEAR(r.log_q_ratio.value(), log_q_rev - want.log_q, 1e-12)
            << "S=" << n_species << " K=" << k << " proposal " << i;
        if (i % 3 == 0) prop.revert(cfg);
      }
    }
  }
}

TEST(VaeProposalFastPath, CompositionChangeInvalidatesTheCandidates) {
  // The candidates start from the state's species counts, so a new
  // composition must redraw them: the proposal after the change equals
  // a fresh kernel's at the same ordinal, and keeps the new composition.
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 2);
  const auto ham = lattice::random_epi(4, 2, 0.2, 91);
  auto vae = make_vae(lat.num_sites(), 4, 92);

  VaeProposal prop(ham, vae);
  mc::Rng rng(93, 0);
  auto cfg = lattice::random_configuration(lat, 4, rng);
  for (int i = 0; i < 3; ++i) {
    (void)prop.propose(cfg, units::Energy(ham.total_energy(cfg)), rng);
    prop.revert(cfg);
  }
  std::stringstream state;
  prop.save_state(state);

  const std::vector<double> dilute = {0.625, 0.125, 0.125, 0.125};
  auto other = lattice::random_configuration(lat, 4, rng, dilute);
  const std::vector<std::int32_t> other_comp(other.composition().begin(),
                                             other.composition().end());
  ASSERT_NE(other_comp, std::vector<std::int32_t>(cfg.composition().begin(),
                                                  cfg.composition().end()));
  auto fresh_cfg = other;
  const double energy = ham.total_energy(other);
  const auto got = prop.propose(other, units::Energy(energy), rng);

  VaeProposal fresh(ham, vae);
  fresh.load_state(state);
  const auto want = fresh.propose(fresh_cfg, units::Energy(energy), rng);
  EXPECT_EQ(std::vector<std::uint8_t>(other.occupancy().begin(),
                                      other.occupancy().end()),
            std::vector<std::uint8_t>(fresh_cfg.occupancy().begin(),
                                      fresh_cfg.occupancy().end()));
  EXPECT_EQ(std::vector<std::int32_t>(other.composition().begin(),
                                      other.composition().end()),
            other_comp);
  EXPECT_EQ(got.delta_energy.value(), want.delta_energy.value());
  EXPECT_EQ(got.log_q_ratio.value(), want.log_q_ratio.value());
}

TEST(VaeProposalFastPath, AuditEveryProposalPasses) {
  // Audit cadence 1: every candidate energy counted during sampling is
  // checked against total_energy bit for bit; a mismatch aborts via
  // DT_CHECK. The energies being equal, Delta E is exactly
  // total_energy(candidate) - current. s = 3 runs the generic sampler
  // instantiation, s = 4 the quaternary one; the 2-cell supercell's
  // second shell holds duplicate periodic images.
  for (const int cells : {2, 3}) {
    const auto lat = Lattice::create(LatticeType::kBCC, cells, cells, cells, 2);
    for (const int n_species : {3, 4}) {
      const auto ham = lattice::random_epi(n_species, 2, 0.3, 8);
      auto vae = make_vae(lat.num_sites(), n_species, 12);
      VaeProposal prop(ham, vae);
      prop.set_audit_interval(1);
      mc::Rng rng(19, 0);
      auto cfg = lattice::random_configuration(lat, n_species, rng);
      double energy = ham.total_energy(cfg);
      for (int i = 0; i < 40; ++i) {
        const auto r = prop.propose(cfg, units::Energy(energy), rng);
        const double full = ham.total_energy(cfg);
        ASSERT_EQ(r.delta_energy.value(), full - energy)
            << "cells=" << cells << " S=" << n_species << " proposal " << i;
        if (i % 3 == 0) {
          prop.revert(cfg);
        } else {
          energy = full;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dt::core
