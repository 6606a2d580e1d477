// Oracle-tier detailed-balance acceptance tests: every registered
// proposal kernel -- local swap, block swap, the DeepThermo local+VAE
// mixture and the VAE decode-ahead global move -- is measured against
// pi(x)P(x->x') == pi(x')P(x'->x) on a fully enumerated state space,
// plus an exact audit of the VAE kernel's reverse-density bookkeeping
// via last_probs().
//
// Seeds derive from DT_TEST_SEED (see validate/stats.hpp); failures
// print the effective seed for reproduction.
#include "validate/balance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/mixed_kernel.hpp"
#include "mc/metropolis.hpp"
#include "nn/vae.hpp"
#include "validate/oracle.hpp"
#include "validate/stats.hpp"

namespace dt::validate {
namespace {

using lattice::Lattice;
using lattice::LatticeType;

// A dilute composition keeps the enumerated space small (C(16,2) = 120
// states) while the BCC shell structure still gives non-trivial spectra.
struct BalanceFixture {
  Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  std::vector<std::int32_t> comp = {14, 2};
  std::uint64_t seed = effective_test_seed(20260808);

  [[nodiscard]] BalanceOptions options() const {
    BalanceOptions o;
    o.temperature = 4.0;
    o.proposals_per_state = 600;
    // worst_z is a max over ~10^3 observed pairs; k = 6 keeps the
    // suite-level false-alarm rate below ~1e-5 per run.
    o.k_sigma = 6.0;
    return o;
  }
};

TEST(DetailedBalance, LocalSwapKernel) {
  BalanceFixture fx;
  SCOPED_TRACE(seed_trace(fx.seed));
  mc::LocalSwapProposal prop(fx.ham);
  mc::Rng rng(fx.seed, 101);
  const auto report = check_detailed_balance(prop, fx.ham, fx.lat, fx.comp,
                                             rng, fx.options());
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.n_off_space, 0u);
  EXPECT_GT(report.n_pairs, 100u);
}

TEST(DetailedBalance, BlockSwapKernel) {
  BalanceFixture fx;
  SCOPED_TRACE(seed_trace(fx.seed));
  mc::BlockSwapProposal prop(fx.ham, 1, 2);
  mc::Rng rng(fx.seed, 102);
  const auto report = check_detailed_balance(prop, fx.ham, fx.lat, fx.comp,
                                             rng, fx.options());
  EXPECT_TRUE(report.pass) << report.summary();
}

std::shared_ptr<nn::Vae> small_vae(const BalanceFixture& fx) {
  nn::VaeOptions vo;
  vo.n_sites = fx.lat.num_sites();
  vo.n_species = 2;
  vo.hidden = 24;
  vo.latent = 4;
  return std::make_shared<nn::Vae>(vo, fx.seed + 7);
}

/// Exact reverse-density audit of a VAE move: both constrained
/// sequential densities recomputed from the decoder probabilities the
/// kernel actually used; returns how far its log_q_ratio is off.
double log_q_error(const core::VaeProposal& vae, const mc::ProposalResult& res,
                   std::span<const std::uint8_t> before,
                   std::span<const std::uint8_t> after, int n_species = 2) {
  const auto probs = vae.last_probs();
  EXPECT_FALSE(probs.empty());
  const double lq_rev =
      core::VaeProposal::sequential_log_density(probs, before, n_species)
          .value();
  const double lq_fwd =
      core::VaeProposal::sequential_log_density(probs, after, n_species)
          .value();
  return std::abs(res.log_q_ratio.value() - (lq_rev - lq_fwd));
}

// The mixture that runs: core::DeepThermoProposal, local swaps and VAE
// moves half and half, with the log q audit on every VAE move.
TEST(DetailedBalance, MixtureKernel) {
  BalanceFixture fx;
  SCOPED_TRACE(seed_trace(fx.seed));
  core::DeepThermoProposal prop(fx.ham, small_vae(fx), 0.5);
  std::uint64_t audited = 0;
  double worst = 0.0;
  const ProposalAudit audit = [&](const mc::ProposalResult& res,
                                  std::span<const std::uint8_t> before,
                                  std::span<const std::uint8_t> after) {
    // Every proposal here is valid and audited, so the VAE count is
    // ahead of `audited` exactly when the last move was a VAE move.
    if (prop.vae_stats().proposed == audited) return;
    worst = std::max(worst, log_q_error(prop.vae_kernel(), res, before, after));
    ++audited;
  };

  auto opts = fx.options();
  opts.proposals_per_state = 1500;  // as for the pure VAE kernel below
  mc::Rng rng(fx.seed, 103);
  const auto report = check_detailed_balance(prop, fx.ham, fx.lat, fx.comp,
                                             rng, opts, audit);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.n_invalid, 0u);
  EXPECT_GT(audited, 0u);
  EXPECT_EQ(audited, prop.vae_stats().proposed);
  EXPECT_LT(worst, 1e-5) << "log_q_ratio bookkeeping drifted";
  EXPECT_EQ(prop.vae_stats().proposed + prop.local_stats().proposed,
            report.n_proposals);
}

TEST(DetailedBalance, VaeDecodeAheadKernel) {
  BalanceFixture fx;
  SCOPED_TRACE(seed_trace(fx.seed));
  core::VaeProposal prop(fx.ham, small_vae(fx));
  std::uint64_t audited = 0;
  double worst = 0.0;
  const ProposalAudit audit = [&](const mc::ProposalResult& res,
                                  std::span<const std::uint8_t> before,
                                  std::span<const std::uint8_t> after) {
    worst = std::max(worst, log_q_error(prop, res, before, after));
    ++audited;
  };

  auto opts = fx.options();
  // The global kernel spreads flow over all 120x119 pairs; more draws
  // per state keep enough pairs above the sample floor.
  opts.proposals_per_state = 1500;
  mc::Rng rng(fx.seed, 104);
  const auto report = check_detailed_balance(prop, fx.ham, fx.lat, fx.comp,
                                             rng, opts, audit);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_GT(audited, 0u);
  EXPECT_LT(worst, 1e-5) << "log_q_ratio bookkeeping drifted";
  EXPECT_EQ(prop.stats().proposed, report.n_proposals);
}

/// The VAE kernel with the exact log q audit on every proposal, for
/// samplers that drive a Proposal themselves.
class AuditedVae final : public mc::Proposal {
 public:
  AuditedVae(core::VaeProposal& vae, int n_species)
      : vae_(vae), n_species_(n_species) {}
  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override {
    before_.assign(cfg.occupancy().begin(), cfg.occupancy().end());
    const auto res = vae_.propose(cfg, current_energy, rng);
    worst_ = std::max(worst_, log_q_error(vae_, res, before_, cfg.occupancy(),
                                          n_species_));
    return res;
  }
  void revert(lattice::Configuration& cfg) override { vae_.revert(cfg); }
  [[nodiscard]] std::string name() const override { return "audited-vae"; }
  [[nodiscard]] double worst() const { return worst_; }

 private:
  core::VaeProposal& vae_;
  int n_species_;
  std::vector<std::uint8_t> before_;
  double worst_ = 0.0;
};

// The quaternary sampler instantiation. At {13,1,1,1} the space has 3360
// states, too many for the dense flow matrix above, so the audit is the
// stationary law instead: Metropolis driven by the VAE kernel alone must
// visit the exact Boltzmann level distribution, with the log q
// bookkeeping checked exactly on every proposal.
TEST(DetailedBalance, VaeKernelQuaternaryDilute) {
  const std::uint64_t seed = effective_test_seed(20261019);
  SCOPED_TRACE(seed_trace(seed));
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 2);
  const auto ham = lattice::random_epi(4, 2, 1.0, 17);
  const std::vector<std::int32_t> comp = {13, 1, 1, 1};
  const units::Temperature temperature(1.5);
  const auto oracle = ExactOracle::get(ham, lat, comp);
  const auto& levels = oracle->levels();
  const auto expected = oracle->level_probabilities(temperature);
  ASSERT_GE(levels.size(), 3u);

  nn::VaeOptions vo;
  vo.n_sites = lat.num_sites();
  vo.n_species = 4;
  vo.hidden = 24;
  vo.latent = 4;
  core::VaeProposal vae(ham, std::make_shared<nn::Vae>(vo, seed + 7));
  AuditedVae prop(vae, 4);
  mc::Rng rng(seed, 106);
  const std::vector<double> fractions = {13.0 / 16, 1.0 / 16, 1.0 / 16,
                                         1.0 / 16};
  auto cfg = lattice::random_configuration(lat, 4, rng, fractions);
  mc::MetropolisSampler sampler(ham, cfg, temperature, mc::Rng(seed, 107));

  std::vector<double> visits(levels.size(), 0.0);
  const int steps = 150000;
  for (int s = 0; s < 2000; ++s) sampler.step(prop);  // burn-in
  for (int s = 0; s < steps; ++s) {
    sampler.step(prop);
    const double e = sampler.energy().value();
    std::size_t level = 0;
    for (std::size_t l = 1; l < levels.size(); ++l)
      if (std::abs(levels[l].energy - e) < std::abs(levels[level].energy - e))
        level = l;
    ASSERT_NEAR(levels[level].energy, e, 1e-6) << "energy off the spectrum";
    visits[level] += 1.0;
  }
  for (std::size_t l = 0; l < levels.size(); ++l)
    EXPECT_NEAR(visits[l] / steps, expected[l], 0.012)
        << "level " << levels[l].energy;
  EXPECT_LT(prop.worst(), 1e-5) << "log_q_ratio bookkeeping drifted";
  EXPECT_GT(vae.stats().acceptance_rate(), 0.05);
}

// Negative control: a kernel that lies about its proposal density by a
// constant must be caught. This is the failure mode the checker exists
// for -- a silently-wrong q-correction in an asymmetric kernel.
class BiasedSwapProposal final : public mc::Proposal {
 public:
  explicit BiasedSwapProposal(const lattice::EpiHamiltonian& ham)
      : inner_(ham) {}
  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override {
    auto r = inner_.propose(cfg, current_energy, rng);
    if (r.valid) r.log_q_ratio += units::LogWeight(2.0);  // the lie
    return r;
  }
  void revert(lattice::Configuration& cfg) override { inner_.revert(cfg); }
  [[nodiscard]] std::string name() const override { return "biased-swap"; }

 private:
  mc::LocalSwapProposal inner_;
};

TEST(DetailedBalance, CatchesWrongQRatio) {
  BalanceFixture fx;
  SCOPED_TRACE(seed_trace(fx.seed));
  BiasedSwapProposal prop(fx.ham);
  mc::Rng rng(fx.seed, 105);
  auto opts = fx.options();
  // The violation's z grows as sqrt(samples); 8000/state puts the lie
  // far past the acceptance threshold at any seed.
  opts.proposals_per_state = 8000;
  const auto report = check_detailed_balance(prop, fx.ham, fx.lat, fx.comp,
                                             rng, opts);
  EXPECT_FALSE(report.pass) << report.summary();
  EXPECT_GT(report.worst_z, 8.0) << report.summary();
}

// Contract guards.
TEST(DetailedBalance, RejectsBadInputs) {
  BalanceFixture fx;
  mc::LocalSwapProposal prop(fx.ham);
  mc::Rng rng(1, 0);
  BalanceOptions opts;
  opts.temperature = -1.0;
  EXPECT_THROW(check_detailed_balance(prop, fx.ham, fx.lat, fx.comp, rng,
                                      opts),
               dt::Error);
  opts = BalanceOptions{};
  opts.max_states = 10;  // 120 states exceed this
  EXPECT_THROW(check_detailed_balance(prop, fx.ham, fx.lat, fx.comp, rng,
                                      opts),
               dt::Error);
  const std::vector<std::int32_t> wrong_sum = {1, 2};
  EXPECT_THROW(check_detailed_balance(prop, fx.ham, fx.lat, wrong_sum, rng,
                                      BalanceOptions{}),
               dt::Error);
}

}  // namespace
}  // namespace dt::validate
