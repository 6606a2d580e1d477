// Conditional-VAE extension: condition vectors steer the decoder, the
// conditioned kernel remains an exactly-balanced MH proposal, and the
// framework pipeline works end to end with condition_on_energy.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "core/vae_proposal.hpp"
#include "mc/metropolis.hpp"
#include "nn/trainer.hpp"
#include "tensor/optimizer.hpp"
#include "validate/oracle.hpp"

namespace dt {
namespace {

nn::VaeOptions cvae_opts() {
  nn::VaeOptions o;
  o.n_sites = 16;
  o.n_species = 2;
  o.hidden = 24;
  o.latent = 4;
  o.condition_dim = 1;
  return o;
}

TEST(ConditionalVae, ParameterCountGrowsWithCondition) {
  auto uncond = cvae_opts();
  uncond.condition_dim = 0;
  nn::Vae a(uncond, 1);
  nn::Vae b(cvae_opts(), 1);
  // One extra input column in the encoder + one extra latent column in
  // the decoder: hidden extra weights each.
  EXPECT_EQ(b.parameter_count(), a.parameter_count() + 2 * 24);
}

TEST(ConditionalVae, DecodeRequiresCondition) {
  nn::Vae vae(cvae_opts(), 2);
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_THROW((void)vae.decode_probs(z), Error);
  const float c = 0.5f;
  const auto probs = vae.decode_probs(z, std::span<const float>(&c, 1));
  EXPECT_EQ(probs.size(), 32u);
}

TEST(ConditionalVae, ConditionChangesDecoderOutput) {
  nn::Vae vae(cvae_opts(), 3);
  const std::vector<float> z = {0.5f, -0.5f, 1.0f, 0.0f};
  const float c0 = 0.0f, c1 = 1.0f;
  const auto p0 = vae.decode_probs(z, std::span<const float>(&c0, 1));
  const auto p1 = vae.decode_probs(z, std::span<const float>(&c1, 1));
  EXPECT_NE(p0, p1);
}

TEST(ConditionalVae, UnconditionalRejectsCondition) {
  auto opts = cvae_opts();
  opts.condition_dim = 0;
  nn::Vae vae(opts, 4);
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f};
  const float c = 0.5f;
  EXPECT_THROW((void)vae.decode_probs(z, std::span<const float>(&c, 1)),
               Error);
}

TEST(ConditionalVae, TrainingLearnsConditionDependence) {
  // Two "phases" keyed by the condition: c=0 -> all species 0 dominant,
  // c=1 -> all species 1 dominant. After training, decoding with c=0
  // must prefer species 0 and vice versa.
  nn::Vae vae(cvae_opts(), 5);
  nn::TrainOptions to;
  to.epochs = 60;
  to.batch_size = 8;
  to.learning_rate = 1e-2f;
  nn::Trainer trainer(vae, to);

  nn::ConfigDataset ds(16, 64, 1);
  Xoshiro256ss rng(6);
  for (int k = 0; k < 32; ++k) {
    const auto species = static_cast<std::uint8_t>(k % 2);
    std::vector<std::uint8_t> occ(16, species);
    // A little noise so the dataset is not degenerate.
    occ[static_cast<std::size_t>(k) % 16] =
        static_cast<std::uint8_t>(1 - species);
    const float c = static_cast<float>(species);
    ds.add(occ, rng, std::span<const float>(&c, 1));
  }
  trainer.fit(ds);

  const std::vector<float> z(4, 0.0f);
  const float c0 = 0.0f, c1 = 1.0f;
  const auto p0 = vae.decode_probs(z, std::span<const float>(&c0, 1));
  const auto p1 = vae.decode_probs(z, std::span<const float>(&c1, 1));
  double mean0 = 0, mean1 = 0;
  for (int site = 0; site < 16; ++site) {
    // P(species 0)
    mean0 += static_cast<double>(p0[static_cast<std::size_t>(2 * site)]);
    mean1 += static_cast<double>(p1[static_cast<std::size_t>(2 * site)]);
  }
  mean0 /= 16;
  mean1 /= 16;
  EXPECT_GT(mean0, 0.7);
  EXPECT_LT(mean1, 0.3);
}

TEST(ConditionalVae, SaveLoadRoundTrip) {
  nn::Vae a(cvae_opts(), 7);
  nn::Vae b(cvae_opts(), 999);
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f};
  const float c = 0.25f;
  EXPECT_EQ(a.decode_probs(z, std::span<const float>(&c, 1)),
            b.decode_probs(z, std::span<const float>(&c, 1)));
}

// Exactness with a condition: an (untrained) conditional kernel with a
// FIXED condition must still sample Boltzmann exactly.
TEST(ConditionalVaeProposal, DetailedBalanceWithFixedCondition) {
  const auto lat =
      lattice::Lattice::create(lattice::LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const int n = lat.num_sites();
  const double temperature = 8.0;

  // Exact Boltzmann level marginals from the shared enumeration oracle.
  const auto oracle = validate::ExactOracle::get(
      ham, lat, validate::equiatomic_composition(n, 2));
  const auto probs = oracle->level_probabilities(units::Temperature(temperature));

  auto vae = std::make_shared<nn::Vae>(cvae_opts(), 11);
  core::VaeProposal prop(ham, vae);
  prop.set_condition({0.3f});

  mc::Rng rng(12, 0);
  auto cfg = lattice::random_configuration(lat, 2, rng);
  mc::MetropolisSampler sampler(ham, cfg, units::Temperature(temperature),
                                mc::Rng(12, 1));
  std::map<long long, double> counts;
  const int steps = 120000;
  for (int s = 0; s < 2000; ++s) sampler.step(prop);
  for (int s = 0; s < steps; ++s) {
    sampler.step(prop);
    counts[std::llround(4 * sampler.energy().value())] += 1.0;
  }
  const auto& levels = oracle->levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const long long k = std::llround(4 * levels[i].energy);
    EXPECT_NEAR((counts.count(k) ? counts[k] : 0.0) / steps, probs[i],
                0.015)
        << "level " << levels[i].energy;
  }
}

TEST(ConditionalVaeProposal, RejectsWrongConditionSize) {
  const auto lat =
      lattice::Lattice::create(lattice::LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  auto vae = std::make_shared<nn::Vae>(cvae_opts(), 13);
  core::VaeProposal prop(ham, vae);
  EXPECT_THROW(prop.set_condition({0.1f, 0.2f}), Error);
}

TEST(ConditionalFramework, EndToEndPipelineRuns) {
  core::DeepThermoOptions opts;
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 2;
  opts.n_bins = 60;
  opts.condition_on_energy = true;
  opts.pretrain.n_temperatures = 3;
  opts.pretrain.samples_per_temperature = 16;
  opts.vae.hidden = 24;
  opts.vae.latent = 4;
  opts.vae.epochs = 5;
  opts.rewl.n_windows = 2;
  opts.rewl.wl.log_f_final = 1e-2;
  opts.rewl.max_sweeps = 100000;
  opts.seed = 33;

  auto fw = core::Framework::nbmotaw(opts);
  const auto result = fw.run();
  EXPECT_TRUE(result.rewl.converged);
  EXPECT_GT(result.vae_stats.proposed, 0u);
  EXPECT_EQ(fw.vae()->options().condition_dim, 1);
}

}  // namespace
}  // namespace dt
