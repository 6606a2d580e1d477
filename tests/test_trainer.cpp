#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace dt::nn {
namespace {

VaeOptions small_opts() {
  VaeOptions o;
  o.n_sites = 16;
  o.n_species = 4;
  o.hidden = 24;
  o.latent = 4;
  return o;
}

std::vector<std::uint8_t> striped_sample(int offset) {
  std::vector<std::uint8_t> occ(16);
  for (int i = 0; i < 16; ++i)
    occ[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((i + offset) % 4);
  return occ;
}

void fnv1a(std::uint64_t& h, std::uint8_t byte) {
  h ^= byte;
  h *= 0x100000001b3ULL;
}

/// FNV-1a digest of a VAE's weights plus its trainer's Adam state (step
/// count and both moment vectors) after `steps` train_batch calls on
/// random batches. Every weight bit depends on the per-element operation
/// order of the GEMM kernels, so the digest pins that order end to end.
std::uint64_t training_digest(VaeOptions o, std::int64_t batch, int steps) {
  Vae vae(o, 31);
  TrainOptions to;
  to.batch_size = static_cast<std::int32_t>(batch);
  to.seed = 32;
  Trainer trainer(vae, to);
  Xoshiro256ss data_rng(33);
  const auto n = static_cast<std::size_t>(batch) *
                 static_cast<std::size_t>(o.n_sites);
  std::vector<std::uint8_t> occ(n);
  std::vector<float> cond(static_cast<std::size_t>(batch * o.condition_dim));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int s = 0; s < steps; ++s) {
    for (auto& x : occ)
      x = static_cast<std::uint8_t>(uniform_index(
          data_rng, static_cast<std::uint64_t>(o.n_species)));
    for (auto& c : cond) c = static_cast<float>(uniform01(data_rng));
    const auto parts = trainer.train_batch(occ, batch, false, cond);
    const auto loss = std::bit_cast<std::uint32_t>(parts.total);
    for (int b = 0; b < 4; ++b)
      fnv1a(h, static_cast<std::uint8_t>(loss >> (8 * b)));
  }
  for (const auto& p : vae.parameters())
    for (const float w : p.value) {
      const auto bits = std::bit_cast<std::uint32_t>(w);
      for (int b = 0; b < 4; ++b)
        fnv1a(h, static_cast<std::uint8_t>(bits >> (8 * b)));
    }
  std::ostringstream state;
  trainer.save_state(state);
  for (const char c : state.str()) fnv1a(h, static_cast<std::uint8_t>(c));
  return h;
}

TEST(Trainer, TrainingMatchesGoldenHash) {
  // The 2000- and 54-site shapes are the time-to-solution benchmark's
  // VAE (hidden 64, latent 8, batch 32). The odd shape leaves a remainder
  // on every kernel edge: batch 7 (rows % 4), widths 39 / 37 / 13 / 11
  // (columns % 16 and depth % 16 non-zero, hidden not a multiple of 32)
  // and a condition vector, appended to the encoder input and the latent.
  VaeOptions big;
  big.n_sites = 2000;
  big.n_species = 4;
  big.hidden = 64;
  big.latent = 8;
  VaeOptions small = big;
  small.n_sites = 54;
  VaeOptions odd;
  odd.n_sites = 13;
  odd.n_species = 3;
  odd.hidden = 37;
  odd.latent = 11;
  odd.condition_dim = 2;
  const std::uint64_t d2000 = training_digest(big, 32, 3);
  const std::uint64_t d54 = training_digest(small, 32, 4);
  const std::uint64_t dodd = training_digest(odd, 7, 4);
#if defined(__OPTIMIZE__) && defined(__FP_FAST_FMA) && \
    !defined(_GLIBCXX_ASSERTIONS)
  // Whether a*b + c contracts into an FMA changes the bits, so the
  // digests are pinned for the optimised FMA builds they were recorded
  // with. _GLIBCXX_ASSERTIONS reorders Adam's update around its bounds
  // checks, and GCC then fuses a different product.
  EXPECT_EQ(d2000, 0xed2e31f120b71966ULL) << std::hex << d2000;
  EXPECT_EQ(d54, 0x65ea06bdb839a7dcULL) << std::hex << d54;
  EXPECT_EQ(dodd, 0xf448d4fd3659e0aaULL) << std::hex << dodd;
#else
  (void)d2000;
  (void)d54;
  (void)dodd;
#endif
}

/// Central-difference check of every parameter gradient of the full VAE
/// loss. The trainer's saved state pins the reparameterisation noise, so
/// each perturbed loss is a deterministic function of the weights.
void check_vae_gradient(VaeOptions o, std::int64_t batch) {
  Vae vae(o, 41);
  Trainer trainer(vae, TrainOptions{});
  Xoshiro256ss data_rng(42);
  std::vector<std::uint8_t> occ(static_cast<std::size_t>(batch * o.n_sites));
  for (auto& x : occ)
    x = static_cast<std::uint8_t>(
        uniform_index(data_rng, static_cast<std::uint64_t>(o.n_species)));
  std::vector<float> cond(static_cast<std::size_t>(batch * o.condition_dim));
  for (auto& c : cond) c = static_cast<float>(uniform01(data_rng));
  std::ostringstream saved;
  trainer.save_state(saved);
  const auto loss_at = [&] {
    std::istringstream in(saved.str());
    trainer.load_state(in);
    return trainer.train_batch(occ, batch, true, cond).total;
  };

  (void)loss_at();
  std::vector<std::vector<float>> analytic;
  for (const auto& p : vae.parameters())
    analytic.emplace_back(p.grad.begin(), p.grad.end());

  const float h = 1e-2f;
  auto params = vae.parameters();
  ASSERT_EQ(params.size(), 10u);
  for (std::size_t k = 0; k < params.size(); ++k) {
    float largest = 0.0f;
    for (std::size_t i = 0; i < analytic[k].size(); ++i) {
      float& w = params[k].value[i];
      const float w0 = w;
      w = w0 + h;
      const float up = loss_at();
      w = w0 - h;
      const float down = loss_at();
      w = w0;
      const float numeric = (up - down) / (2.0f * h);
      const float g = analytic[k][i];
      EXPECT_NEAR(g, numeric, 2e-3f + 2e-2f * std::fabs(numeric))
          << "parameter block " << k << " entry " << i;
      largest = std::max(largest, std::fabs(g));
    }
    EXPECT_GT(largest, 1e-3f) << "parameter block " << k << " has no gradient";
  }
}

TEST(VaeGradient, UnconditionalQuaternaryMatchesCentralDifference) {
  VaeOptions o;
  o.n_sites = 6;
  o.n_species = 4;
  o.hidden = 5;
  o.latent = 3;
  check_vae_gradient(o, 3);
}

TEST(VaeGradient, ConditionalTernaryMatchesCentralDifference) {
  VaeOptions o;
  o.n_sites = 5;
  o.n_species = 3;
  o.hidden = 4;
  o.latent = 2;
  o.condition_dim = 2;
  check_vae_gradient(o, 3);
}

TEST(ConfigDataset, AddAndRetrieve) {
  ConfigDataset ds(16, 10);
  Xoshiro256ss rng(1);
  ds.add(striped_sample(0), rng);
  ds.add(striped_sample(1), rng);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.sample(0)[0], 0);
  EXPECT_EQ(ds.sample(1)[0], 1);
}

TEST(ConfigDataset, RejectsWrongSize) {
  ConfigDataset ds(16, 10);
  Xoshiro256ss rng(1);
  std::vector<std::uint8_t> bad(8, 0);
  EXPECT_THROW(ds.add(bad, rng), dt::Error);
  EXPECT_THROW((void)ds.sample(0), dt::Error);
}

TEST(ConfigDataset, ReservoirCapsCapacity) {
  ConfigDataset ds(16, 5);
  Xoshiro256ss rng(2);
  for (int i = 0; i < 100; ++i) ds.add(striped_sample(i), rng);
  EXPECT_EQ(ds.size(), 5u);
}

TEST(ConfigDataset, ReservoirKeepsLateSamplesSometimes) {
  // Over the stream 0..99 with capacity 5, the retained set should not be
  // simply the first five (reservoir replaces uniformly).
  ConfigDataset ds(16, 5);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 100; ++i) ds.add(striped_sample(i), rng);
  std::set<std::uint8_t> first_sites;
  for (std::size_t k = 0; k < ds.size(); ++k)
    first_sites.insert(ds.sample(k)[0]);
  bool has_late = false;
  for (std::size_t k = 0; k < ds.size(); ++k)
    if (ds.sample(k)[1] != striped_sample(static_cast<int>(k))[1])
      has_late = true;
  (void)first_sites;
  EXPECT_TRUE(has_late);
}

TEST(ConfigDataset, ClearResets) {
  ConfigDataset ds(16, 5);
  Xoshiro256ss rng(4);
  ds.add(striped_sample(0), rng);
  ds.clear();
  EXPECT_EQ(ds.size(), 0u);
}

TEST(Trainer, FitReducesLoss) {
  Vae vae(small_opts(), 5);
  TrainOptions to;
  to.epochs = 30;
  to.batch_size = 8;
  to.learning_rate = 5e-3f;
  Trainer trainer(vae, to);

  ConfigDataset ds(16, 64);
  Xoshiro256ss rng(6);
  for (int i = 0; i < 32; ++i) ds.add(striped_sample(i % 4), rng);

  const auto report = trainer.fit(ds);
  ASSERT_EQ(report.epoch_loss.size(), 30u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front() * 0.8f);
  EXPECT_EQ(report.samples_seen, 30 * 32);
  EXPECT_GT(report.final_reconstruction, 0.0f);
}

TEST(Trainer, EmptyDatasetThrows) {
  Vae vae(small_opts(), 7);
  Trainer trainer(vae, TrainOptions{});
  ConfigDataset ds(16, 4);
  EXPECT_THROW((void)trainer.fit(ds), dt::Error);
}

TEST(Trainer, MismatchedSitesThrow) {
  Vae vae(small_opts(), 8);
  Trainer trainer(vae, TrainOptions{});
  ConfigDataset ds(8, 4);
  Xoshiro256ss rng(9);
  ds.add(std::vector<std::uint8_t>(8, 0), rng);
  EXPECT_THROW((void)trainer.fit(ds), dt::Error);
}

TEST(Trainer, DeferredStepLeavesWeightsUntouched) {
  Vae vae(small_opts(), 10);
  TrainOptions to;
  Trainer trainer(vae, to);
  const auto weights = [&] {
    const auto w = vae.parameters()[0].value;
    return std::vector<float>(w.begin(), w.end());
  };
  const auto before = weights();
  const auto occ = striped_sample(0);
  (void)trainer.train_batch(occ, 1, /*defer_optimizer_step=*/true);
  EXPECT_EQ(weights(), before);
  trainer.apply_step();
  EXPECT_NE(weights(), before);
}

TEST(Trainer, BackwardOverwritesGradients) {
  // A batch's backward pass leaves the gradient of that batch alone, not
  // a sum with the previous batch's: the data-parallel step relies on it.
  const auto gradients = [](Vae& vae) {
    std::vector<float> g;
    for (const auto& p : vae.parameters())
      g.insert(g.end(), p.grad.begin(), p.grad.end());
    return g;
  };
  Vae twice(small_opts(), 14), once(small_opts(), 14);
  Trainer twice_trainer(twice, TrainOptions{});
  Trainer once_trainer(once, TrainOptions{});
  std::ostringstream saved;
  twice_trainer.save_state(saved);
  (void)twice_trainer.train_batch(striped_sample(1), 1, true);
  std::istringstream in(saved.str());
  twice_trainer.load_state(in);  // same noise for the second batch
  (void)twice_trainer.train_batch(striped_sample(2), 1, true);
  (void)once_trainer.train_batch(striped_sample(2), 1, true);
  EXPECT_EQ(gradients(twice), gradients(once));
}

TEST(Trainer, TrainBatchValidatesSize) {
  Vae vae(small_opts(), 11);
  Trainer trainer(vae, TrainOptions{});
  std::vector<std::uint8_t> occ(10, 0);  // not batch*16
  EXPECT_THROW((void)trainer.train_batch(occ, 1), dt::Error);
}

TEST(Trainer, DeterministicForSeed) {
  auto run = [] {
    Vae vae(small_opts(), 12);
    TrainOptions to;
    to.epochs = 3;
    to.seed = 99;
    Trainer trainer(vae, to);
    ConfigDataset ds(16, 16);
    Xoshiro256ss rng(13);
    for (int i = 0; i < 16; ++i) ds.add(striped_sample(i), rng);
    return trainer.fit(ds).epoch_loss;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dt::nn
