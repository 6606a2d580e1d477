#include "nn/vae.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "nn/module.hpp"
#include "tensor/optimizer.hpp"

namespace dt::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Xoshiro256ss rng(1);
  Linear lin(2, 3, rng);
  // Overwrite weights for a deterministic check.
  auto params = lin.parameters();
  params[0].data() = {1, 2, 3, 4, 5, 6};  // W (2x3)
  params[1].data() = {0.5, -0.5, 1.0};    // b

  const auto x = tensor::Tensor::from_data({2, 2}, {1, 0, 0, 1});
  const auto y = lin.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3}));
  EXPECT_EQ(y.data(), (std::vector<float>{1.5, 1.5, 4, 4.5, 4.5, 7}));
}

TEST(Linear, XavierScaleReasonable) {
  Xoshiro256ss rng(2);
  Linear lin(100, 100, rng);
  double sum2 = 0;
  const auto& w = lin.parameters()[0].data();
  for (float v : w) sum2 += static_cast<double>(v) * v;
  EXPECT_NEAR(sum2 / static_cast<double>(w.size()), 2.0 / 200.0, 0.002);
}

TEST(Mlp, CanFitXor) {
  // Linear -> tanh -> Linear, the shape of each VAE half.
  Xoshiro256ss rng(4);
  Linear hidden(2, 8, rng);
  Linear out(8, 2, rng);
  std::vector<tensor::Tensor> params = hidden.parameters();
  for (const auto& p : out.parameters()) params.push_back(p);
  tensor::Adam opt(params, 0.05f);
  const auto x =
      tensor::Tensor::from_data({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<std::int32_t> labels = {0, 1, 1, 0};
  float loss_val = 0;
  for (int i = 0; i < 300; ++i) {
    auto loss = tensor::cross_entropy_with_logits(
        out.forward(tensor::tanh(hidden.forward(x))), labels);
    loss.backward();
    opt.step();
    loss_val = loss.item();
  }
  EXPECT_LT(loss_val, 0.05f);
}

VaeOptions small_opts() {
  VaeOptions o;
  o.n_sites = 16;
  o.n_species = 4;
  o.hidden = 24;
  o.latent = 4;
  return o;
}

TEST(Vae, ShapesAndParameterCount) {
  Vae vae(small_opts(), 1);
  EXPECT_EQ(vae.input_dim(), 64);
  EXPECT_EQ(vae.latent_dim(), 4);
  // enc W+b, mu W+b, logvar W+b, dec (W+b, W+b).
  EXPECT_EQ(vae.parameters().size(), 10u);
  const std::int64_t expect = 64 * 24 + 24 + 2 * (24 * 4 + 4) +
                              (4 * 24 + 24) + (24 * 64 + 64);
  EXPECT_EQ(vae.parameter_count(), expect);
}

TEST(Vae, OneHotLayout) {
  Vae vae(small_opts(), 1);
  std::vector<std::uint8_t> occ(32, 0);
  occ[0] = 3;
  occ[16] = 1;  // second sample, first site
  const auto x = vae.one_hot(occ, 2);
  EXPECT_EQ(x.size(), 128u);
  EXPECT_EQ(x[3], 1.0f);         // sample 0, site 0, species 3
  EXPECT_EQ(x[0], 0.0f);
  EXPECT_EQ(x[4], 1.0f);         // sample 0, site 1, species 0
  EXPECT_EQ(x[64 + 1], 1.0f);    // sample 1, site 0, species 1
}

TEST(Vae, DecodeProbsAreNormalizedAndFloored) {
  auto opts = small_opts();
  opts.prob_floor = 0.01f;
  Vae vae(opts, 2);
  const std::vector<float> z = {0.3f, -1.0f, 0.5f, 2.0f};
  const auto probs = vae.decode_probs(z);
  ASSERT_EQ(probs.size(), 64u);
  for (int site = 0; site < 16; ++site) {
    float total = 0;
    for (int s = 0; s < 4; ++s) {
      const float p = probs[static_cast<std::size_t>(site * 4 + s)];
      EXPECT_GE(p, 0.01f / 4 - 1e-7f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Vae, DecodeIsDeterministic) {
  Vae vae(small_opts(), 3);
  const std::vector<float> z = {1, 2, 3, 4};
  EXPECT_EQ(vae.decode_probs(z), vae.decode_probs(z));
}

TEST(Vae, LossDecreasesWithTraining) {
  Vae vae(small_opts(), 4);
  tensor::Adam opt(vae.parameters(), 1e-2f);
  Xoshiro256ss eps(5);

  // A fixed batch of 8 "ordered" configurations.
  std::vector<std::uint8_t> occ;
  for (int b = 0; b < 8; ++b)
    for (int i = 0; i < 16; ++i)
      occ.push_back(static_cast<std::uint8_t>((i + b) % 4));
  const auto onehot = vae.one_hot(occ, 8);
  const auto x = tensor::Tensor::from_data({8, 64}, onehot);
  std::vector<std::int32_t> labels(occ.begin(), occ.end());

  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    auto parts = vae.loss(x, labels, eps);
    parts.total.backward();
    opt.step();
    if (step == 0) first = parts.total.item();
    last = parts.total.item();
  }
  EXPECT_LT(last, first * 0.7f);
}

TEST(Vae, LossPartsAreConsistent) {
  Vae vae(small_opts(), 6);
  Xoshiro256ss eps(7);
  std::vector<std::uint8_t> occ(16, 1);
  const auto x = tensor::Tensor::from_data({1, 64}, vae.one_hot(occ, 1));
  const std::vector<std::int32_t> labels(occ.begin(), occ.end());
  const auto parts = vae.loss(x, labels, eps);
  EXPECT_NEAR(parts.total.item(), parts.reconstruction + parts.kl, 1e-4f);
  EXPECT_GE(parts.kl, -1e-5f);             // KL >= 0
  EXPECT_GT(parts.reconstruction, 0.0f);   // NLL > 0
}

TEST(Vae, SaveLoadRoundTrip) {
  Vae a(small_opts(), 8);
  Vae b(small_opts(), 999);  // different init
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_EQ(a.decode_probs(z), b.decode_probs(z));

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].data(), pb[i].data());
}

TEST(Vae, LoadRejectsWrongArchitecture) {
  Vae a(small_opts(), 1);
  auto other = small_opts();
  other.hidden = 32;
  Vae b(other, 1);
  std::stringstream ss;
  a.save(ss);
  EXPECT_THROW(b.load(ss), dt::Error);
}

TEST(Vae, LoadRejectsGarbage) {
  Vae a(small_opts(), 1);
  std::stringstream ss("definitely not a vae file");
  EXPECT_THROW(a.load(ss), dt::Error);
}

TEST(Vae, SameSeedSameWeights) {
  Vae a(small_opts(), 77);
  Vae b(small_opts(), 77);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].data(), pb[i].data());
}

TEST(Vae, RejectsBadOptions) {
  auto o = small_opts();
  o.n_sites = 0;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
  o = small_opts();
  o.n_species = 1;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
  o = small_opts();
  o.prob_floor = 1.5f;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
}

}  // namespace
}  // namespace dt::nn
