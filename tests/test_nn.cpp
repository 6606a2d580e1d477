#include "nn/vae.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace dt::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Xoshiro256ss rng(1);
  Linear lin(2, 3, rng);
  // Overwrite weights for a deterministic check.
  lin.weight = {1, 2, 3, 4, 5, 6};  // W (2x3)
  lin.bias = {0.5, -0.5, 1.0};

  const std::vector<float> x = {1, 0, 0, 1};
  const std::vector<float> want = {1.5, 1.5, 4, 4.5, 4.5, 7};
  std::vector<float> y(6);
  lin.forward(x.data(), 2, y.data());
  EXPECT_EQ(y, want);
  lin.infer(x.data(), 2, y.data());
  EXPECT_EQ(y, want);
}

TEST(Linear, XavierScaleReasonable) {
  Xoshiro256ss rng(2);
  Linear lin(100, 100, rng);
  double sum2 = 0;
  for (const float v : lin.weight)
    sum2 += static_cast<double>(v) * static_cast<double>(v);
  EXPECT_NEAR(sum2 / static_cast<double>(lin.weight.size()), 2.0 / 200.0,
              0.002);
}

TEST(Mlp, CanFitXor) {
  // Linear -> tanh -> Linear -> softmax cross-entropy, the shape of each
  // VAE half, trained through Linear::backward.
  Xoshiro256ss rng(4);
  Linear hidden(2, 8, rng);
  Linear out(8, 2, rng);
  tensor::Adam opt({{hidden.weight, hidden.weight_grad},
                    {hidden.bias, hidden.bias_grad},
                    {out.weight, out.weight_grad},
                    {out.bias, out.bias_grad}},
                   0.05f);
  const std::vector<float> x = {0, 0, 0, 1, 1, 0, 1, 1};
  const std::vector<std::size_t> labels = {0, 1, 1, 0};
  std::vector<float> h(4 * 8), logits(4 * 2), dh(4 * 8);
  float loss = 0;
  for (int i = 0; i < 300; ++i) {
    hidden.forward(x.data(), 4, h.data());
    for (auto& v : h) v = std::tanh(v);
    out.forward(h.data(), 4, logits.data());
    loss = 0;
    for (std::size_t r = 0; r < 4; ++r) {
      float* row = &logits[r * 2];
      const float log_z = std::log(std::exp(row[0]) + std::exp(row[1]));
      loss -= (row[labels[r]] - log_z) / 4;
      for (std::size_t c = 0; c < 2; ++c) {
        const float onehot = c == labels[r] ? 1.0f : 0.0f;
        row[c] = (std::exp(row[c] - log_z) - onehot) / 4;
      }
    }
    std::fill(dh.begin(), dh.end(), 0.0f);
    out.backward(h.data(), logits.data(), 4, dh.data(), 8);
    for (std::size_t k = 0; k < dh.size(); ++k) dh[k] *= 1.0f - h[k] * h[k];
    hidden.backward(x.data(), dh.data(), 4);
    opt.step();
  }
  EXPECT_LT(loss, 0.05f);
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

  // A conditional model appends each sample's condition to its row.
  auto opts = small_opts();
  opts.condition_dim = 1;
  Vae conditional(opts, 1);
  const std::vector<float> conditions = {0.25f, 0.75f};
  const auto xc = conditional.one_hot(occ, 2, conditions);
  ASSERT_EQ(xc.size(), 130u);
  EXPECT_EQ(xc[3], 1.0f);         // sample 0, site 0, species 3
  EXPECT_EQ(xc[64], 0.25f);       // sample 0, condition
  EXPECT_EQ(xc[65 + 1], 1.0f);    // sample 1, site 0, species 1
  EXPECT_EQ(xc[65 + 64], 0.75f);  // sample 1, condition
  EXPECT_THROW((void)conditional.one_hot(occ, 2), dt::Error);
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
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    const auto parts = vae.loss(occ, eps);
    opt.step();
    if (step == 0) first = parts.total;
    last = parts.total;
  }
  EXPECT_LT(last, first * 0.7f);
}

TEST(Vae, LossPartsAreConsistent) {
  Vae vae(small_opts(), 6);
  Xoshiro256ss eps(7);
  std::vector<std::uint8_t> occ(16, 1);
  const auto parts = vae.loss(occ, eps);
  EXPECT_NEAR(parts.total, parts.reconstruction + parts.kl, 1e-4f);
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
    EXPECT_TRUE(std::ranges::equal(pa[i].value, pb[i].value));
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
  std::stringstream garbage("definitely not a vae file");
  EXPECT_THROW(a.load(garbage), dt::Error);

  // A stream from another format version: only the last magic byte
  // differs from a valid save.
  std::stringstream saved;
  a.save(saved);
  std::string bytes = saved.str();
  bytes[7] = '2';
  std::stringstream other_version(bytes);
  EXPECT_THROW(a.load(other_version), dt::Error);
}

TEST(Vae, SameSeedSameWeights) {
  Vae a(small_opts(), 77);
  Vae b(small_opts(), 77);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(pa[i].value, pb[i].value));
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
