#include "nn/vae.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "nn/lane_tanh.hpp"
#include "tensor/gemm.hpp"

namespace dt::nn {

namespace detail {

/// Branch-free single-precision exp, ~2e-7 relative error: 2^(x/ln 2)
/// with the integer part folded into the exponent bits and a degree-5
/// polynomial for 2^frac. Pure arithmetic + bit_cast, so gcc
/// auto-vectorises loops over it (16-wide with AVX-512), unlike calls
/// into libm. Accuracy note: these probabilities define the proposal
/// distribution itself -- the SAME values are used to sample and to
/// evaluate both densities of the MH ratio -- so a (deterministic)
/// approximate exp leaves detailed balance exact.
/// Precondition: x <= 0 (softmax feeds logit - rowmax). Inputs below
/// -126 ln 2 flush to exactly 0 via the integer exponent clamp -- the
/// right answer for an underflowing softmax term, and branch-free where
/// a float clamp (std::min/max) would block gcc's if-conversion.
inline float vec_expf(float x) {
  const float z = x * 1.4426950408889634f;  // x / ln 2
  const float fl = std::floor(z);
  const float r = z - fl;                   // in [0, 1)
  // 2^r, minimax-ish degree 5 (coefficients ~ (ln 2)^k / k!).
  float p = 1.8775767e-3f;
  p = p * r + 8.9893397e-3f;
  p = p * r + 5.5826318e-2f;
  p = p * r + 2.4015361e-1f;
  p = p * r + 6.9315308e-1f;
  p = p * r + 9.9999994e-1f;
  std::int32_t biased = static_cast<std::int32_t>(fl) + 127;
  biased = biased < 0 ? 0 : biased;  // 2^fl underflow -> scale = 0.0f
  const float scale =
      std::bit_cast<float>(static_cast<std::uint32_t>(biased) << 23);
  return p * scale;
}

}  // namespace detail

Linear::Linear(std::size_t in_features, std::size_t out_features,
               Xoshiro256ss& rng)
    : in(in_features),
      out(out_features),
      weight(in_features * out_features),
      bias(out_features, 0.0f),
      weight_grad(weight.size(), 0.0f),
      bias_grad(out_features, 0.0f) {
  DT_CHECK(in_features > 0 && out_features > 0);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_features + out_features));
  for (auto& w : weight) w = stddev * static_cast<float>(normal01(rng));
}

void Linear::forward(const float* x, std::size_t rows, float* y) const {
  tensor::gemm_nn(rows, in, out, x, weight.data(), y);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < out; ++c) y[r * out + c] += bias[c];
}

void Linear::infer(const float* x, std::size_t rows, float* y) const {
  for (std::size_t r = 0; r < rows; ++r)
    std::memcpy(y + r * out, bias.data(), out * sizeof(float));
  tensor::gemm_nn_acc(rows, in, out, x, weight.data(), y);
}

void Linear::backward(const float* x, const float* dy, std::size_t rows,
                      float* dx, std::size_t dx_cols) {
  std::fill(bias_grad.begin(), bias_grad.end(), 0.0f);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < out; ++c) bias_grad[c] += dy[r * out + c];
  std::fill(weight_grad.begin(), weight_grad.end(), 0.0f);
  tensor::gemm_tn_acc(rows, in, out, x, dy, weight_grad.data());
  if (dx != nullptr)
    tensor::gemm_nt_acc(rows, dx_cols, out, dy, weight.data(), dx);
}

namespace {

const VaeOptions& checked(const VaeOptions& options) {
  DT_CHECK(options.n_sites > 0);
  DT_CHECK(options.n_species >= 2);
  DT_CHECK(options.hidden > 0 && options.latent > 0);
  DT_CHECK(options.prob_floor >= 0.0f && options.prob_floor < 1.0f);
  DT_CHECK(options.condition_dim >= 0);
  return options;
}

std::size_t to_size(std::int64_t n) { return static_cast<std::size_t>(n); }

constexpr char kMagic[8] = {'D', 'T', 'V', 'A', 'E', '0', '0', '1'};

}  // namespace

Vae::Vae(VaeOptions options, std::uint64_t seed)
    : Vae(checked(options), Xoshiro256ss(seed)) {}

Vae::Vae(VaeOptions options, Xoshiro256ss rng)
    : options_(options),
      encoder_(to_size(input_dim() + options.condition_dim),
               to_size(options.hidden), rng),
      mu_head_(to_size(options.hidden), to_size(options.latent), rng),
      logvar_head_(to_size(options.hidden), to_size(options.latent), rng),
      decoder_hidden_(to_size(options.latent + options.condition_dim),
                      to_size(options.hidden), rng),
      decoder_out_(to_size(options.hidden), to_size(input_dim()), rng) {}

std::vector<tensor::Param> Vae::parameters() {
  std::vector<tensor::Param> out;
  for (Linear* layer : {&encoder_, &mu_head_, &logvar_head_,
                        &decoder_hidden_, &decoder_out_}) {
    out.push_back({layer->weight, layer->weight_grad});
    out.push_back({layer->bias, layer->bias_grad});
  }
  return out;
}

std::int64_t Vae::parameter_count() const {
  std::size_t count = 0;
  for (const Linear* layer : {&encoder_, &mu_head_, &logvar_head_,
                              &decoder_hidden_, &decoder_out_})
    count += layer->weight.size() + layer->bias.size();
  return static_cast<std::int64_t>(count);
}

std::vector<float> Vae::one_hot(std::span<const std::uint8_t> occupancies,
                                std::int64_t batch_size,
                                std::span<const float> conditions) const {
  const auto n = static_cast<std::size_t>(options_.n_sites);
  const auto s = static_cast<std::size_t>(options_.n_species);
  const auto c = static_cast<std::size_t>(options_.condition_dim);
  const auto batch = static_cast<std::size_t>(batch_size);
  DT_CHECK_MSG(occupancies.size() == n * batch,
               "one_hot: occupancy size mismatch");
  DT_CHECK_MSG(conditions.size() == c * batch,
               "one_hot: conditions size must be batch * condition_dim");
  const std::size_t width = n * s + c;
  std::vector<float> out(batch * width, 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = &out[b * width];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t species = occupancies[b * n + i];
      DT_CHECK(species < s);
      row[i * s + species] = 1.0f;
    }
    std::copy_n(conditions.data() + b * c, c, row + n * s);
  }
  return out;
}

// Forward and backward are written out for this one network, in a fixed
// operation order: trained weights, and through them trajectories and
// checkpoints, depend on every rounding (Trainer.TrainingMatchesGoldenHash
// pins them). Where a product is rounded on its own before it is added,
// it gets its own loop: in one expression GCC would contract the pair
// into an FMA and change the bits.
VaeLossParts Vae::loss(std::span<const std::uint8_t> occupancies,
                       Xoshiro256ss& eps_rng,
                       std::span<const float> conditions) {
  const auto sites = static_cast<std::size_t>(options_.n_sites);
  const auto species = static_cast<std::size_t>(options_.n_species);
  DT_CHECK_MSG(!occupancies.empty() && occupancies.size() % sites == 0,
               "loss(): occupancies must hold whole configurations");
  const std::size_t batch = occupancies.size() / sites;
  const auto hidden = static_cast<std::size_t>(options_.hidden);
  const auto latent = static_cast<std::size_t>(options_.latent);
  const auto cdim = static_cast<std::size_t>(options_.condition_dim);
  const std::size_t n = batch * latent;

  // ---- forward ----
  const std::vector<float> x =
      one_hot(occupancies, static_cast<std::int64_t>(batch), conditions);
  std::vector<float> h(batch * hidden);
  encoder_.forward(x.data(), batch, h.data());
  lane_tanh(h);
  std::vector<float> mu(n), logvar(n);
  mu_head_.forward(h.data(), batch, mu.data());
  logvar_head_.forward(h.data(), batch, logvar.data());

  // Reparameterisation: z = mu + exp(logvar/2) * eps, the decoder input
  // row [z | condition].
  std::vector<float> eps(n), sigma(n);
  for (auto& e : eps) e = static_cast<float>(normal01(eps_rng));
  for (std::size_t i = 0; i < n; ++i) sigma[i] = std::exp(0.5f * logvar[i]);
  const std::size_t zw = latent + cdim;
  std::vector<float> zc(batch * zw);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t j = 0; j < latent; ++j)
      zc[r * zw + j] = sigma[r * latent + j] * eps[r * latent + j];
    std::copy_n(conditions.data() + r * cdim, cdim,
                zc.data() + r * zw + latent);
  }
  for (std::size_t r = 0; r < batch; ++r)
    for (std::size_t j = 0; j < latent; ++j)
      zc[r * zw + j] = mu[r * latent + j] + zc[r * zw + j];

  std::vector<float> hd(batch * hidden);
  decoder_hidden_.forward(zc.data(), batch, hd.data());
  lane_tanh(hd);
  std::vector<float> logits(batch * sites * species);
  decoder_out_.forward(hd.data(), batch, logits.data());

  // Reconstruction: mean cross-entropy over the batch * sites categorical
  // blocks, times sites -- the mean per-sample NLL. Each block's logits
  // are overwritten with their gradient, (softmax - onehot) * sites /
  // (batch * sites).
  const std::size_t rows = batch * sites;
  const float g = static_cast<float>(options_.n_sites) /
                  static_cast<float>(rows);
  float nll = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = &logits[r * species];
    float hi = row[0];
    for (std::size_t c = 1; c < species; ++c) hi = std::max(hi, row[c]);
    float zsum = 0.0f;
    for (std::size_t c = 0; c < species; ++c) zsum += std::exp(row[c] - hi);
    const float log_z = hi + std::log(zsum);
    const std::size_t label = occupancies[r];
    nll -= row[label] - log_z;
    for (std::size_t c = 0; c < species; ++c)
      row[c] = g * (std::exp(row[c] - log_z) - (c == label ? 1.0f : 0.0f));
  }
  nll /= static_cast<float>(rows);
  const float recon = static_cast<float>(options_.n_sites) * nll;

  // KL(q||N(0,I)) = -1/2 sum(1 + logvar - mu^2 - e^logvar), mean over B.
  const float kl_scale = -0.5f / static_cast<float>(batch);
  std::vector<float> dmu(n), dlogvar(n);
  // dmu holds mu^2 until the backward pass overwrites it.
  for (std::size_t i = 0; i < n; ++i) dmu[i] = mu[i] * mu[i];
  float kl_sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i)
    kl_sum += ((logvar[i] + 1.0f) - dmu[i]) - std::exp(logvar[i]);
  const float kl = kl_scale * kl_sum;

  // ---- backward: the KL terms first, then the reconstruction ----
  for (std::size_t i = 0; i < n; ++i) {
    dlogvar[i] = -kl_scale * std::exp(logvar[i]);
    dmu[i] = -kl_scale * (2.0f * mu[i]);
  }
  std::vector<float> dhd(batch * hidden, 0.0f);
  decoder_out_.backward(hd.data(), logits.data(), batch, dhd.data(), hidden);
  for (std::size_t i = 0; i < dhd.size(); ++i)
    dhd[i] = dhd[i] * (1.0f - hd[i] * hd[i]);
  std::vector<float> dz(n, 0.0f);
  decoder_hidden_.backward(zc.data(), dhd.data(), batch, dz.data(), latent);
  for (std::size_t i = 0; i < n; ++i) {
    dmu[i] += dz[i];
    const float dsigma = dz[i] * eps[i];
    const float dhalf = dsigma * sigma[i];
    const float kl_part = dlogvar[i] + kl_scale;
    dlogvar[i] = kl_part + dhalf * 0.5f;
  }
  std::vector<float> dh(batch * hidden, 0.0f);
  mu_head_.backward(h.data(), dmu.data(), batch, dh.data(), hidden);
  logvar_head_.backward(h.data(), dlogvar.data(), batch, dh.data(), hidden);
  for (std::size_t i = 0; i < dh.size(); ++i)
    dh[i] = dh[i] * (1.0f - h[i] * h[i]);
  encoder_.backward(x.data(), dh.data(), batch);

  return {recon + kl, recon, kl};
}

std::vector<float> Vae::decode_probs(std::span<const float> z,
                                     std::span<const float> condition) {
  DT_CHECK(static_cast<std::int64_t>(z.size()) == options_.latent);
  return decode_probs_batch(z, 1, condition);
}

std::vector<float> Vae::decode_probs_batch(std::span<const float> z,
                                           std::int64_t batch,
                                           std::span<const float> condition) {
  DT_CHECK(batch >= 1);
  DT_CHECK_MSG(static_cast<std::int64_t>(z.size()) == batch * options_.latent,
               "decode_probs_batch(): z size must be batch * latent");
  DT_CHECK_MSG(static_cast<std::int64_t>(condition.size()) ==
                   options_.condition_dim,
               "decode_probs_batch(): condition size must equal "
               "condition_dim");
  const std::int64_t in_dim = options_.latent + options_.condition_dim;
  std::vector<float> zin(static_cast<std::size_t>(batch * in_dim));
  for (std::int64_t r = 0; r < batch; ++r) {
    float* row = &zin[static_cast<std::size_t>(r * in_dim)];
    std::copy_n(z.data() + r * options_.latent,
                static_cast<std::size_t>(options_.latent), row);
    std::copy_n(condition.data(),
                static_cast<std::size_t>(options_.condition_dim),
                row + options_.latent);
  }
  std::vector<float> probs(static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(input_dim()));
  decode_probs_rows(zin, batch, probs.data());
  return probs;
}

void Vae::decode_probs_rows(std::span<const float> zc, std::int64_t rows,
                            float* out) {
  const std::int64_t in_dim = options_.latent + options_.condition_dim;
  DT_CHECK(rows >= 1);
  DT_CHECK_MSG(static_cast<std::int64_t>(zc.size()) == rows * in_dim,
               "decode_probs_rows(): zc size must be rows * "
               "(latent + condition_dim)");
  const auto n = static_cast<std::size_t>(rows);
  std::vector<float> hidden(n * static_cast<std::size_t>(options_.hidden));
  decoder_hidden_.infer(zc.data(), n, hidden.data());
  lane_tanh(hidden);
  decoder_out_.infer(hidden.data(), n, out);

  const auto s = static_cast<std::size_t>(options_.n_species);
  const auto blocks = static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(options_.n_sites);
  // Mixing with the uniform floor keeps every species reachable
  // (irreducibility) and bounds the log-density in the acceptance rule.
  const float one_minus_floor = 1.0f - options_.prob_floor;
  const float floor_each = options_.prob_floor / static_cast<float>(s);
  if (s == 4) {
    // Quaternary fast path (NbMoTaW is the paper's workload): one fused
    // pass, everything in registers. detail::vec_expf is branch-free
    // polynomial arithmetic, so gcc keeps the whole body vectorised
    // where a std::exp call would serialise it.
    for (std::size_t site = 0; site < blocks; ++site) {
      float* block = out + site * 4;
      const float m01 = block[0] < block[1] ? block[1] : block[0];
      const float m23 = block[2] < block[3] ? block[3] : block[2];
      const float hi = m01 < m23 ? m23 : m01;
      const float e0 = detail::vec_expf(block[0] - hi);
      const float e1 = detail::vec_expf(block[1] - hi);
      const float e2 = detail::vec_expf(block[2] - hi);
      const float e3 = detail::vec_expf(block[3] - hi);
      const float scale = one_minus_floor / (e0 + e1 + e2 + e3);
      block[0] = scale * e0 + floor_each;
      block[1] = scale * e1 + floor_each;
      block[2] = scale * e2 + floor_each;
      block[3] = scale * e3 + floor_each;
    }
    return;
  }
  // Generic species count: three flat passes so the exp pass -- the
  // decode hot spot at rows * n_sites * n_species elements -- still
  // vectorises even though s is a runtime value.
  std::vector<float> him(blocks * s);  // per-site max, replicated per entry
  for (std::size_t site = 0; site < blocks; ++site) {
    const float* block = out + site * s;
    float hi = block[0];
    for (std::size_t k = 1; k < s; ++k) hi = std::max(hi, block[k]);
    for (std::size_t k = 0; k < s; ++k) him[site * s + k] = hi;
  }
  for (std::size_t i = 0; i < him.size(); ++i)
    out[i] = detail::vec_expf(out[i] - him[i]);
  for (std::size_t site = 0; site < blocks; ++site) {
    float* block = out + site * s;
    float zsum = 0.0f;
    for (std::size_t k = 0; k < s; ++k) zsum += block[k];
    const float scale = one_minus_floor / zsum;
    for (std::size_t k = 0; k < s; ++k)
      block[k] = scale * block[k] + floor_each;
  }
}

void Vae::save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  for (const Linear* layer : {&encoder_, &mu_head_, &logvar_head_,
                              &decoder_hidden_, &decoder_out_})
    for (const std::vector<float>* p : {&layer->weight, &layer->bias}) {
      const auto n = static_cast<std::int64_t>(p->size());
      os.write(reinterpret_cast<const char*>(&n), sizeof(n));
      os.write(reinterpret_cast<const char*>(p->data()),
               static_cast<std::streamsize>(
                   n * static_cast<std::int64_t>(sizeof(float))));
    }
  DT_CHECK_MSG(os.good(), "VAE save failed");
}

void Vae::load(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  DT_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
               "VAE load: bad magic");
  for (const auto& p : parameters()) {
    std::int64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof(n));
    DT_CHECK_MSG(is.good() && n == static_cast<std::int64_t>(p.value.size()),
                 "VAE load: parameter size mismatch (" << n << " vs "
                                                       << p.value.size()
                                                       << ")");
    is.read(reinterpret_cast<char*>(p.value.data()),
            static_cast<std::streamsize>(n * static_cast<std::int64_t>(
                                                 sizeof(float))));
    DT_CHECK_MSG(is.good(), "VAE load: truncated stream");
  }
}

}  // namespace dt::nn
