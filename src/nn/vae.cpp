#include "nn/vae.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include <bit>
#include <cstdint>

#include "common/error.hpp"

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

using tensor::Tensor;

namespace {

const VaeOptions& checked(const VaeOptions& options) {
  DT_CHECK(options.n_sites > 0);
  DT_CHECK(options.n_species >= 2);
  DT_CHECK(options.hidden > 0 && options.latent > 0);
  DT_CHECK(options.prob_floor >= 0.0f && options.prob_floor < 1.0f);
  DT_CHECK(options.condition_dim >= 0);
  return options;
}

}  // namespace

Vae::Vae(VaeOptions options, std::uint64_t seed)
    : Vae(checked(options), Xoshiro256ss(seed)) {}

Vae::Vae(VaeOptions options, Xoshiro256ss rng)
    : options_(options),
      encoder_(input_dim() + options.condition_dim, options.hidden, rng),
      mu_head_(options.hidden, options.latent, rng),
      logvar_head_(options.hidden, options.latent, rng),
      decoder_hidden_(options.latent + options.condition_dim, options.hidden,
                      rng),
      decoder_out_(options.hidden, input_dim(), rng) {}

std::vector<Tensor> Vae::parameters() const {
  std::vector<Tensor> out;
  for (const Linear* layer : {&encoder_, &mu_head_, &logvar_head_,
                              &decoder_hidden_, &decoder_out_}) {
    const auto p = layer->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::int64_t Vae::parameter_count() const {
  std::int64_t count = 0;
  for (const auto& p : parameters()) count += p.numel();
  return count;
}

std::vector<float> Vae::one_hot(std::span<const std::uint8_t> occupancies,
                                std::int64_t batch_size) const {
  const auto n = static_cast<std::size_t>(options_.n_sites);
  const auto s = static_cast<std::size_t>(options_.n_species);
  DT_CHECK_MSG(occupancies.size() ==
                   n * static_cast<std::size_t>(batch_size),
               "one_hot: occupancy size mismatch");
  std::vector<float> out(occupancies.size() * s, 0.0f);
  for (std::size_t i = 0; i < occupancies.size(); ++i) {
    DT_CHECK(occupancies[i] < s);
    out[i * s + occupancies[i]] = 1.0f;
  }
  return out;
}

VaeLossParts Vae::loss(const Tensor& batch_onehot,
                       const std::vector<std::int32_t>& labels,
                       Xoshiro256ss& eps_rng,
                       std::span<const float> conditions) {
  DT_CHECK(batch_onehot.shape().size() == 2);
  DT_CHECK(batch_onehot.shape()[1] == input_dim());
  const std::int64_t batch = batch_onehot.shape()[0];
  DT_CHECK(static_cast<std::int64_t>(labels.size()) ==
           batch * options_.n_sites);
  DT_CHECK_MSG(static_cast<std::int64_t>(conditions.size()) ==
                   batch * options_.condition_dim,
               "loss(): conditions size must be batch * condition_dim");

  Tensor cond_tensor;
  Tensor enc_in = batch_onehot;
  if (options_.condition_dim > 0) {
    cond_tensor = Tensor::from_data(
        {batch, options_.condition_dim},
        std::vector<float>(conditions.begin(), conditions.end()));
    enc_in = tensor::concat_cols(batch_onehot, cond_tensor);
  }

  const Tensor h = tensor::tanh(encoder_.forward(enc_in));
  const Tensor mu = mu_head_.forward(h);
  const Tensor logvar = logvar_head_.forward(h);

  // Reparameterisation: z = mu + exp(logvar/2) * eps.
  const Tensor eps =
      Tensor::randn({batch, options_.latent}, 1.0f, eps_rng);
  Tensor z = mu + tensor::exp(tensor::scale(logvar, 0.5f)) * eps;
  if (options_.condition_dim > 0) z = tensor::concat_cols(z, cond_tensor);

  const Tensor logits =
      decoder_out_.forward(tensor::tanh(decoder_hidden_.forward(z)));
  const Tensor flat =
      logits.reshape({batch * options_.n_sites, options_.n_species});
  // cross_entropy is a mean over B*n_sites rows; multiply by n_sites to
  // get the mean per-sample reconstruction NLL.
  const Tensor recon = tensor::scale(
      tensor::cross_entropy_with_logits(flat, labels),
      static_cast<float>(options_.n_sites));

  // KL(q||N(0,I)) = -1/2 sum(1 + logvar - mu^2 - e^logvar), mean over B.
  const Tensor kl_terms = tensor::add_scalar(logvar, 1.0f) -
                          tensor::square(mu) - tensor::exp(logvar);
  const Tensor kl = tensor::scale(tensor::sum(kl_terms),
                                  -0.5f / static_cast<float>(batch));

  VaeLossParts parts;
  parts.total = recon + kl;
  parts.reconstruction = recon.item();
  parts.kl = kl.item();
  return parts;
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
  // Sampling-only path: skip tape construction entirely.
  const tensor::NoGradGuard no_grad;
  const Tensor zt = Tensor::from_data(
      {rows, in_dim}, std::vector<float>(zc.begin(), zc.end()));
  const Tensor logits =
      decoder_out_.forward(tensor::tanh(decoder_hidden_.forward(zt)));
  const auto& lv = logits.data();

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
      const float* block = &lv[site * 4];
      float* orow = out + site * 4;
      const float m01 = block[0] < block[1] ? block[1] : block[0];
      const float m23 = block[2] < block[3] ? block[3] : block[2];
      const float hi = m01 < m23 ? m23 : m01;
      const float e0 = detail::vec_expf(block[0] - hi);
      const float e1 = detail::vec_expf(block[1] - hi);
      const float e2 = detail::vec_expf(block[2] - hi);
      const float e3 = detail::vec_expf(block[3] - hi);
      const float scale = one_minus_floor / (e0 + e1 + e2 + e3);
      orow[0] = scale * e0 + floor_each;
      orow[1] = scale * e1 + floor_each;
      orow[2] = scale * e2 + floor_each;
      orow[3] = scale * e3 + floor_each;
    }
    return;
  }
  // Generic species count: three flat passes so the exp pass -- the
  // decode hot spot at rows * n_sites * n_species elements -- still
  // vectorises even though s is a runtime value.
  std::vector<float> him(lv.size());  // per-site max, replicated per entry
  for (std::size_t site = 0; site < blocks; ++site) {
    const float* block = &lv[site * s];
    float hi = block[0];
    for (std::size_t k = 1; k < s; ++k) hi = std::max(hi, block[k]);
    for (std::size_t k = 0; k < s; ++k) him[site * s + k] = hi;
  }
  for (std::size_t i = 0; i < lv.size(); ++i)
    out[i] = detail::vec_expf(lv[i] - him[i]);
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
  const char magic[8] = {'D', 'T', 'V', 'A', 'E', '0', '0', '1'};
  os.write(magic, sizeof(magic));
  for (const auto& p : parameters()) {
    const auto n = static_cast<std::int64_t>(p.data().size());
    os.write(reinterpret_cast<const char*>(&n), sizeof(n));
    os.write(reinterpret_cast<const char*>(p.data().data()),
             static_cast<std::streamsize>(n * static_cast<std::int64_t>(
                                                  sizeof(float))));
  }
  DT_CHECK_MSG(os.good(), "VAE save failed");
}

void Vae::load(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  DT_CHECK_MSG(is.good() && std::string(magic, 5) == "DTVAE",
               "VAE load: bad magic");
  for (auto& p : parameters()) {
    std::int64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof(n));
    DT_CHECK_MSG(is.good() && n == static_cast<std::int64_t>(p.data().size()),
                 "VAE load: parameter size mismatch (" << n << " vs "
                                                       << p.data().size()
                                                       << ")");
    is.read(reinterpret_cast<char*>(p.data().data()),
            static_cast<std::streamsize>(n * static_cast<std::int64_t>(
                                                 sizeof(float))));
    DT_CHECK_MSG(is.good(), "VAE load: truncated stream");
  }
}

}  // namespace dt::nn
