// Variational autoencoder over lattice configurations -- the DeepThermo
// proposal network.
//
// Input/output representation: a configuration of n_sites sites and
// n_species species is one-hot encoded to a float vector of length
// n_sites * n_species. The decoder emits one categorical logit block per
// site; decode_probs() returns floored, renormalised per-site
// probabilities so the Monte Carlo layer can (a) sample global updates
// and (b) evaluate the exact proposal density needed for detailed
// balance (see core/vae_proposal.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/optimizer.hpp"

namespace dt::nn {

/// Affine layer y = x W + b, W row-major (in x out), with Xavier/Glorot
/// initialisation and the gradient buffers its backward pass writes.
struct Linear {
  Linear(std::size_t in_features, std::size_t out_features,
         Xoshiro256ss& rng);

  /// Training forward for `rows` inputs: y = x W, then b added in a
  /// second pass.
  void forward(const float* x, std::size_t rows, float* y) const;
  /// Inference forward: y pre-filled with b, then x W accumulated on top.
  /// One pass and one buffer fewer than forward(), but rounded
  /// differently, so training keeps forward().
  void infer(const float* x, std::size_t rows, float* y) const;
  /// Overwrite weight_grad and bias_grad with the gradients of the loss
  /// whose gradient at y = forward(x) is `dy`. When `dx` is set, also
  /// add dy W^T, restricted to the first `dx_cols` inputs, to dx (rows x
  /// dx_cols).
  void backward(const float* x, const float* dy, std::size_t rows,
                float* dx = nullptr, std::size_t dx_cols = 0);

  std::size_t in, out;
  std::vector<float> weight, bias, weight_grad, bias_grad;
};

struct VaeOptions {
  std::int32_t n_sites = 0;
  std::int32_t n_species = 0;
  std::int64_t hidden = 128;       ///< encoder/decoder hidden width
  std::int64_t latent = 16;        ///< latent dimensionality
  float prob_floor = 1e-3f;        ///< uniform mixing of decoded categoricals
  /// > 0 turns the model into a conditional VAE: a condition vector
  /// (e.g. the normalised target energy of a REWL window) is appended to
  /// both the encoder input and the latent before decoding, so proposals
  /// can be steered towards a walker's energy window.
  std::int32_t condition_dim = 0;
};

struct VaeLossParts {
  float total = 0;           ///< reconstruction + kl
  float reconstruction = 0;  ///< mean per-sample reconstruction NLL
  float kl = 0;              ///< mean per-sample KL(q(z|x) || N(0,I))
};

class Vae {
 public:
  Vae(VaeOptions options, std::uint64_t seed);

  [[nodiscard]] const VaeOptions& options() const { return options_; }
  [[nodiscard]] std::int64_t input_dim() const {
    return static_cast<std::int64_t>(options_.n_sites) * options_.n_species;
  }
  [[nodiscard]] std::int64_t latent_dim() const { return options_.latent; }

  /// Weight and bias of every layer, with their gradients, in
  /// construction order: the order of Adam's state and of save().
  [[nodiscard]] std::vector<tensor::Param> parameters();
  [[nodiscard]] std::int64_t parameter_count() const;

  /// Encoder input rows for `batch_size` occupancy vectors laid out back
  /// to back (each of length n_sites, values in [0, n_species)): each
  /// row is the one-hot occupancy followed by that sample's condition
  /// (`conditions` holds batch_size*condition_dim floats).
  [[nodiscard]] std::vector<float> one_hot(
      std::span<const std::uint8_t> occupancies, std::int64_t batch_size,
      std::span<const float> conditions = {}) const;

  /// ELBO loss of a batch of occupancy vectors laid out back to back,
  /// and its gradient: a forward pass, then a backward pass that
  /// overwrites every parameter's gradient. `eps_rng` drives the
  /// reparameterisation noise. For a conditional model, `conditions`
  /// holds batch*condition_dim floats (required); it must be empty
  /// otherwise.
  VaeLossParts loss(std::span<const std::uint8_t> occupancies,
                    Xoshiro256ss& eps_rng,
                    std::span<const float> conditions = {});

  /// Decoder per-site categorical probabilities for a latent vector z
  /// (length latent). Output: n_sites*n_species probabilities, each site
  /// block summing to 1, every entry >= prob_floor/n_species.
  /// `condition` (length condition_dim) is required iff the model is
  /// conditional.
  [[nodiscard]] std::vector<float> decode_probs(
      std::span<const float> z, std::span<const float> condition = {});

  /// Batched decode: `z` holds `batch` latent vectors back to back
  /// (batch * latent floats) and decodes through ONE GEMM instead of
  /// `batch` -- the proposal layer's decode-ahead buffer lives on this.
  /// `condition` (length condition_dim) is broadcast to every row.
  /// Output: batch * n_sites * n_species probabilities, row-major, each
  /// row identical to what decode_probs would return for that z.
  [[nodiscard]] std::vector<float> decode_probs_batch(
      std::span<const float> z, std::int64_t batch,
      std::span<const float> condition = {});

  /// Row-wise batched decode for the cross-walker decode plane: `zc`
  /// holds `rows` decoder input rows back to back, each already laid out
  /// as [z (latent) | condition (condition_dim)] -- unlike
  /// decode_probs_batch, every row carries its OWN condition, so one
  /// fused GEMM can serve walkers pinned to different energy windows.
  /// Writes rows * n_sites * n_species probabilities to `out` (caller
  /// allocated): the logits land there and the softmax runs in place.
  /// Row r is bitwise identical to decode_probs_batch row r for the same
  /// z and condition, for any row count or composition (row-independent
  /// GEMM accumulation + per-site softmax; pinned in test_decode_plane).
  void decode_probs_rows(std::span<const float> zc, std::int64_t rows,
                         float* out);

  /// Binary round-trip of all weights (options are caller-managed).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  Vae(VaeOptions options, Xoshiro256ss rng);

  // Declared, hence constructed, in Xavier-draw order; parameters() and
  // save() list them in the same order.
  VaeOptions options_;
  Linear encoder_;         // input (+ condition) -> hidden, then tanh
  Linear mu_head_;         // hidden -> latent
  Linear logvar_head_;     // hidden -> latent
  Linear decoder_hidden_;  // latent (+ condition) -> hidden, then tanh
  Linear decoder_out_;     // hidden -> input logits
};

}  // namespace dt::nn
