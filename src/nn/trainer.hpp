// Minibatch trainer for the VAE proposal network.
//
// The sampler streams configurations into a bounded ConfigDataset
// (reservoir-style once full, so the training distribution tracks the
// whole run, not just the newest walkers); Trainer::fit runs Adam epochs
// over it. Data-parallel training across minicomm ranks lives in
// src/par (gradient allreduce) -- this class is the single-rank core.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "nn/vae.hpp"
#include "tensor/optimizer.hpp"

namespace dt::nn {

/// Bounded sample store of flattened occupancy vectors, optionally with
/// a per-sample condition vector (conditional-VAE training).
class ConfigDataset {
 public:
  ConfigDataset(std::int32_t n_sites, std::size_t capacity,
                std::int32_t condition_dim = 0);

  /// Add one configuration (length n_sites) with its condition (length
  /// condition_dim; empty for unconditional datasets). Once at capacity,
  /// replaces a uniformly random stored sample (reservoir sampling).
  void add(std::span<const std::uint8_t> occupancy, Xoshiro256ss& rng,
           std::span<const float> condition = {});

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::int32_t n_sites() const { return n_sites_; }
  [[nodiscard]] std::int32_t condition_dim() const { return condition_dim_; }

  /// Occupancy / condition of stored sample `i`.
  [[nodiscard]] std::span<const std::uint8_t> sample(std::size_t i) const;
  [[nodiscard]] std::span<const float> condition(std::size_t i) const;

  void clear();

  /// Checkpoint the stored samples plus the reservoir's `seen` counter;
  /// load_state into a dataset of matching geometry resumes the exact
  /// reservoir distribution.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::int32_t n_sites_;
  std::int32_t condition_dim_;
  std::size_t capacity_;
  std::size_t count_ = 0;
  std::uint64_t seen_ = 0;
  std::vector<std::uint8_t> storage_;
  std::vector<float> conditions_;
};

struct TrainOptions {
  std::int32_t epochs = 10;
  std::int32_t batch_size = 32;
  float learning_rate = 1e-3f;
  std::uint64_t seed = 1;
};

struct TrainReport {
  std::vector<float> epoch_loss;       ///< mean total loss per epoch
  /// L2 norm of the parameter gradient after each epoch's last batch
  /// (a cheap divergence/vanishing diagnostic; also exported as the
  /// "train_epoch" telemetry event).
  std::vector<float> epoch_grad_norm;
  float final_reconstruction = 0.0f;
  float final_kl = 0.0f;
  std::int64_t samples_seen = 0;
};

/// Observes (epoch index, mean epoch loss) after each completed fit()
/// epoch -- the checkpoint layer saves mid-training state from here.
using EpochHook = std::function<void(std::int32_t, float)>;

class Trainer {
 public:
  /// `vae` must outlive the trainer: its Adam holds views of the
  /// weight and gradient buffers and updates them in place.
  Trainer(Vae& vae, TrainOptions options);

  /// Run epochs [first_epoch, options.epochs) over the dataset. The
  /// hook, when set, observes (epoch, mean loss) after each epoch.
  /// `first_epoch` > 0 is the checkpoint-resume path: combined with
  /// load_state() it continues a partially trained model bit-exactly.
  TrainReport fit(const ConfigDataset& dataset, const EpochHook& hook = {},
                  std::int32_t first_epoch = 0);

  /// One gradient step on an explicit batch of occupancy vectors laid out
  /// back to back (`conditions` likewise, batch*condition_dim floats for
  /// conditional models). Returns the loss parts. Exposed for the
  /// data-parallel trainer, which reduces gradients between the backward
  /// pass and step().
  VaeLossParts train_batch(std::span<const std::uint8_t> occupancies,
                           std::int64_t batch_size,
                           bool defer_optimizer_step = false,
                           std::span<const float> conditions = {});

  /// Apply the deferred optimizer step (data-parallel path).
  void apply_step();

  /// L2 norm of the current parameter gradients (valid after a
  /// train_batch / backward pass).
  [[nodiscard]] float gradient_norm() const;

  [[nodiscard]] Vae& vae() { return *vae_; }

  /// Checkpoint the trainer-owned mutable state: Adam moments + step
  /// count and the shuffle/reparameterisation RNG. Model weights are
  /// saved separately (Vae::save) -- together the two round-trip a
  /// mid-training session bit-exactly.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  Vae* vae_;
  TrainOptions options_;
  tensor::Adam optimizer_;
  Xoshiro256ss rng_;
};

}  // namespace dt::nn
