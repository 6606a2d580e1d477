#include "nn/trainer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dt::nn {

ConfigDataset::ConfigDataset(std::int32_t n_sites, std::size_t capacity,
                             std::int32_t condition_dim)
    : n_sites_(n_sites), condition_dim_(condition_dim), capacity_(capacity) {
  DT_CHECK(n_sites > 0);
  DT_CHECK(capacity > 0);
  DT_CHECK(condition_dim >= 0);
  storage_.reserve(capacity * static_cast<std::size_t>(n_sites));
}

void ConfigDataset::add(std::span<const std::uint8_t> occupancy,
                        Xoshiro256ss& rng, std::span<const float> condition) {
  DT_CHECK_MSG(occupancy.size() == static_cast<std::size_t>(n_sites_),
               "dataset sample size mismatch");
  DT_CHECK_MSG(condition.size() == static_cast<std::size_t>(condition_dim_),
               "dataset condition size mismatch");
  ++seen_;
  const auto n = static_cast<std::size_t>(n_sites_);
  const auto c = static_cast<std::size_t>(condition_dim_);
  if (count_ < capacity_) {
    storage_.insert(storage_.end(), occupancy.begin(), occupancy.end());
    conditions_.insert(conditions_.end(), condition.begin(), condition.end());
    ++count_;
    return;
  }
  // Reservoir: replace slot j < capacity with probability capacity/seen.
  const auto j = uniform_index(rng, seen_);
  if (j < capacity_) {
    std::copy(occupancy.begin(), occupancy.end(),
              storage_.begin() + static_cast<std::ptrdiff_t>(j * n));
    std::copy(condition.begin(), condition.end(),
              conditions_.begin() + static_cast<std::ptrdiff_t>(j * c));
  }
}

std::span<const std::uint8_t> ConfigDataset::sample(std::size_t i) const {
  DT_CHECK(i < count_);
  const auto n = static_cast<std::size_t>(n_sites_);
  return {storage_.data() + i * n, n};
}

std::span<const float> ConfigDataset::condition(std::size_t i) const {
  DT_CHECK(i < count_);
  const auto c = static_cast<std::size_t>(condition_dim_);
  return {conditions_.data() + i * c, c};
}

void ConfigDataset::clear() {
  storage_.clear();
  conditions_.clear();
  count_ = 0;
  seen_ = 0;
}

namespace {
constexpr std::uint64_t kDatasetMagic = 0x44'54'44'41'54'41'30'31ULL;
constexpr std::uint64_t kTrainerMagic = 0x44'54'54'52'4E'52'30'31ULL;
}  // namespace

void ConfigDataset::save_state(std::ostream& os) const {
  write_pod(os, kDatasetMagic);
  write_pod(os, n_sites_);
  write_pod(os, condition_dim_);
  write_pod<std::uint64_t>(os, capacity_);
  write_pod<std::uint64_t>(os, count_);
  write_pod(os, seen_);
  write_vector(os, storage_);
  write_vector(os, conditions_);
}

void ConfigDataset::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint64_t>(is) == kDatasetMagic,
               "dataset checkpoint: bad magic");
  DT_CHECK_MSG(read_pod<std::int32_t>(is) == n_sites_ &&
                   read_pod<std::int32_t>(is) == condition_dim_ &&
                   read_pod<std::uint64_t>(is) == capacity_,
               "dataset checkpoint: geometry mismatch");
  count_ = read_pod<std::uint64_t>(is);
  seen_ = read_pod<std::uint64_t>(is);
  storage_ = read_vector<std::uint8_t>(is);
  conditions_ = read_vector<float>(is);
  DT_CHECK_MSG(storage_.size() ==
                       count_ * static_cast<std::size_t>(n_sites_) &&
                   conditions_.size() ==
                       count_ * static_cast<std::size_t>(condition_dim_),
               "dataset checkpoint: payload size mismatch");
}

Trainer::Trainer(Vae& vae, TrainOptions options)
    : vae_(&vae),
      options_(options),
      optimizer_(vae.parameters(), options.learning_rate),
      rng_(options.seed) {
  DT_CHECK(options.epochs >= 1);
  DT_CHECK(options.batch_size >= 1);
}

VaeLossParts Trainer::train_batch(std::span<const std::uint8_t> occupancies,
                                  std::int64_t batch_size,
                                  bool defer_optimizer_step,
                                  std::span<const float> conditions) {
  DT_CHECK(static_cast<std::int64_t>(occupancies.size()) ==
           batch_size * vae_->options().n_sites);
  const VaeLossParts parts = vae_->loss(occupancies, rng_, conditions);
  if (!defer_optimizer_step) optimizer_.step();
  return parts;
}

void Trainer::apply_step() { optimizer_.step(); }

void Trainer::save_state(std::ostream& os) const {
  write_pod(os, kTrainerMagic);
  write_pod(os, rng_.state());
  optimizer_.save_state(os);
}

void Trainer::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint64_t>(is) == kTrainerMagic,
               "trainer checkpoint: bad magic");
  rng_.set_state(read_pod<std::array<std::uint64_t, 4>>(is));
  optimizer_.load_state(is);
}

float Trainer::gradient_norm() const {
  double sum_sq = 0.0;
  for (const auto& p : vae_->parameters())
    for (const float g : p.grad)
      sum_sq += static_cast<double>(g) * static_cast<double>(g);
  return static_cast<float>(std::sqrt(sum_sq));
}

TrainReport Trainer::fit(const ConfigDataset& dataset, const EpochHook& hook,
                         std::int32_t first_epoch) {
  DT_SPAN("nn.fit");
  DT_CHECK_MSG(dataset.size() > 0, "fit() on an empty dataset");
  DT_CHECK(dataset.n_sites() == vae_->options().n_sites);
  DT_CHECK_MSG(first_epoch >= 0 && first_epoch <= options_.epochs,
               "fit(): first_epoch out of range");

  const auto n_samples = dataset.size();
  std::vector<std::size_t> order(n_samples);
  std::iota(order.begin(), order.end(), 0);

  DT_CHECK_MSG(dataset.condition_dim() == vae_->options().condition_dim,
               "dataset/VAE condition_dim mismatch");

  TrainReport report;
  std::vector<std::uint8_t> batch_buf;
  std::vector<float> cond_buf;
  for (std::int32_t epoch = first_epoch; epoch < options_.epochs; ++epoch) {
    // Fisher-Yates shuffle of the visit order, restarted from the
    // identity so each epoch's order is a pure function of the RNG state
    // at its start -- a mid-training checkpoint resume (which restores
    // the RNG but not the evolved permutation) then replays identically.
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n_samples - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_index(rng_, i + 1));
      std::swap(order[i], order[j]);
    }

    double loss_acc = 0.0;
    std::int64_t batches = 0;
    float last_recon = 0.0f, last_kl = 0.0f;
    for (std::size_t start = 0; start < n_samples;
         start += static_cast<std::size_t>(options_.batch_size)) {
      const std::size_t end = std::min(
          n_samples, start + static_cast<std::size_t>(options_.batch_size));
      const auto b = static_cast<std::int64_t>(end - start);
      batch_buf.clear();
      cond_buf.clear();
      for (std::size_t k = start; k < end; ++k) {
        const auto s = dataset.sample(order[k]);
        batch_buf.insert(batch_buf.end(), s.begin(), s.end());
        const auto c = dataset.condition(order[k]);
        cond_buf.insert(cond_buf.end(), c.begin(), c.end());
      }
      const VaeLossParts parts =
          train_batch(batch_buf, b, /*defer_optimizer_step=*/false, cond_buf);
      loss_acc += static_cast<double>(parts.total);
      last_recon = parts.reconstruction;
      last_kl = parts.kl;
      ++batches;
      report.samples_seen += b;
    }
    const auto mean_loss =
        static_cast<float>(loss_acc / static_cast<double>(batches));
    // Each batch overwrites the gradients, which stay in place until the
    // next one, so the last batch's gradient is still live here.
    const float grad_norm = gradient_norm();
    report.epoch_loss.push_back(mean_loss);
    report.epoch_grad_norm.push_back(grad_norm);
    report.final_reconstruction = last_recon;
    report.final_kl = last_kl;

    if (obs::instrumentation_active())
      obs::MetricsRegistry::global().counter("train.epochs").add();
    obs::Telemetry& telemetry = obs::Telemetry::instance();
    if (telemetry.enabled()) {
      telemetry.emit(obs::Event("train_epoch")
                         .with("epoch", static_cast<std::int64_t>(epoch))
                         .with("loss", static_cast<double>(mean_loss))
                         .with("recon", static_cast<double>(last_recon))
                         .with("kl", static_cast<double>(last_kl))
                         .with("grad_norm", static_cast<double>(grad_norm))
                         .with("samples", report.samples_seen));
    }
    if (hook) hook(epoch, mean_loss);
  }
  return report;
}

}  // namespace dt::nn
