#include "par/ddp.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace dt::par {

void allreduce_gradients(Communicator& comm, nn::Vae& vae) {
  const float inv = 1.0f / static_cast<float>(comm.size());
  for (const auto& p : vae.parameters()) {
    comm.allreduce_sum(p.grad);
    for (auto& g : p.grad) g *= inv;
  }
}

DdpReport ddp_fit(Communicator& comm, nn::Trainer& trainer,
                  const nn::ConfigDataset& shard, std::int32_t epochs,
                  std::int32_t batch_size) {
  DT_CHECK(epochs >= 1);
  DT_CHECK(batch_size >= 1);
  DT_CHECK_MSG(shard.size() > 0, "ddp_fit: empty local shard");

  // All ranks must take the same number of steps; use the largest shard
  // to size the epoch, recycling small shards.
  const auto local_batches = static_cast<std::int64_t>(
      (shard.size() + static_cast<std::size_t>(batch_size) - 1) /
      static_cast<std::size_t>(batch_size));
  const std::int64_t max_batches =
      static_cast<std::int64_t>(comm.allreduce_max(
          static_cast<double>(local_batches)));

  DdpReport report;
  double loss_acc = 0.0;

  std::vector<std::uint8_t> batch_buf;
  std::vector<float> cond_buf;
  for (std::int32_t epoch = 0; epoch < epochs; ++epoch) {
    for (std::int64_t step = 0; step < max_batches; ++step) {
      batch_buf.clear();
      cond_buf.clear();
      for (std::int32_t k = 0; k < batch_size; ++k) {
        const auto idx = static_cast<std::size_t>(
            (step * batch_size + k) % static_cast<std::int64_t>(shard.size()));
        const auto s = shard.sample(idx);
        batch_buf.insert(batch_buf.end(), s.begin(), s.end());
        const auto c = shard.condition(idx);
        cond_buf.insert(cond_buf.end(), c.begin(), c.end());
      }
      const auto parts = trainer.train_batch(batch_buf, batch_size,
                                             /*defer_optimizer_step=*/true,
                                             cond_buf);
      allreduce_gradients(comm, trainer.vae());
      trainer.apply_step();

      loss_acc += static_cast<double>(parts.total);
      report.global_samples +=
          static_cast<std::int64_t>(batch_size) * comm.size();
      ++report.steps;
    }
  }
  report.mean_loss = report.steps == 0
                         ? 0.0f
                         : static_cast<float>(loss_acc /
                                              static_cast<double>(report.steps));
  return report;
}

}  // namespace dt::par
