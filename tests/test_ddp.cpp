#include "par/ddp.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>

namespace dt::par {
namespace {

nn::VaeOptions small_opts() {
  nn::VaeOptions o;
  o.n_sites = 16;
  o.n_species = 4;
  o.hidden = 24;
  o.latent = 4;
  return o;
}

std::vector<float> copy(std::span<const float> buffer) {
  return {buffer.begin(), buffer.end()};
}

std::vector<std::uint8_t> striped_sample(int offset) {
  std::vector<std::uint8_t> occ(16);
  for (int i = 0; i < 16; ++i)
    occ[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((i + offset) % 4);
  return occ;
}

TEST(Ddp, GradientAllreduceAveragesAcrossRanks) {
  // Each rank computes a gradient on a different batch; after the
  // allreduce all ranks must hold the identical average.
  std::vector<std::vector<float>> grads(3);
  run_ranks(3, [&](Communicator& comm) {
    nn::Vae vae(small_opts(), 42);  // identical replicas
    nn::TrainOptions to;
    to.seed = 7;  // identical reparameterisation noise
    nn::Trainer trainer(vae, to);
    const auto occ = striped_sample(comm.rank());
    (void)trainer.train_batch(occ, 1, /*defer_optimizer_step=*/true);
    allreduce_gradients(comm, vae);
    grads[static_cast<std::size_t>(comm.rank())] =
        copy(vae.parameters()[0].grad);
  });
  EXPECT_EQ(grads[0], grads[1]);
  EXPECT_EQ(grads[1], grads[2]);
}

TEST(Ddp, ReducedGradientEqualsManualAverage) {
  // Single-rank gradients of the three batches, averaged by hand, must
  // match the DDP-reduced gradient.
  std::vector<std::vector<float>> singles(3);
  for (int r = 0; r < 3; ++r) {
    nn::Vae vae(small_opts(), 42);
    nn::TrainOptions to;
    to.seed = 7;
    nn::Trainer trainer(vae, to);
    (void)trainer.train_batch(striped_sample(r), 1, true);
    singles[static_cast<std::size_t>(r)] = copy(vae.parameters()[0].grad);
  }
  std::vector<float> manual(singles[0].size());
  for (std::size_t i = 0; i < manual.size(); ++i)
    manual[i] =
        (singles[0][i] + singles[1][i] + singles[2][i]) / 3.0f;

  std::vector<float> reduced;
  run_ranks(3, [&](Communicator& comm) {
    nn::Vae vae(small_opts(), 42);
    nn::TrainOptions to;
    to.seed = 7;
    nn::Trainer trainer(vae, to);
    (void)trainer.train_batch(striped_sample(comm.rank()), 1, true);
    allreduce_gradients(comm, vae);
    if (comm.rank() == 0) reduced = copy(vae.parameters()[0].grad);
  });
  ASSERT_EQ(reduced.size(), manual.size());
  for (std::size_t i = 0; i < manual.size(); ++i)
    EXPECT_NEAR(reduced[i], manual[i], 1e-6f);
}

TEST(Ddp, ReplicasStayInSyncAcrossEpochs) {
  std::vector<std::vector<float>> weights(4);
  run_ranks(4, [&](Communicator& comm) {
    nn::Vae vae(small_opts(), 13);
    nn::TrainOptions to;
    to.learning_rate = 5e-3f;
    to.seed = 21;
    nn::Trainer trainer(vae, to);

    nn::ConfigDataset shard(16, 32);
    Xoshiro256ss rng(static_cast<std::uint64_t>(100 + comm.rank()));
    for (int i = 0; i < 8; ++i)
      shard.add(striped_sample(comm.rank() * 8 + i), rng);

    const auto report = ddp_fit(comm, trainer, shard, /*epochs=*/3,
                                /*batch_size=*/4);
    EXPECT_GT(report.steps, 0);
    EXPECT_GT(report.global_samples, 0);
    weights[static_cast<std::size_t>(comm.rank())] =
        copy(vae.parameters()[0].value);
  });
  for (int r = 1; r < 4; ++r)
    EXPECT_EQ(weights[0], weights[static_cast<std::size_t>(r)])
        << "rank " << r << " diverged";
}

TEST(Ddp, TrainingReducesLoss) {
  float first = 0, second = 0;
  run_ranks(2, [&](Communicator& comm) {
    nn::Vae vae(small_opts(), 17);
    nn::TrainOptions to;
    to.learning_rate = 1e-2f;
    to.seed = 5;
    nn::Trainer trainer(vae, to);
    nn::ConfigDataset shard(16, 32);
    Xoshiro256ss rng(static_cast<std::uint64_t>(comm.rank()) + 1);
    for (int i = 0; i < 16; ++i) shard.add(striped_sample(i % 4), rng);

    const auto r1 = ddp_fit(comm, trainer, shard, 2, 8);
    const auto r2 = ddp_fit(comm, trainer, shard, 2, 8);
    if (comm.rank() == 0) {
      first = r1.mean_loss;
      second = r2.mean_loss;
    }
  });
  EXPECT_LT(second, first);
}

TEST(Ddp, UnevenShardsStayCollective) {
  // Rank 0 has 12 samples, rank 1 only 2: ddp_fit must not deadlock and
  // must keep replicas identical.
  std::vector<std::vector<float>> weights(2);
  run_ranks(2, [&](Communicator& comm) {
    nn::Vae vae(small_opts(), 19);
    nn::TrainOptions to;
    to.seed = 3;
    nn::Trainer trainer(vae, to);
    nn::ConfigDataset shard(16, 32);
    Xoshiro256ss rng(9);
    const int count = comm.rank() == 0 ? 12 : 2;
    for (int i = 0; i < count; ++i) shard.add(striped_sample(i), rng);
    (void)ddp_fit(comm, trainer, shard, 1, 4);
    weights[static_cast<std::size_t>(comm.rank())] =
        copy(vae.parameters()[0].value);
  });
  EXPECT_EQ(weights[0], weights[1]);
}

TEST(Ddp, EmptyShardThrows) {
  EXPECT_THROW(
      run_ranks(1,
                [&](Communicator& comm) {
                  nn::Vae vae(small_opts(), 23);
                  nn::Trainer trainer(vae, nn::TrainOptions{});
                  nn::ConfigDataset shard(16, 8);
                  (void)ddp_fit(comm, trainer, shard, 1, 4);
                }),
      dt::Error);
}

}  // namespace
}  // namespace dt::par
