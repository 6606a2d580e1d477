// Micro-benchmarks of DeepThermo's hot kernels (google-benchmark).
//
// These are the per-operation costs the cluster cost model abstracts:
// swap Delta-E, full energy evaluation, a Wang-Landau sweep, VAE decode,
// VAE training step, minicomm collectives and a checkpoint's CRC and save.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/deepthermo.hpp"
#include "nn/lane_tanh.hpp"
#include "nn/trainer.hpp"
#include "par/minicomm.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace dt;

struct System {
  lattice::Lattice lat;
  lattice::EpiHamiltonian ham;

  explicit System(int cells)
      : lat(lattice::Lattice::create(lattice::LatticeType::kBCC, cells,
                                     cells, cells, 2)),
        ham(lattice::epi_nbmotaw()) {}
};

void BM_SwapDelta(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(1, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  const auto n = static_cast<std::uint64_t>(sys.lat.num_sites());
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(uniform_index(rng, n));
    const auto b = static_cast<std::int32_t>(uniform_index(rng, n));
    benchmark::DoNotOptimize(sys.ham.swap_delta(cfg, a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapDelta)->Arg(4)->Arg(8);

void BM_TotalEnergy(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(2, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(sys.ham.total_energy(cfg));
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
// {10} is N = 2000, the vae2000 scale.
BENCHMARK(BM_TotalEnergy)->Arg(4)->Arg(8)->Arg(10);

void BM_WangLandauSweep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(3, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  const auto [lo, hi] =
      mc::estimate_energy_range(sys.ham, cfg, 20, 0.02, mc::Rng(3, 1));
  const mc::EnergyGrid grid(lo, hi, 100);
  mc::WangLandauSampler wl(sys.ham, cfg, grid, mc::WangLandauOptions{},
                           mc::Rng(3, 2));
  mc::LocalSwapProposal kernel(sys.ham);
  for (auto _ : state) wl.sweep(kernel);
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
BENCHMARK(BM_WangLandauSweep)->Arg(4)->Arg(8);

void BM_MetropolisSweep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  mc::Rng rng(4, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  mc::MetropolisSampler sampler(sys.ham, cfg, units::Temperature(0.1),
                                mc::Rng(4, 1));
  mc::LocalSwapProposal kernel(sys.ham);
  for (auto _ : state) sampler.sweep(kernel);
  state.SetItemsProcessed(state.iterations() * sys.lat.num_sites());
}
BENCHMARK(BM_MetropolisSweep)->Arg(4)->Arg(8);

std::shared_ptr<nn::Vae> bench_vae(const System& sys, std::int64_t hidden,
                                   std::int64_t latent) {
  nn::VaeOptions o;
  o.n_sites = sys.lat.num_sites();
  o.n_species = 4;
  o.hidden = hidden;
  o.latent = latent;
  return std::make_shared<nn::Vae>(o, 5);
}

void BM_VaeDecode(benchmark::State& state) {
  System sys(4);
  auto vae = bench_vae(sys, state.range(0), 16);
  std::vector<float> z(16, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(vae->decode_probs(z));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VaeDecode)->Arg(64)->Arg(256);

// Amortised per-latent decode cost at batch K (range(1)); K = 1 is the
// pre-fast-path baseline of one GEMM per proposal. {3, 16} is tts54's
// decode-ahead batch at N = 54.
void BM_VaeDecodeBatch(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, 64, 16);
  const auto k = static_cast<std::int64_t>(state.range(1));
  std::vector<float> z(static_cast<std::size_t>(16 * k), 0.3f);
  for (auto _ : state)
    benchmark::DoNotOptimize(vae->decode_probs_batch(z, k));
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_VaeDecodeBatch)
    ->Args({3, 16})
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({10, 1})
    ->Args({10, 8})
    ->Args({10, 16})
    ->Args({10, 32});

// Full VAE global move: decode and the lane-parallel sampling of the
// candidates with their pair counts (both amortised over the
// decode-ahead batch, range(1)) + the reverse density and the install.
// {3, 16} is tts54's N = 54, {4, *} the unit-test scale, {10, *} is
// N = 2000.
void BM_VaeGlobalProposal(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, 64, 16);
  core::VaeProposal kernel(sys.ham, vae);
  kernel.set_decode_batch(static_cast<std::int32_t>(state.range(1)));
  mc::Rng rng(6, 0);
  auto cfg = lattice::random_configuration(sys.lat, 4, rng);
  double e = sys.ham.total_energy(cfg);
  for (auto _ : state) {
    const auto r = kernel.propose(cfg, units::Energy(e), rng);
    e += r.delta_energy.value();
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VaeGlobalProposal)
    ->Args({3, 16})
    ->Args({4, 1})
    ->Args({10, 1})
    ->Args({10, 8})
    ->Args({10, 16})
    ->Args({10, 32});

// The tensor-layer GEMM behind every VAE forward/backward, vs the
// pre-blocking naive loop it replaced (see BENCH_baseline.json).
void BM_GemmNN(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(d * d, 0.5f);
  std::vector<float> b(d * d, 0.25f);
  std::vector<float> c(d * d);
  for (auto _ : state) {
    tensor::gemm_nn(d, d, d, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * d * d * d));
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(256);

// gemm_nn_acc(m, k, n), the decoder's output layer: {16, 64, 216} is
// tts54's decode-ahead batch (54 sites x 4 species), whose last 216 % 16
// columns take the padded tail tile.
void BM_GemmNnAcc(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  std::vector<float> a(m * k, 0.5f);
  std::vector<float> b(k * n, 0.25f);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nn_acc(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK(BM_GemmNnAcc)->Args({16, 64, 216});

// The decoder's hidden activation: tanh over a 16 x 64 decode-ahead
// batch, equal to std::tanh bit for bit. The inputs span (-4, 4) and
// miss 0, so every value takes the vector path, as decoder
// pre-activations do.
void BM_LaneTanh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> src(n), x(n);
  for (std::size_t i = 0; i < n; ++i)
    src[i] = -4.0f + 8.0f * (static_cast<float>(i) + 0.5f) /
                         static_cast<float>(n);
  for (auto _ : state) {
    x = src;
    nn::lane_tanh(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LaneTanh)->Arg(1024);

void BM_GemmBackward(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(d * d, 0.5f);
  std::vector<float> dy(d * d, 0.25f);
  std::vector<float> da(d * d, 0.0f);
  std::vector<float> db(d * d, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nt_acc(d, d, d, dy.data(), a.data(), da.data());
    tensor::gemm_tn_acc(d, d, d, a.data(), dy.data(), db.data());
    benchmark::DoNotOptimize(da.data());
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(4 * d * d * d));
}
BENCHMARK(BM_GemmBackward)->Arg(256);

// The two backward contractions of one VAE training step at 2000 sites
// (batch 32, hidden 64), each on one thread as every kernel runs:
// {32, 64, 8000} is the decoder output layer, {32, 8000, 64} the encoder
// input layer. gemm_nt_acc(m, n, t): dA(m, n) += dY(m, t) . B(n, t)^T.
void BM_GemmNtAcc(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto t = static_cast<std::size_t>(state.range(2));
  std::vector<float> dy(m * t, 0.5f);
  std::vector<float> b(n * t, 0.25f);
  std::vector<float> da(m * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nt_acc(m, n, t, dy.data(), b.data(), da.data());
    benchmark::DoNotOptimize(da.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * m * n * t));
}
BENCHMARK(BM_GemmNtAcc)->Args({32, 64, 8000})->Args({32, 8000, 64});

// gemm_tn_acc(p, m, n): dB(m, n) += A(p, m)^T . dY(p, n).
void BM_GemmTnAcc(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  std::vector<float> a(p * m, 0.5f);
  std::vector<float> dy(p * n, 0.25f);
  std::vector<float> db(m * n, 0.0f);
  for (auto _ : state) {
    tensor::gemm_tn_acc(p, m, n, a.data(), dy.data(), db.data());
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * p * m * n));
}
BENCHMARK(BM_GemmTnAcc)->Args({32, 64, 8000})->Args({32, 8000, 64});

// One training step (forward, backward, Adam) of the benchmark VAE
// (hidden 64, latent 8) at N = 2*cells^3 sites and batch range(1).
void BM_VaeTrainStep(benchmark::State& state) {
  System sys(static_cast<int>(state.range(0)));
  auto vae = bench_vae(sys, 64, 8);
  nn::TrainOptions to;
  to.batch_size = static_cast<std::int32_t>(state.range(1));
  nn::Trainer trainer(*vae, to);
  mc::Rng rng(7, 0);
  std::vector<std::uint8_t> batch;
  for (int b = 0; b < to.batch_size; ++b) {
    auto sample = lattice::random_configuration(sys.lat, 4, rng);
    batch.insert(batch.end(), sample.occupancy().begin(),
                 sample.occupancy().end());
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(trainer.train_batch(batch, to.batch_size));
  state.SetItemsProcessed(state.iterations() * to.batch_size);
}
BENCHMARK(BM_VaeTrainStep)->Args({4, 8})->Args({4, 32})->Args({10, 32});

void BM_MinicommAllreduce(benchmark::State& state) {
  const auto ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    par::run_ranks(ranks, [&](par::Communicator& comm) {
      std::vector<float> data(elems, static_cast<float>(comm.rank()));
      comm.allreduce_sum(std::span<float>(data.data(), data.size()));
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_MinicommAllreduce)->Args({2, 1024})->Args({4, 65536});

void BM_MinicommBarrier(benchmark::State& state) {
  const auto ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    par::run_ranks(ranks, [](par::Communicator& comm) {
      for (int i = 0; i < 100; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MinicommBarrier)->Arg(2)->Arg(4);

// The checkpoint layer at retrain2000's REWL-save shape: 29.4 MB through
// one CRC pass, then a whole crash-consistent save (two 12.6 MB rank
// records plus the 4.2 MB `vae.pretrained`) into a scratch directory.
constexpr std::size_t kRankRecordBytes = 12'600'000;
constexpr std::size_t kPretrainedBytes = 4'200'000;

std::string filler(std::size_t n, char seed) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<char>(static_cast<std::size_t>(seed) + i * 131);
  return out;
}

void BM_Crc32(benchmark::State& state) {
  const std::string data =
      filler(2 * kRankRecordBytes + kPretrainedBytes, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(ckpt::crc32({data.data(), data.size()}));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

void BM_CheckpointSave(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dt_bench_micro_ckpt";
  std::filesystem::remove_all(dir);
  ckpt::CheckpointStore store(dir.string(), /*keep_last=*/1);
  ckpt::CheckpointBuilder builder;
  builder.add("rank0", filler(kRankRecordBytes, 2));
  builder.add("rank1", filler(kRankRecordBytes, 3));
  builder.add("vae.pretrained", filler(kPretrainedBytes, 4));
  std::size_t bytes = 0;
  for (auto _ : state) bytes = store.save(builder).bytes;
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
