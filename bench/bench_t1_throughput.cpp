// Experiment T1: per-device kernel throughput.
//
// Measured on this CPU: local-swap proposals/s, VAE global proposals/s
// (decode + constrained sampling + full energy evaluation) and VAE
// training samples/s. Modelled for one V100 and one MI250X GCD via the
// device cost models -- the per-GPU rows a paper's performance table
// reports.
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "device/cluster.hpp"
#include "nn/trainer.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  const std::int64_t local_moves = cfg.get_int("local_moves", 2000000);
  const std::int64_t vae_moves = cfg.get_int("vae_moves", 3000);
  const std::int64_t train_steps = cfg.get_int("train_steps", 60);
  cfg.require_all_read();
  bench::print_run_header("T1: kernel throughput", opts);

  auto fw = core::Framework::nbmotaw(opts);
  fw.pretrain();
  const auto& ham = fw.hamiltonian();
  const auto& lat = fw.lattice_ref();

  mc::Rng rng(opts.seed, stream_id(0x71, 0));
  auto config = lattice::random_configuration(lat, 4, rng);

  // ---- measured: local swaps ----
  double local_rate = 0;
  {
    mc::LocalSwapProposal kernel(ham);
    Stopwatch clock;
    double e = ham.total_energy(config);
    for (std::int64_t i = 0; i < local_moves; ++i) {
      const auto r = kernel.propose(config, units::Energy(e), rng);
      if (r.valid) e += r.delta_energy.value();  // keep, no revert: max throughput
    }
    local_rate = static_cast<double>(local_moves) / clock.seconds();
  }

  // ---- measured: VAE global proposals ----
  double vae_rate = 0;
  {
    core::VaeProposal kernel(ham, fw.vae());
    Stopwatch clock;
    double e = ham.total_energy(config);
    for (std::int64_t i = 0; i < vae_moves; ++i) {
      const auto r = kernel.propose(config, units::Energy(e), rng);
      e += r.delta_energy.value();
    }
    vae_rate = static_cast<double>(vae_moves) / clock.seconds();
  }

  // ---- measured: VAE training ----
  double train_rate = 0;
  {
    nn::TrainOptions to;
    to.batch_size = 32;
    nn::Trainer trainer(*fw.vae(), to);
    std::vector<std::uint8_t> batch;
    for (int b = 0; b < to.batch_size; ++b) {
      auto sample = lattice::random_configuration(lat, 4, rng);
      batch.insert(batch.end(), sample.occupancy().begin(),
                   sample.occupancy().end());
    }
    Stopwatch clock;
    for (std::int64_t i = 0; i < train_steps; ++i)
      (void)trainer.train_batch(batch, to.batch_size);
    train_rate =
        static_cast<double>(train_steps * to.batch_size) / clock.seconds();
  }

  Table measured({"kernel", "throughput", "unit"});
  measured.add("local swap proposal", local_rate, "proposals/s");
  measured.add("VAE global proposal", vae_rate, "proposals/s");
  measured.add("VAE training", train_rate, "samples/s");
  bench::emit(measured, cfg, "Table T1a: measured on this CPU", "measured");

  // ---- modelled per-GPU rows ----
  device::ScalingWorkload w;
  w.n_sites = lat.num_sites();
  w.n_species = 4;
  w.vae_hidden = opts.vae.hidden;
  w.vae_latent = opts.vae.latent;
  w.n_bins = opts.n_bins;

  Table modelled({"device", "local moves/s", "VAE proposal/s",
                  "train samples/s"});
  for (const auto& dev : {device::v100(), device::mi250x_gcd()}) {
    const device::ClusterSimulator sim(
        dev, dev.name == "V100" ? device::summit_network()
                                : device::frontier_network());
    auto local_only = w;
    local_only.global_fraction = 0.0;
    const double sweeps_per_s = 1.0 / sim.sweep_time(local_only);
    const double decode_per_s = 1.0 / sim.decode_time(w);
    const double train_per_s =
        static_cast<double>(w.train_batch) / sim.train_step_time(w);
    modelled.add(dev.name, sweeps_per_s * static_cast<double>(w.n_sites),
                 decode_per_s, train_per_s);
  }
  bench::emit(modelled, cfg, "Table T1b: modelled per-GPU throughput",
              "modelled");
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_t1_throughput", run, argc, argv);
}
