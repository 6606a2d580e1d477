// Ablation A2: VAE capacity (latent dimension and hidden width).
//
// DESIGN.md decision: the proposal's usefulness depends on how well the
// decoder covers the sampled configuration manifold. This ablation
// pretrains VAEs of several geometries on identical data and measures
// the global kernel's acceptance inside a fixed Wang-Landau budget, plus
// the training loss reached.
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto base_opts = bench::bench_options(cfg);
  base_opts.lattice.nx = base_opts.lattice.ny = base_opts.lattice.nz =
      cfg.get_int_as("cells", 2);
  base_opts.n_bins = cfg.get_int_as<std::int32_t>("bins", 60);
  const auto budget = cfg.get_int("budget_sweeps", 3000);
  cfg.require_all_read();
  bench::print_run_header("A2: VAE capacity ablation", base_opts);

  struct Geometry {
    std::int64_t hidden;
    std::int64_t latent;
  };
  const std::vector<Geometry> geometries = {
      {16, 2}, {32, 4}, {64, 8}, {64, 16}, {128, 16}};

  Table table({"hidden", "latent", "params", "final_train_loss",
               "vae_acceptance", "round_trips"});
  for (const auto& g : geometries) {
    auto opts = base_opts;
    opts.vae.hidden = g.hidden;
    opts.vae.latent = g.latent;
    auto fw = core::Framework::nbmotaw(opts);
    const auto report = fw.pretrain();

    const auto& ham = fw.hamiltonian();
    mc::Rng init_rng(opts.seed, stream_id(0xA2, 0));
    auto config =
        lattice::random_configuration(fw.lattice_ref(), 4, init_rng);
    mc::WangLandauSampler wl(ham, config, fw.grid(), opts.rewl.wl,
                             mc::Rng(opts.seed, stream_id(0xA2, 1)));
    {
      mc::LocalSwapProposal seek(ham);
      wl.seek_window(seek, 500);
    }
    core::DeepThermoProposal kernel(ham, fw.vae(), opts.global_fraction);
    wl.advance(kernel, budget);

    table.add(g.hidden, g.latent, fw.vae()->parameter_count(),
              report.epoch_loss.empty() ? 0.0f : report.epoch_loss.back(),
              kernel.vae_stats().acceptance_rate(),
              static_cast<std::int64_t>(wl.stats().round_trips));
  }
  bench::emit(table, cfg, "Ablation A2: VAE geometry sweep");

  std::cout << "expected shape: acceptance grows with capacity up to the\n"
               "size of the configuration manifold, then saturates; very\n"
               "small latents underfit (low acceptance).\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_a2_vae_capacity", run, argc, argv);
}
