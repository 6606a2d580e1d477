// Ablation A1: VAE mixing ratio.
//
// DESIGN.md decision 3: pure global proposals stall at low energies,
// pure local proposals diffuse slowly -- DeepThermo mixes them. This
// ablation sweeps the VAE share rho of the mixed kernel and reports
// sweeps-to-convergence, wall time and per-component acceptance on a
// small system (several full pipeline runs).
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz =
      cfg.get_int_as("cells", 2);
  opts.n_bins = cfg.get_int_as<std::int32_t>("bins", 60);
  cfg.require_all_read();
  bench::print_run_header("A1: VAE mixing-ratio ablation", opts);

  Table table({"rho_vae", "converged", "total_sweeps", "sample_s",
               "vae_acceptance", "local_acceptance"});
  for (const double rho : {0.0, 0.02, 0.05, 0.10, 0.25, 0.50}) {
    auto run_opts = opts;
    run_opts.global_fraction = rho;
    run_opts.use_vae = rho > 0.0;
    auto fw = core::Framework::nbmotaw(run_opts);
    const auto result = fw.run();
    table.add(rho, result.rewl.converged ? "yes" : "no",
              result.rewl.total_sweeps, result.sample_seconds,
              result.vae_stats.acceptance_rate(),
              result.local_stats.acceptance_rate());
  }
  bench::emit(table, cfg, "Ablation A1: mixing ratio sweep");

  std::cout << "expected shape: small rho (a few %) minimises sweeps;\n"
               "large rho wastes work on rejected global moves (each one\n"
               "costs a full energy evaluation).\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_a1_mixing", run, argc, argv);
}
