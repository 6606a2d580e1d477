// Ablation A3: energy-conditioned (conditional-VAE) proposals.
//
// The extension DESIGN.md lists under the framework: train the decoder
// conditioned on the normalised sample energy and fix each walker's
// condition to its window centre. Compares the unconditional and
// conditional pipelines on the same system: convergence sweeps, VAE
// acceptance, wall time.
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
  bench::print_run_header("A3: conditional-VAE ablation", opts);

  Table table({"pipeline", "converged", "total_sweeps", "sample_s",
               "vae_acceptance"});
  for (const bool conditional : {false, true}) {
    auto run_opts = opts;
    run_opts.condition_on_energy = conditional;
    auto fw = core::Framework::nbmotaw(run_opts);
    const auto result = fw.run();
    table.add(conditional ? "conditional (window-centred)" : "unconditional",
              result.rewl.converged ? "yes" : "no",
              result.rewl.total_sweeps, result.sample_seconds,
              result.vae_stats.acceptance_rate());
  }
  bench::emit(table, cfg, "Ablation A3: decoder conditioning");

  std::cout << "expected shape: conditioning concentrates decoded samples\n"
               "near each walker's window, raising global-move acceptance\n"
               "especially in low-energy (ordered) windows.\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_a3_conditioning", run, argc, argv);
}
