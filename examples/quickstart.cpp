// Quickstart: density of states and thermodynamics of a small alloy in
// ~40 lines of library calls.
//
//   ./examples/quickstart
//
// Builds a 2-species Ising-like alloy on a small BCC lattice, runs the
// full DeepThermo pipeline (VAE pretraining + replica-exchange
// Wang-Landau with the mixed kernel), then prints the specific heat
// curve and the transition temperature.
#include <cstdio>

#include "common/run_main.hpp"
#include "core/deepthermo.hpp"

int run() {
  using namespace dt;

  // 1. Describe the system and the run. Defaults are sensible; anything
  //    can be overridden (see core/framework.hpp).
  core::DeepThermoOptions options;
  options.lattice.type = lattice::LatticeType::kBCC;
  options.lattice.nx = options.lattice.ny = options.lattice.nz = 3;
  options.lattice.n_shells = 1;
  options.n_species = 2;
  options.n_bins = 80;
  options.rewl.n_windows = 2;
  options.rewl.wl.log_f_final = 1e-4;  // demo accuracy; default is 1e-6
  options.seed = 7;

  // 2. Pick a Hamiltonian: here the antiferromagnetic Ising limit, which
  //    has a well-understood B2 ordering transition. For the paper's
  //    quaternary alloy use core::Framework::nbmotaw(options) instead.
  core::Framework framework(options,
                            lattice::EpiHamiltonian(
                                2, {{+1.0, -1.0, -1.0, +1.0}}));

  std::printf("system: %d atoms, energy range [%.2f, %.2f], %d bins\n",
              framework.lattice_ref().num_sites(),
              framework.grid().e_min(), framework.grid().e_max(),
              framework.grid().n_bins());

  // 3. Run the pipeline: pretrain the VAE proposal, sample the DOS with
  //    replica-exchange Wang-Landau, normalise against the exact state
  //    count.
  const core::DeepThermoResult result = framework.run();
  std::printf("converged: %s   ln g span: %.1f   VAE acceptance: %.3f\n",
              result.rewl.converged ? "yes" : "no", result.dos.log_range(),
              result.vae_stats.acceptance_rate());

  // 4. Thermodynamics at any temperature by reweighting the DOS.
  const auto scan = core::Framework::scan(result, 0.5, 8.0, 24);
  std::printf("\n%8s %12s %12s\n", "T", "U/atom", "Cv/atom");
  const double n = framework.lattice_ref().num_sites();
  for (const auto& pt : scan)
    std::printf("%8.3f %12.4f %12.4f\n", pt.temperature,
                pt.internal_energy / n, pt.specific_heat / n);

  std::printf("\norder-disorder transition (Cv peak): T = %.3f\n",
              mc::transition_temperature(scan));
  return 0;
}

int main() { return dt::run_main("quickstart", run); }
