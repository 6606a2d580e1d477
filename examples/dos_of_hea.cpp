// Direct density-of-states evaluation of a high-entropy alloy -- the
// paper's "range of ~e^10,000" demonstration, sized to taste.
//
//   ./examples/dos_of_hea [--cells=N] [--bins=B] [--save=dos.txt]
//
// Runs DeepThermo on the quaternary BCC alloy, prints the ln g(E) curve
// and its span, and extrapolates the span to the paper's 8192-atom
// system. Optionally writes the DOS to a file reloadable with
// mc::DensityOfStates::load for offline analysis.
#include <cstdio>
#include <fstream>

#include "common/config.hpp"
#include "common/run_main.hpp"
#include "core/deepthermo.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  Config cfg;
  cfg.update_from_args(argc, argv);

  core::DeepThermoOptions options;
  const auto cells = cfg.get_int_as("cells", 3);
  options.lattice.nx = options.lattice.ny = options.lattice.nz = cells;
  options.n_bins = cfg.get_int_as<std::int32_t>("bins", 80);
  options.rewl.n_windows = cfg.get_int_as("windows", 2);
  options.rewl.max_sweeps = cfg.get_int("max_sweeps", 300000);
  options.rewl.wl.log_f_final = cfg.get_double("log_f_final", 1e-4);
  options.seed = cfg.get_int_as<std::uint64_t>("seed", 5);
  const std::string save_path = cfg.get_string("save", "");
  cfg.require_all_read();

  auto framework = core::Framework::nbmotaw(options);
  const double n_atoms = framework.lattice_ref().num_sites();
  std::printf("evaluating DOS of %g-atom quaternary alloy "
              "(configuration space: e^%.1f states)\n",
              n_atoms, framework.log_total_states());

  const auto result = framework.run();

  std::printf("\n%6s %12s %14s\n", "bin", "E [eV]", "ln g(E)");
  for (std::int32_t b = 0; b < result.grid.n_bins(); ++b) {
    if (!result.dos.visited(b)) continue;
    std::printf("%6d %12.4f %14.4f\n", b, result.grid.energy(b),
                result.dos.log_g(b).value());
  }

  const double span = result.dos.log_range();
  std::printf("\nln g span: %.1f  (per atom: %.3f)\n", span,
              span / n_atoms);
  std::printf("extrapolated to the paper's 8192-atom system: e^%.0f\n",
              span / n_atoms * 8192.0);
  std::printf("converged: %s\n", result.rewl.converged ? "yes" : "no");

  if (!save_path.empty()) {
    std::ofstream out(save_path);
    result.dos.save(out);
    std::printf("DOS written to %s\n", save_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("dos_of_hea", run, argc, argv);
}
