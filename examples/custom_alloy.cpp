// Using the public API with a user-defined alloy model: a ternary FCC
// system with hand-written pair interactions, a custom REWL layout and
// direct use of the lower-level sampling building blocks.
//
//   ./examples/custom_alloy
//
// Demonstrates: EpiHamiltonian construction, Framework with a custom
// Hamiltonian, per-window REWL configuration, and post-processing both
// through the framework scan and by hand from the DOS.
#include <cmath>
#include <cstdio>

#include "common/math.hpp"
#include "common/run_main.hpp"
#include "core/deepthermo.hpp"

int run() {
  using namespace dt;

  // A ternary model: species A/B order, C is nearly neutral (dilute
  // spectator) -- the kind of system a user studies before committing to
  // a DFT-fitted cluster expansion. Row-major 3x3 per shell, symmetric.
  const std::vector<double> first_shell = {
      //   A      B      C
      +0.06, -0.09, +0.01,   // A
      -0.09, +0.06, -0.01,   // B
      +0.01, -0.01, +0.00};  // C
  lattice::EpiHamiltonian hamiltonian(3, {first_shell});

  core::DeepThermoOptions options;
  options.lattice.type = lattice::LatticeType::kFCC;
  options.lattice.nx = options.lattice.ny = options.lattice.nz = 2;
  options.lattice.n_shells = 1;
  options.n_species = 3;
  options.n_bins = 70;
  options.rewl.n_windows = 2;
  options.rewl.walkers_per_window = 2;  // 4 ranks total
  options.rewl.wl.flatness = 0.85;      // stricter flatness
  options.rewl.wl.log_f_final = 1e-4;   // demo accuracy
  options.global_fraction = 0.08;
  options.seed = 99;

  core::Framework framework(options, std::move(hamiltonian));
  std::printf("custom ternary FCC alloy: %d atoms, %d windows x %d walkers\n",
              framework.lattice_ref().num_sites(), options.rewl.n_windows,
              options.rewl.walkers_per_window);

  const auto result = framework.run();
  std::printf("converged: %s, exchange acceptance window0->1: %.2f\n",
              result.rewl.converged ? "yes" : "no",
              result.rewl.windows[0].exchange_acceptance);

  // Post-process through the framework...
  const auto scan = core::Framework::scan(result, 0.01, 0.6, 20);
  std::printf("Tc (Cv peak): %.4f\n", mc::transition_temperature(scan));

  // ...or by hand from the DOS: e.g. the probability that the system is
  // in the lowest 10%% of its energy range at a given temperature.
  const double t = 0.05;
  const auto& dos = result.dos;
  const auto& grid = result.grid;
  std::vector<double> low, all;
  const double e_cut = grid.e_min() + 0.1 * (grid.e_max() - grid.e_min());
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    if (!dos.visited(b)) continue;
    const double logw =
        (dos.log_g(b) - units::to_beta(units::Temperature(t)) *
                            units::Energy(grid.energy(b)))
            .value();
    all.push_back(logw);
    if (grid.energy(b) < e_cut) low.push_back(logw);
  }
  const double p_low =
      low.empty() ? 0.0 : std::exp(log_sum_exp(low) - log_sum_exp(all));
  std::printf("P(E in lowest decile) at T=%.2f: %.4f\n", t, p_low);
  return 0;
}

int main() { return dt::run_main("custom_alloy", run); }
