// Phase-transition study of the quaternary NbMoTaW-model alloy -- the
// paper's motivating workload.
//
//   ./examples/hea_phase_transition [--cells=N] [--bins=B]
//
// Runs the full DeepThermo pipeline on the 4-component BCC alloy, then
// prints (a) the specific heat across the order-disorder transition with
// the estimated Tc, and (b) Warren-Cowley short-range order parameters
// above and below Tc from direct canonical sampling, showing which pairs
// drive the ordering (Mo-Ta B2-type order dominates, as in published
// NbMoTaW studies).
#include <cstdio>

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
  options.rewl.n_windows = 2;
  options.rewl.max_sweeps = cfg.get_int("max_sweeps", 300000);
  options.rewl.wl.log_f_final = cfg.get_double("log_f_final", 1e-4);
  options.seed = cfg.get_int_as<std::uint64_t>("seed", 11);
  cfg.require_all_read();

  auto framework = core::Framework::nbmotaw(options);
  const double n = framework.lattice_ref().num_sites();
  std::printf("NbMoTaW-model alloy: %d atoms (BCC %dx%dx%d)\n",
              framework.lattice_ref().num_sites(), cells, cells, cells);

  const auto result = framework.run();
  std::printf("REWL converged: %s  (%.1fs sampling, %.1fs training)\n\n",
              result.rewl.converged ? "yes" : "no", result.sample_seconds,
              result.pretrain_seconds);

  // ---- specific heat across the transition ----
  const auto scan = core::Framework::scan(result, 0.005, 0.35, 36);
  std::printf("%10s %12s %12s %12s\n", "T [eV]", "U/atom", "S/atom",
              "Cv/atom");
  for (const auto& pt : scan)
    std::printf("%10.4f %12.4f %12.4f %12.4f\n", pt.temperature,
                pt.internal_energy / n, pt.entropy / n,
                pt.specific_heat / n);
  const double tc = mc::transition_temperature(scan);
  std::printf("\norder-disorder transition: Tc = %.4f eV (%.0f K)\n\n", tc,
              tc * 11604.5);

  // ---- short-range order above/below Tc ----
  const char* species[] = {"Nb", "Mo", "Ta", "W"};
  for (const double t : {2.0 * tc, 0.5 * tc}) {
    mc::Rng rng(options.seed, stream_id(0xE6, t < tc ? 1u : 0u));
    auto config =
        lattice::random_configuration(framework.lattice_ref(), 4, rng);
    mc::MetropolisSampler sampler(framework.hamiltonian(), config,
                                  units::Temperature(t),
                                  mc::Rng(options.seed, stream_id(0xE7, 2)));
    mc::LocalSwapProposal kernel(framework.hamiltonian());
    sampler.run(kernel, 400);
    const auto alpha = lattice::warren_cowley(sampler.configuration(), 0);
    std::printf("first-shell Warren-Cowley alpha at T = %.4f (%s Tc):\n", t,
                t > tc ? "2x" : "0.5x");
    std::printf("%6s", "");
    for (const auto* s : species) std::printf("%8s", s);
    std::printf("\n");
    for (int a = 0; a < 4; ++a) {
      std::printf("%6s", species[a]);
      for (int b = 0; b < 4; ++b) std::printf("%8.3f", alpha.at(a, b));
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("reading: negative alpha = ordering preference; the Mo-Ta\n"
              "entry turns strongly negative below Tc (B2-type order).\n");
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("hea_phase_transition", run, argc, argv);
}
