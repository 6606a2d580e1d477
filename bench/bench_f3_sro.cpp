// Experiment F3: Warren-Cowley short-range order across the transition.
//
// Canonical Metropolis sampling at a descending temperature ladder; at
// each temperature the first-shell Warren-Cowley parameters are averaged
// over decorrelated configurations. The expected shape (matching
// published NbMoTaW results): strong Mo-Ta ordering (alpha < 0) turning
// on below the transition, weaker Nb-W ordering, all alphas -> 0 in the
// high-temperature random solution.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/math.hpp"
#include "common/run_main.hpp"
#include "lattice/sro.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz =
      cfg.get_int_as("cells", 4);
  const double t_hi = cfg.get_double("t_hi", 0.40);
  const double t_lo = cfg.get_double("t_lo", 0.01);
  const auto n_t = cfg.get_int_as("t_points", 14);
  const auto equil = cfg.get_int("equil_sweeps", 300);
  const auto n_samples = cfg.get_int_as("samples", 40);
  const auto gap = cfg.get_int("sample_gap", 10);
  cfg.require_all_read();
  bench::print_run_header("F3: Warren-Cowley SRO vs temperature", opts);

  auto fw = core::Framework::nbmotaw(opts);
  const auto& ham = fw.hamiltonian();
  const auto& lat = fw.lattice_ref();

  mc::Rng init_rng(opts.seed, stream_id(0xF3, 0));
  auto config = lattice::random_configuration(lat, 4, init_rng);
  mc::MetropolisSampler sampler(ham, config, units::Temperature(t_hi),
                                mc::Rng(opts.seed, stream_id(0xF3, 1)));
  mc::LocalSwapProposal kernel(ham);

  Table table({"T_eV", "alpha_MoTa", "alpha_NbW", "alpha_MoW",
               "alpha_NbTa", "sro_magnitude", "acceptance"});
  for (int i = 0; i < n_t; ++i) {
    const double frac = n_t == 1 ? 0.0
                                 : static_cast<double>(i) /
                                       static_cast<double>(n_t - 1);
    const double t = t_hi * std::pow(t_lo / t_hi, frac);
    sampler.set_temperature(units::Temperature(t));
    sampler.reset_stats();
    sampler.run(kernel, equil);

    RunningStats mo_ta, nb_w, mo_w, nb_ta, mag;
    for (int k = 0; k < n_samples; ++k) {
      sampler.run(kernel, gap);
      // Species order: 0=Nb, 1=Mo, 2=Ta, 3=W (first shell).
      const auto m = lattice::warren_cowley(sampler.configuration(), 0);
      mo_ta.add(m.at(1, 2));
      nb_w.add(m.at(0, 3));
      mo_w.add(m.at(1, 3));
      nb_ta.add(m.at(0, 2));
      mag.add(lattice::sro_magnitude(sampler.configuration(), 0));
    }
    table.add(t, mo_ta.mean(), nb_w.mean(), mo_w.mean(), nb_ta.mean(),
              mag.mean(), sampler.stats().acceptance_rate());
  }
  bench::emit(table, cfg, "Figure F3: first-shell SRO vs T (annealing)");

  std::cout << "expected shape: alpha_MoTa strongly negative at low T "
               "(B2-type Mo-Ta order),\nalpha_NbW moderately negative, "
               "all -> 0 above the transition.\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f3_sro", run, argc, argv);
}
