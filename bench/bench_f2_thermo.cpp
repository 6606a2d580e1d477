// Experiment F2: thermodynamics of the HEA from its density of states.
//
// Reproduces the paper's phase-transition evaluation: U(T), F(T), S(T)
// and Cv(T) by canonical reweighting of the REWL DOS, with the
// order-disorder transition located at the specific-heat peak. The
// high-temperature entropy must approach the ideal-mixing limit ln(4)
// per atom -- printed as a built-in sanity row.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/math.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  const double t_lo = cfg.get_double("t_lo", 0.005);
  const double t_hi = cfg.get_double("t_hi", 0.40);
  const auto n_t = cfg.get_int_as<std::size_t>("t_points", 48);
  cfg.require_all_read();
  bench::print_run_header("F2: thermodynamics U/F/S/Cv vs T", opts);

  auto fw = core::Framework::nbmotaw(opts);
  const auto result = fw.run();
  const double n_atoms = fw.lattice_ref().num_sites();

  const auto scan = core::Framework::scan(result, t_lo, t_hi, n_t);

  Table table({"T_eV", "U_per_atom", "F_per_atom", "S_per_atom",
               "Cv_per_atom"});
  for (const auto& pt : scan) {
    table.add(pt.temperature, pt.internal_energy / n_atoms,
              pt.free_energy / n_atoms, pt.entropy / n_atoms,
              pt.specific_heat / n_atoms);
  }
  bench::emit(table, cfg, "Figure F2: thermodynamic scan", "scan");

  const double tc = mc::transition_temperature(scan);
  Table summary({"quantity", "value"});
  summary.add("converged", result.rewl.converged ? "yes" : "no");
  summary.add("Tc (Cv peak) [eV]", tc);
  summary.add("Tc [K] (1 eV = 11605 K)", tc * 11604.5);
  summary.add("S(T_hi)/atom", scan.back().entropy / n_atoms);
  summary.add("ideal mixing ln(4)", std::log(4.0));
  summary.add("U(T_lo)/atom (ordered)", scan.front().internal_energy / n_atoms);
  summary.add("U(T_hi)/atom (disordered)",
              scan.back().internal_energy / n_atoms);
  bench::emit(summary, cfg, "Figure F2 summary", "summary");
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f2_thermo", run, argc, argv);
}
