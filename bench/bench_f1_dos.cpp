// Experiment F1: the density of states of the quaternary BCC HEA.
//
// Reproduces the paper's headline figure: ln g(E) over the full reachable
// energy range, "a density of states expanding over a range of ~e^10,000"
// (abstract). The absolute span grows linearly with atom count; the bench
// measures the span on the configured system and reports the
// extrapolation to the paper's 16^3x2 = 8192-atom system alongside the
// exact upper bound ln(multinomial).
//
// Default: 3^3x2 = 54 atoms (about a minute). Paper scale: --cells=16
// --bins=1000 --max_sweeps=10000000 (hours).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  cfg.require_all_read();
  bench::print_run_header("F1: density of states ln g(E)", opts);

  auto fw = core::Framework::nbmotaw(opts);
  Stopwatch clock;
  const auto result = fw.run();

  Table curve({"bin", "energy_eV", "ln_g", "ln_g_per_atom"});
  const double n_atoms = fw.lattice_ref().num_sites();
  const std::int32_t stride =
      std::max<std::int32_t>(1, result.grid.n_bins() / 40);
  for (std::int32_t b = 0; b < result.grid.n_bins(); ++b) {
    if (!result.dos.visited(b)) continue;
    if (b % stride != 0) continue;
    curve.add(b, result.grid.energy(b), result.dos.log_g(b).value(),
              result.dos.log_g(b).value() / n_atoms);
  }
  bench::emit(curve, cfg, "Figure F1: ln g(E) (subsampled rows)", "curve");

  const double span = result.dos.log_range();
  const double span_per_atom = span / n_atoms;
  const double paper_atoms = 8192.0;

  Table summary({"quantity", "value"});
  summary.add("atoms", static_cast<std::int64_t>(n_atoms));
  summary.add("visited bins", result.dos.num_visited());
  summary.add("converged", result.rewl.converged ? "yes" : "no");
  summary.add("ln g span (measured)", span);
  summary.add("ln g span per atom", span_per_atom);
  summary.add("exact ln(total states)", fw.log_total_states());
  summary.add("span extrapolated to 8192 atoms", span_per_atom * paper_atoms);
  summary.add("paper claim", "range ~ e^10,000 at 8192 atoms");
  summary.add("wall seconds", clock.seconds());
  bench::emit(summary, cfg, "Figure F1 summary", "summary");
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f1_dos", run, argc, argv);
}
