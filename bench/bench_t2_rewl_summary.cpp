// Experiment T2: REWL run configuration and per-window statistics.
//
// The evaluation-setup table every REWL paper reports: window bin ranges,
// walkers, ln f stages completed, in-window acceptance, replica-exchange
// acceptance per window boundary and round trips.
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  opts.rewl.n_windows = cfg.get_int_as("windows", 3);
  opts.rewl.walkers_per_window = cfg.get_int_as("walkers", 2);
  cfg.require_all_read();
  bench::print_run_header("T2: REWL configuration summary", opts);

  auto fw = core::Framework::nbmotaw(opts);
  const auto result = fw.run();

  Table setup({"parameter", "value"});
  setup.add("energy range [eV]",
            Table::format_cell(result.grid.e_min()) + " .. " +
                Table::format_cell(result.grid.e_max()));
  setup.add("bins", result.grid.n_bins());
  setup.add("windows", opts.rewl.n_windows);
  setup.add("walkers per window", opts.rewl.walkers_per_window);
  setup.add("window overlap", opts.rewl.overlap);
  setup.add("exchange interval [sweeps]", opts.rewl.exchange_interval);
  setup.add("flatness threshold", opts.rewl.wl.flatness);
  setup.add("final ln f", opts.rewl.wl.log_f_final);
  setup.add("VAE share of moves", opts.global_fraction);
  setup.add("converged", result.rewl.converged ? "yes" : "no");
  setup.add("wall seconds", result.rewl.wall_seconds);
  bench::emit(setup, cfg, "Table T2a: run configuration", "setup");

  Table windows({"window", "bins", "sweeps", "f_stages", "acceptance",
                 "flatness", "exch_acc_up", "round_trips", "converged"});
  for (const auto& w : result.rewl.windows) {
    windows.add(w.window,
                Table::format_cell(static_cast<std::int64_t>(w.lo_bin)) +
                    ".." +
                    Table::format_cell(static_cast<std::int64_t>(w.hi_bin)),
                w.sweeps, w.f_stages, w.acceptance, w.flatness,
                w.exchange_acceptance,
                static_cast<std::int64_t>(w.round_trips),
                w.converged ? "yes" : "no");
  }
  bench::emit(windows, cfg, "Table T2b: per-window statistics", "windows");

  // Per-walker sampling health from the live registry: the flatness
  // trajectory tail, round-trip times and the VAE/local acceptance split
  // (the same signals GET /status serves during a run).
  const obs::HealthSnapshot health = obs::HealthRegistry::global().snapshot();
  Table walkers({"rank", "window", "flatness", "f_stage", "round_trips",
                 "rt_mean_s", "local_acc", "vae_acc", "trajectory_tail"});
  for (const auto& w : health.walkers) {
    std::string tail;
    const std::size_t n = w.trajectory.size();
    for (std::size_t i = n > 4 ? n - 4 : 0; i < n; ++i) {
      if (!tail.empty()) tail += " ";
      tail += Table::format_cell(w.trajectory[i].second);
    }
    walkers.add(w.rank, w.window, w.flatness, w.f_stage,
                static_cast<std::int64_t>(w.round_trips),
                w.round_trip_mean_s, w.local_acceptance, w.vae_acceptance,
                tail);
  }
  for (std::size_t i = 0; i < health.pairs.size(); ++i) {
    const auto& p = health.pairs[i];
    walkers.add("pair " + Table::format_cell(static_cast<std::int64_t>(i)),
                Table::format_cell(static_cast<std::int64_t>(i)) + "<->" +
                    Table::format_cell(static_cast<std::int64_t>(i + 1)),
                p.ewma < 0.0 ? 0.0 : p.ewma, "-",
                static_cast<std::int64_t>(p.accepted), "-", "-", "-",
                Table::format_cell(static_cast<std::int64_t>(p.attempted)) +
                    " attempts");
  }
  bench::emit(walkers, cfg, "Table T2c: sampling health", "health");
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_t2_rewl_summary", run, argc, argv);
}
