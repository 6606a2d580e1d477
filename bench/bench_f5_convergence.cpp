// Experiment F5: time-to-converged-DOS, DeepThermo vs baseline REWL.
//
// The headline acceleration claim. Both pipelines run the identical
// system, grid and REWL geometry; the only difference is the proposal
// kernel (mixed local+VAE vs local-only). Reported per ln f stage:
// sweeps to reach it; plus end-to-end sweeps, wall time and the speedup
// factor. DeepThermo's wall time includes VAE pretraining.
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  cfg.require_all_read();
  bench::print_run_header("F5: convergence, DeepThermo vs baseline", opts);

  struct RunOutcome {
    std::string name;
    bool converged = false;
    std::int64_t sweeps = 0;
    double sample_seconds = 0;
    double pretrain_seconds = 0;
    double vae_acceptance = 0;
  };

  auto execute = [&](const std::string& name, bool use_vae,
                     bool conditional) {
    auto run_opts = opts;
    run_opts.use_vae = use_vae;
    run_opts.condition_on_energy = conditional;
    auto fw = core::Framework::nbmotaw(run_opts);
    const auto result = fw.run();
    RunOutcome out;
    out.name = name;
    out.converged = result.rewl.converged;
    out.sweeps = result.rewl.total_sweeps;
    out.sample_seconds = result.sample_seconds;
    out.pretrain_seconds = result.pretrain_seconds;
    out.vae_acceptance = result.vae_stats.acceptance_rate();
    return out;
  };

  const RunOutcome base = execute("baseline REWL", false, false);
  const RunOutcome deep = execute("DeepThermo (mixed kernel)", true, false);
  const RunOutcome cond =
      execute("DeepThermo (conditional VAE)", true, true);

  Table table({"pipeline", "converged", "total_sweeps", "sample_s",
               "pretrain_s", "total_s", "vae_acceptance"});
  for (const auto& r : {base, deep, cond}) {
    table.add(r.name, r.converged ? "yes" : "no", r.sweeps,
              r.sample_seconds, r.pretrain_seconds,
              r.sample_seconds + r.pretrain_seconds, r.vae_acceptance);
  }
  bench::emit(table, cfg, "Figure F5: convergence comparison", "runs");

  Table summary({"quantity", "value"});
  summary.add("sweep speedup (baseline/deepthermo)",
              static_cast<double>(base.sweeps) /
                  static_cast<double>(deep.sweeps));
  summary.add("wall speedup incl. training",
              (base.sample_seconds + base.pretrain_seconds) /
                  (deep.sample_seconds + deep.pretrain_seconds));
  bench::emit(summary, cfg, "Figure F5 summary", "summary");

  std::cout << "expected shape: DeepThermo converges in fewer sweeps; the\n"
               "wall-clock advantage grows with system size (VAE cost is\n"
               "amortised over the whole run).\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f5_convergence", run, argc, argv);
}
