// Experiment F6: scalability to 3,000 GPUs on V100- and MI250X-class
// machines.
//
// Two parts:
//  (a) MEASURED: in-process REWL wall time on 1..8 minicomm ranks on the
//      local CPU -- the ground truth that the analytic model's small-scale
//      behaviour is checked against.
//  (b) MODELLED: the device/cluster cost model (src/device) extends the
//      study to Summit (V100, EDR-IB) and Frontier-class (MI250X GCDs,
//      Slingshot) machines up to 3,000 GPUs, strong and weak scaling.
//      Absolute times are model outputs, not measurements; the *shape*
//      (who scales further, where communication bites) is the result.
#include <iostream>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "device/cluster.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  const bool run_measured = cfg.get_bool("measured", true);
  device::ScalingWorkload w;
  w.n_sites = cfg.get_int("model_sites", 8192);
  w.n_bins = cfg.get_int_as<std::int32_t>("model_bins", 8000);
  w.base_sweeps = cfg.get_double("model_base_sweeps", 5e6);
  cfg.require_all_read();
  bench::print_run_header("F6: scaling study", opts);

  // ---- (a) measured in-process scaling ----
  if (run_measured) {
    Table measured({"ranks", "windows", "walkers/window", "wall_s",
                    "total_sweeps", "converged"});
    for (const int ranks : {1, 2, 4}) {
      auto run_opts = opts;
      run_opts.use_vae = false;  // isolate sampling scaling
      run_opts.rewl.n_windows = ranks;
      run_opts.rewl.walkers_per_window = 1;
      auto fw = core::Framework::nbmotaw(run_opts);
      const auto result = fw.run();
      measured.add(ranks, run_opts.rewl.n_windows,
                   run_opts.rewl.walkers_per_window, result.sample_seconds,
                   result.rewl.total_sweeps,
                   result.rewl.converged ? "yes" : "no");
    }
    bench::emit(measured, cfg,
                "Figure F6a: measured in-process REWL scaling (CPU ranks)",
                "measured");
  }

  // ---- (b) modelled supercomputer scaling ----
  const std::vector<int> gpus = {1, 8, 64, 512, 1536, 3000};

  struct Machine {
    std::string name;
    device::ClusterSimulator sim;
  };
  const std::vector<Machine> machines = {
      {"Summit (V100)",
       device::ClusterSimulator(device::v100(), device::summit_network())},
      {"Frontier-class (MI250X)",
       device::ClusterSimulator(device::mi250x_gcd(),
                                device::frontier_network())}};

  for (const auto& m : machines) {
    for (const auto mode :
         {device::ScalingMode::kStrong, device::ScalingMode::kWeak}) {
      const bool strong = mode == device::ScalingMode::kStrong;
      const auto pts = m.sim.sweep_gpus(w, gpus, mode);
      Table table({"gpus", "windows", "walkers", "modelled_s", "speedup",
                   "parallel_eff", "comm_fraction"});
      for (const auto& pt : pts) {
        table.add(pt.n_gpus, pt.n_windows, pt.walkers_per_window,
                  pt.time_seconds, pt.speedup, pt.efficiency,
                  pt.comm_fraction);
      }
      const std::string tag =
          (strong ? std::string("strong_") : std::string("weak_")) +
          (m.name.find("V100") != std::string::npos ? "v100" : "mi250x");
      bench::emit(table, cfg,
                  "Figure F6b: modelled " +
                      std::string(strong ? "strong" : "weak") +
                      " scaling -- " + m.name,
                  tag);
    }
  }

  std::cout
      << "expected shape: strong-scaling speedup is superlinear while new\n"
         "energy windows can be added (window diffusion ~ width^2), then\n"
         "saturates as gradient/exchange collectives dominate; MI250X\n"
         "kernels are faster but Slingshot latency shows at 3,000 GPUs.\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f6_scaling", run, argc, argv);
}
