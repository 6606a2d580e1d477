// Experiment F4: proposal-kernel quality.
//
// The core claim of DeepThermo is that DL proposals "globally update the
// system configurations": fewer, bigger steps and faster traversal of
// the energy range. This bench runs Wang-Landau with a fixed sweep
// budget under four kernels -- local swap, block swap, pure VAE and the
// DeepThermo mixture -- and reports acceptance, energy-range round trips
// (tunnelling), bins discovered and ln f stages completed. The VAE is
// pretrained once and shared.
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "core/decode_plane.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  const Config cfg = bench::parse_args(argc, argv);
  auto opts = bench::bench_options(cfg);
  const auto budget = cfg.get_int("budget_sweeps", 4000);
  const auto throughput_props = cfg.get_int("throughput_props", 2000);
  const auto max_w = cfg.get_int_as("walkers", 1);
  const auto walker_props = cfg.get_int("walker_props", 600);
  cfg.require_all_read();
  bench::print_run_header("F4: proposal kernels compared", opts);

  auto fw = core::Framework::nbmotaw(opts);
  std::cout << "pretraining VAE..." << std::flush;
  Stopwatch pre_clock;
  fw.pretrain();
  std::cout << " done (" << pre_clock.seconds() << "s)\n\n";

  const auto& ham = fw.hamiltonian();
  const auto& lat = fw.lattice_ref();
  const mc::EnergyGrid grid = fw.grid();

  struct KernelCase {
    std::string name;
    std::unique_ptr<mc::Proposal> kernel;
  };
  std::vector<KernelCase> cases;
  cases.push_back({"local-swap",
                   std::make_unique<mc::LocalSwapProposal>(ham)});
  cases.push_back({"block-swap(2,8)",
                   std::make_unique<mc::BlockSwapProposal>(ham, 2, 8)});
  cases.push_back({"vae-global",
                   std::make_unique<core::VaeProposal>(ham, fw.vae())});
  cases.push_back(
      {"deepthermo(rho=0.05)",
       std::make_unique<core::DeepThermoProposal>(ham, fw.vae(), 0.05)});

  Table table({"kernel", "acceptance", "round_trips", "bins_visited",
               "f_stages", "sweeps_per_sec"});
  for (auto& kc : cases) {
    mc::Rng init_rng(opts.seed, stream_id(0xF4, 0));
    auto config = lattice::random_configuration(lat, 4, init_rng);
    mc::WangLandauOptions wl_opts = opts.rewl.wl;
    mc::WangLandauSampler wl(ham, config, grid, wl_opts,
                             mc::Rng(opts.seed, stream_id(0xF4, 1)));
    {
      mc::LocalSwapProposal seek(ham);
      wl.seek_window(seek, 500);
    }
    Stopwatch clock;
    wl.advance(*kc.kernel, budget);
    const double secs = clock.seconds();
    table.add(kc.name, wl.stats().acceptance_rate(),
              static_cast<std::int64_t>(wl.stats().round_trips),
              wl.dos().num_visited(), wl.stats().f_stages_completed,
              static_cast<double>(budget) / secs);
  }
  bench::emit(table, cfg, "Figure F4: kernel quality at fixed sweep budget");

  // ---- raw proposal throughput (the ISSUE 4 fast-path target) ----
  // Same machinery outside the WL accept/reject loop: proposals per
  // second for the local kernel and the VAE kernel at decode batch
  // K = 1 (pre-fast-path behaviour) and the default K.
  {
    Table tput({"kernel", "props_per_sec", "us_per_prop"});
    auto time_kernel = [&](const std::string& name, mc::Proposal& kernel) {
      mc::Rng rng(opts.seed, stream_id(0xF4, 2));
      auto config = lattice::random_configuration(lat, 4, rng);
      double e = ham.total_energy(config);
      Stopwatch clock;
      for (std::int64_t i = 0; i < throughput_props; ++i) {
        const auto r = kernel.propose(config, units::Energy(e), rng);
        e += r.delta_energy.value();
      }
      const double secs = clock.seconds();
      tput.add(name, static_cast<double>(throughput_props) / secs,
               1e6 * secs / static_cast<double>(throughput_props));
    };
    mc::LocalSwapProposal local(ham);
    time_kernel("local-swap", local);
    for (const std::int32_t k :
         {std::int32_t{1}, core::VaeProposal::kDefaultDecodeBatch}) {
      core::VaeProposal vk(ham, fw.vae());
      vk.set_decode_batch(k);
      time_kernel("vae-global(K=" + std::to_string(k) + ")", vk);
    }
    bench::emit(tput, cfg, "Table F4b: raw proposal throughput", "_tput");
  }

  // ---- multi-walker aggregate throughput: decode plane on vs off ----
  // `--walkers N` sets the sweep ceiling: W runs over {1, 4, 8} | {N}
  // capped at N. Each walker is a thread driving its own VaeProposal on
  // its own Philox stream; plane-on routes every refill through one
  // shared DecodePlane (fused cross-walker GEMMs), plane-off decodes
  // per walker. Proposal sequences are bitwise identical either way
  // (pinned in test_decode_plane); this table measures only wall clock.
  {
    std::vector<int> widths;
    for (const int w : {1, 4, 8, max_w})
      if (w <= max_w && (widths.empty() || widths.back() < w))
        widths.push_back(w);

    Table wt({"walkers", "props_per_sec_off", "props_per_sec_on", "speedup",
              "us_per_prop_on", "rows_per_gemm", "fill_fraction"});
    for (const int n_walkers : widths) {
      double pps[2] = {0.0, 0.0};  // [0] = plane off, [1] = plane on
      double rows_per_gemm = 0.0;
      double fill = 0.0;
      for (const bool plane_on : {false, true}) {
        std::shared_ptr<core::DecodePlane> plane;
        if (plane_on)
          plane = std::make_shared<core::DecodePlane>(fw.vae());

        std::atomic<int> ready{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> walkers;
        walkers.reserve(static_cast<std::size_t>(n_walkers));
        for (int w = 0; w < n_walkers; ++w) {
          walkers.emplace_back([&, w] {
            core::VaeProposal kernel(ham, fw.vae());
            if (plane != nullptr) kernel.attach_decode_plane(plane);
            mc::Rng rng(opts.seed,
                        stream_id(0xF5, static_cast<std::uint64_t>(w)));
            auto config = lattice::random_configuration(lat, 4, rng);
            double e = ham.total_energy(config);
            ready.fetch_add(1, std::memory_order_release);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (std::int64_t i = 0; i < walker_props; ++i) {
              const auto r = kernel.propose(config, units::Energy(e), rng);
              e += r.delta_energy.value();
            }
            volatile double guard = e;
            (void)guard;
          });
        }
        while (ready.load(std::memory_order_acquire) != n_walkers) {
        }
        Stopwatch clock;
        go.store(true, std::memory_order_release);
        for (auto& t : walkers) t.join();
        const double secs = clock.seconds();
        pps[plane_on ? 1 : 0] =
            static_cast<double>(n_walkers) * static_cast<double>(walker_props) /
            secs;
        if (plane_on) {
          const auto st = plane->stats();
          rows_per_gemm = st.batches == 0
                              ? 0.0
                              : static_cast<double>(st.rows) /
                                    static_cast<double>(st.batches);
          fill = st.last_fill_fraction;
        }
      }
      wt.add(static_cast<std::int64_t>(n_walkers), pps[0], pps[1],
             pps[0] == 0.0 ? 0.0 : pps[1] / pps[0],
             1e6 / (pps[1] / static_cast<double>(n_walkers)), rows_per_gemm,
             fill);
    }
    bench::emit(wt, cfg, "Table F4d: multi-walker decode plane on/off",
                "_walkers");
    std::cout << "note: the plane runs each fused GEMM on the leader\n"
                 "walker's thread while the others wait, and the GEMM\n"
                 "kernels are single-threaded, so the plane cannot pay;\n"
                 "it stays only until ROADMAP item 1 removes it.\n\n";
  }

  std::cout << "expected shape: the mixed DeepThermo kernel reaches more\n"
               "round trips / stages than local-swap alone; the pure VAE\n"
               "kernel has global reach but lower acceptance.\n";
  return 0;
}

int main(int argc, char** argv) {
  return dt::run_main("bench_f4_proposals", run, argc, argv);
}
