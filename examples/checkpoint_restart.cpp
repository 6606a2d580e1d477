// Long-running Wang-Landau with checkpoint/restart -- the production
// pattern for cluster jobs with wall-time limits.
//
//   ./examples/checkpoint_restart                 # run, checkpoint, resume
//   ./examples/checkpoint_restart --resume=ck.bin # resume an earlier file
//
// Demonstrates WangLandauSampler::save_state/load_state: the resumed run
// continues bit-exactly (counter-based RNG included), verified here by
// comparing against an uninterrupted reference run.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.hpp"
#include "common/run_main.hpp"
#include "core/deepthermo.hpp"

int run(int argc, char** argv) {
  using namespace dt;
  Config cfg;
  cfg.update_from_args(argc, argv);

  const auto lat = lattice::Lattice::create(lattice::LatticeType::kBCC, 3,
                                            3, 3, 2);
  const auto ham = lattice::epi_nbmotaw();
  mc::Rng range_rng(1, 0);
  auto probe = lattice::random_configuration(lat, 4, range_rng);
  const auto [e_lo, e_hi] =
      mc::estimate_energy_range(ham, probe, 40, 0.02, mc::Rng(1, 1));
  const mc::EnergyGrid grid(e_lo, e_hi, 100);

  mc::WangLandauOptions wl_opts;
  wl_opts.log_f_final = 1e-4;

  auto make_walker = [&](lattice::Configuration& config) {
    return mc::WangLandauSampler(ham, config, grid, wl_opts, mc::Rng(7, 2));
  };

  const std::string resume_path = cfg.get_string("resume", "");
  cfg.require_all_read();
  mc::LocalSwapProposal kernel(ham);

  if (!resume_path.empty()) {
    mc::Rng init(7, 0);
    auto config = lattice::random_configuration(lat, 4, init);
    auto walker = make_walker(config);
    std::ifstream in(resume_path, std::ios::binary);
    walker.load_state(in);
    std::printf("resumed from %s at sweep %lld (ln f = %g)\n",
                resume_path.c_str(),
                static_cast<long long>(walker.stats().sweeps),
                walker.log_f());
    const bool conv = walker.advance(kernel, 100000);
    std::printf("finished: converged=%d sweeps=%lld ln-g span=%.1f\n", conv,
                static_cast<long long>(walker.stats().sweeps),
                walker.dos().log_range());
    return 0;
  }

  // Phase 1: run part of the job and checkpoint, as if the allocation
  // expired.
  mc::Rng init(7, 0);
  auto config = lattice::random_configuration(lat, 4, init);
  auto walker = make_walker(config);
  walker.advance(kernel, 2000);
  std::stringstream checkpoint;
  walker.save_state(checkpoint);
  std::ofstream("checkpoint_demo.bin", std::ios::binary)
      << checkpoint.str();
  std::printf("checkpointed at sweep %lld (ln f = %g) -> "
              "checkpoint_demo.bin (%zu bytes)\n",
              static_cast<long long>(walker.stats().sweeps), walker.log_f(),
              checkpoint.str().size());

  // Phase 2: "new job" resumes from the file...
  mc::Rng init2(7, 0);
  auto config2 = lattice::random_configuration(lat, 4, init2);
  auto resumed = make_walker(config2);
  {
    std::ifstream in("checkpoint_demo.bin", std::ios::binary);
    resumed.load_state(in);
  }
  resumed.advance(kernel, 3000);

  // ...and must match the uninterrupted reference exactly.
  walker.advance(kernel, 3000);
  const bool identical =
      walker.energy() == resumed.energy() &&
      walker.stats().accepted == resumed.stats().accepted &&
      walker.dos().log_range() == resumed.dos().log_range();
  std::printf("resumed run bit-exact vs uninterrupted reference: %s\n",
              identical ? "yes" : "NO (bug!)");
  std::printf("state: sweep %lld, ln f = %g, visited %d/%d bins\n",
              static_cast<long long>(resumed.stats().sweeps),
              resumed.log_f(), resumed.dos().num_visited(), grid.n_bins());
  return identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return dt::run_main("checkpoint_restart", run, argc, argv);
}
