// Oracle-tier physics regression of the whole pipeline: Framework::run
// (range quench, VAE pretraining, REWL with the mixed local + VAE
// kernel, stitch, normalisation) on the 16-site NbMoTaW BCC 2x2x2
// system, whose density of states the exact-enumeration oracle knows.
// The normalised ln g of every grid bin must match ln of the exact
// degeneracies the bin holds, bin by bin and in RMS over the bins.
//
// The system (grid, pretraining data, VAE) is pinned to the seed and
// sizes of ttsbench's --mode=oracle16; the REWL seed derives from
// DT_TEST_SEED (see validate/stats.hpp) and failures print it for
// reproduction.
#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math.hpp"
#include "validate/oracle.hpp"
#include "validate/stats.hpp"

namespace dt::core {
namespace {

TEST(OracleFramework, MixedKernelRunMatchesExactLnGPerBin) {
  const std::uint64_t seed = validate::effective_test_seed(1);
  SCOPED_TRACE(validate::seed_trace(seed));

  DeepThermoOptions opts;
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 2;  // 16 sites
  opts.n_bins = 24;
  opts.vae.hidden = 64;
  opts.vae.latent = 8;
  opts.vae.epochs = 12;
  opts.pretrain.n_temperatures = 5;
  opts.pretrain.samples_per_temperature = 32;
  opts.global_fraction = 0.05;
  opts.rewl.n_windows = 2;
  opts.rewl.walkers_per_window = 1;
  opts.rewl.exchange_interval = 50;
  opts.rewl.wl.log_f_final = 1e-5;
  opts.rewl.max_sweeps = 1000000;
  opts.seed = 2023;
  opts.rewl.seed = seed;
  Framework fw = Framework::nbmotaw(opts);
  const DeepThermoResult result = fw.run();
  ASSERT_TRUE(result.rewl.converged);
  EXPECT_GT(result.vae_stats.proposed, 0u);

  const auto oracle = validate::ExactOracle::get(
      fw.hamiltonian(), fw.lattice_ref(),
      validate::equiatomic_composition(fw.lattice_ref().num_sites(), 4));
  // Exact degeneracies summed per grid bin. The thermal grid leaves out
  // the high-energy tail, so the exact curve is normalised to the same
  // total over the grid as the run's.
  const mc::EnergyGrid& grid = fw.grid();
  std::vector<double> counts(static_cast<std::size_t>(grid.n_bins()), 0.0);
  for (const auto& level : oracle->levels()) {
    const std::int32_t b = grid.bin(level.energy);
    if (b >= 0) counts[static_cast<std::size_t>(b)] += level.count;
  }
  std::vector<double> log_counts;
  for (const double c : counts)
    if (c > 0.0) log_counts.push_back(std::log(c));
  const double shift = fw.log_total_states() - log_sum_exp(log_counts);

  double worst = 0.0;
  std::int32_t worst_bin = -1;
  double sum_sq = 0.0;
  int n_bins = 0;
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    const double c = counts[static_cast<std::size_t>(b)];
    ASSERT_EQ(result.dos.visited(b), c > 0.0) << "bin " << b;
    if (c == 0.0) continue;
    const double err =
        std::abs(result.dos.log_g(b).value() - (std::log(c) + shift));
    sum_sq += err * err;
    ++n_bins;
    if (err > worst) {
      worst = err;
      worst_bin = b;
    }
  }
  // Over REWL seeds 1-60 and the oracle_sweep.sh seeds the worst bin
  // stays below 0.22 and the RMS below 0.085. A 0.5 step at the stitch
  // or a VAE kernel without its log q correction pushes the RMS past
  // 0.14 on every seed tried.
  EXPECT_LE(worst, 0.3) << "worst bin " << worst_bin;
  EXPECT_LE(std::sqrt(sum_sq / n_bins), 0.12);
}

}  // namespace
}  // namespace dt::core
