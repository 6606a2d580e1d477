// End-to-end integration tests of the DeepThermo pipeline on small
// systems. These are the slowest tests in the suite (seconds each); they
// exercise pretraining, the mixed kernel inside REWL, DOS normalisation
// and thermodynamic post-processing together.
#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/error.hpp"
#include "common/math.hpp"

namespace dt::core {
namespace {

DeepThermoOptions tiny_options() {
  DeepThermoOptions opts;
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 2;  // 16 atoms
  opts.lattice.n_shells = 2;
  opts.n_bins = 60;
  opts.pretrain.n_temperatures = 3;
  opts.pretrain.equilibration_sweeps = 10;
  opts.pretrain.samples_per_temperature = 16;
  opts.vae.hidden = 24;
  opts.vae.latent = 4;
  opts.vae.epochs = 5;
  opts.rewl.n_windows = 2;
  opts.rewl.walkers_per_window = 1;
  opts.rewl.wl.log_f_final = 1e-3;
  opts.rewl.exchange_interval = 25;
  opts.rewl.max_sweeps = 250000;
  opts.global_fraction = 0.05;
  opts.seed = 21;
  return opts;
}

TEST(Framework, ConstructionBuildsConsistentGeometry) {
  const auto fw = Framework::nbmotaw(tiny_options());
  EXPECT_EQ(fw.lattice_ref().num_sites(), 16);
  EXPECT_EQ(fw.hamiltonian().n_species(), 4);
  EXPECT_LT(fw.grid().e_min(), fw.grid().e_max());
  EXPECT_EQ(fw.grid().n_bins(), 60);
}

TEST(Framework, LogTotalStatesIsExactMultinomial) {
  const auto fw = Framework::nbmotaw(tiny_options());
  // 16 sites, 4 species x 4: 16!/(4!)^4 = 63063000.
  EXPECT_NEAR(fw.log_total_states(), std::log(63063000.0), 1e-9);
}

TEST(Framework, PretrainProducesUsableVae) {
  auto fw = Framework::nbmotaw(tiny_options());
  const auto report = fw.pretrain();
  ASSERT_FALSE(report.epoch_loss.empty());
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  ASSERT_NE(fw.vae(), nullptr);
  EXPECT_EQ(fw.vae()->options().n_sites, 16);
}

TEST(Framework, FullPipelineProducesNormalizedDos) {
  auto fw = Framework::nbmotaw(tiny_options());
  const auto result = fw.run();

  EXPECT_TRUE(result.rewl.converged);
  EXPECT_GT(result.dos.num_visited(), 5);
  // Normalisation anchor: LSE over visited bins == ln(total states).
  std::vector<double> vals;
  for (std::int32_t b = 0; b < result.grid.n_bins(); ++b)
    if (result.dos.visited(b)) vals.push_back(result.dos.log_g(b).value());
  EXPECT_NEAR(log_sum_exp(vals), fw.log_total_states(), 1e-9);
  // Pretraining happened, VAE kernel actually ran.
  ASSERT_TRUE(result.pretrain_report.has_value());
  EXPECT_GT(result.vae_stats.proposed, 0u);
  EXPECT_GT(result.local_stats.proposed, 0u);
}

TEST(Framework, ThermoScanIsPhysical) {
  auto fw = Framework::nbmotaw(tiny_options());
  const auto result = fw.run();
  const auto scan = Framework::scan(result, 0.01, 1.0, 30);
  ASSERT_EQ(scan.size(), 30u);
  for (const auto& pt : scan) {
    EXPECT_TRUE(std::isfinite(pt.internal_energy));
    EXPECT_GE(pt.specific_heat, 0.0);
    EXPECT_NEAR(pt.free_energy,
                pt.internal_energy - pt.temperature * pt.entropy, 1e-6);
  }
  // Entropy per site approaches ln(4) at high T (finite-size: within 20%).
  const double s_per_site =
      scan.back().entropy / fw.lattice_ref().num_sites();
  EXPECT_GT(s_per_site, 0.75 * std::log(4.0));
  EXPECT_LT(s_per_site, 1.05 * std::log(4.0));
}

TEST(Framework, BaselineMatchesDeepThermoDos) {
  // use_vae=false (paper baseline) and the full pipeline must agree on
  // the DOS of the same system within stochastic tolerance.
  auto opts = tiny_options();
  auto fw_deep = Framework::nbmotaw(opts);
  const auto deep = fw_deep.run();

  opts.use_vae = false;
  auto fw_base = Framework::nbmotaw(opts);
  const auto base = fw_base.run();

  ASSERT_TRUE(deep.rewl.converged);
  ASSERT_TRUE(base.rewl.converged);
  EXPECT_EQ(deep.grid, base.grid);

  int compared = 0;
  for (std::int32_t b = 0; b < deep.grid.n_bins(); ++b) {
    if (!deep.dos.visited(b) || !base.dos.visited(b)) continue;
    // Skip extreme tail bins (largest relative WL error).
    if (deep.dos.log_g(b).value() < 2.0) continue;
    EXPECT_NEAR(deep.dos.log_g(b).value(), base.dos.log_g(b).value(), 2.0) << "bin " << b;
    ++compared;
  }
  EXPECT_GT(compared, 5);
}

TEST(Framework, BaselineRunHasNoVaeActivity) {
  auto opts = tiny_options();
  opts.use_vae = false;
  auto fw = Framework::nbmotaw(opts);
  const auto result = fw.run();
  EXPECT_FALSE(result.pretrain_report.has_value());
  EXPECT_EQ(result.vae_stats.proposed, 0u);
}

TEST(Framework, MidRunRetrainingKeepsRunning) {
  auto opts = tiny_options();
  opts.retrain_every_rounds = 5;
  opts.retrain_epochs = 1;
  opts.rewl.wl.log_f_final = 1e-2;  // short run
  auto fw = Framework::nbmotaw(opts);
  const auto result = fw.run();
  EXPECT_TRUE(result.rewl.converged);
  EXPECT_GT(result.vae_stats.proposed, 0u);
}

TEST(Framework, ProductionPhaseRefinesDos) {
  auto opts = tiny_options();
  opts.production_sweeps = 20000;
  auto fw = Framework::nbmotaw(opts);
  const auto result = fw.run();
  ASSERT_TRUE(result.rewl.converged);
  // A converged REWL DOS yields a reasonably flat production histogram.
  EXPECT_GT(result.production_flatness, 0.3);
  EXPECT_GT(result.production_seconds, 0.0);
  // The refined DOS stays normalised and spans the same support.
  std::vector<double> vals;
  for (std::int32_t b = 0; b < result.grid.n_bins(); ++b)
    if (result.dos.visited(b)) vals.push_back(result.dos.log_g(b).value());
  EXPECT_NEAR(log_sum_exp(vals), fw.log_total_states(), 1e-9);
}

TEST(Framework, CustomHamiltonianSupported) {
  auto opts = tiny_options();
  opts.n_species = 2;
  opts.lattice.n_shells = 1;
  Framework fw(opts, lattice::epi_ising(1.0));
  const auto result = fw.run();
  EXPECT_TRUE(result.rewl.converged);
  // Ising on 16 BCC sites: ln(C(16,8)) total states.
  EXPECT_NEAR(fw.log_total_states(), std::log(12870.0), 1e-9);
}

// A bad REWL layout fails in the constructor, before the range quench
// and pretraining, with a message naming the option.
TEST(Framework, BadRewlLayoutThrowsFromTheConstructor) {
  const auto expect_rejected = [](const char* option,
                                  void (*set)(DeepThermoOptions&)) {
    DeepThermoOptions opts = tiny_options();
    set(opts);
    try {
      (void)Framework::nbmotaw(opts);
      ADD_FAILURE() << option << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  };
  using O = DeepThermoOptions;
  expect_rejected("overlap", [](O& o) { o.rewl.overlap = 1.0; });
  expect_rejected("overlap", [](O& o) { o.rewl.overlap = -0.1; });
  expect_rejected("n_windows", [](O& o) { o.rewl.n_windows = 0; });
  expect_rejected("n_bins", [](O& o) { o.n_bins = 4; });  // windows < 4 bins
  expect_rejected("n_bins", [](O& o) { o.n_bins = 0; });
  expect_rejected("global_fraction", [](O& o) { o.global_fraction = 1.5; });
  expect_rejected("global_fraction", [](O& o) { o.global_fraction = -0.1; });
  expect_rejected("walkers_per_window",
                  [](O& o) { o.rewl.walkers_per_window = 0; });
  expect_rejected("exchange_interval",
                  [](O& o) { o.rewl.exchange_interval = 0; });
  expect_rejected("log_f_final", [](O& o) { o.rewl.wl.log_f_final = 2.0; });
  expect_rejected("log_f_final", [](O& o) { o.rewl.wl.log_f_final = 0.0; });
  // nbmotaw() builds only the quaternary BCC system.
  expect_rejected("n_species", [](O& o) { o.n_species = 3; });
  expect_rejected("lattice",
                  [](O& o) { o.lattice.type = lattice::LatticeType::kFCC; });
}

TEST(Framework, MismatchedSpeciesCountThrows) {
  auto opts = tiny_options();
  opts.n_species = 3;  // Hamiltonian below has 2
  EXPECT_THROW((void)Framework(opts, lattice::epi_ising(1.0)), dt::Error);
}

constexpr int kKeepAllCheckpoints = 1000;

/// Every checkpoint generation a run left behind, component by component
/// and oldest first. rewl.result is left out because it records the REWL
/// wall time; its physics (ln g, sweeps, walker energies) is compared
/// through the run result instead.
std::vector<std::map<std::string, std::string>> checkpoint_components(
    const std::string& dir) {
  const ckpt::CheckpointStore store(dir, kKeepAllCheckpoints);
  std::vector<std::map<std::string, std::string>> gens;
  for (const std::uint64_t g : store.generations()) {
    const auto ck = store.load_generation(g);
    EXPECT_TRUE(ck.has_value()) << "generation " << g;
    if (!ck.has_value()) continue;
    auto& components = gens.emplace_back();
    for (const auto& name : ck->names())
      if (name != "rewl.result") components[name] = ck->blob(name);
  }
  return gens;
}

// The opt-in decode plane must not change the run: a 54-atom mixed-kernel
// run that retrains the VAE every round (so the plane's serving replica
// is refreshed under barriers after every ddp_fit) and checkpoints along
// the way is bit-identical with the plane on and off.
TEST(Framework, DecodePlaneOnOffRunsAreBitIdentical) {
  auto opts = tiny_options();
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 3;  // 54 atoms
  opts.global_fraction = 0.2;
  opts.vae_decode_batch = 4;
  opts.retrain_every_rounds = 1;
  opts.rewl.wl.log_f_final = 1e-2;
  opts.rewl.exchange_interval = 50;
  opts.rewl.progress_interval_seconds = 1e9;
  opts.checkpoint_interval_rounds = 5;
  opts.checkpoint_min_interval_seconds = 0.0;  // saves at fixed rounds
  opts.checkpoint_keep = kKeepAllCheckpoints;

  struct Run {
    DeepThermoResult result;
    std::vector<std::map<std::string, std::string>> checkpoints;
  };
  const auto run = [&](bool plane) {
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     (plane ? "fw_plane_on" : "fw_plane_off");
    std::filesystem::remove_all(dir);
    auto o = opts;
    o.decode_plane = plane;
    o.checkpoint_dir = dir.string();
    auto fw = Framework::nbmotaw(o);
    Run r{fw.run(), checkpoint_components(dir.string())};
    std::filesystem::remove_all(dir);
    return r;
  };
  const Run off = run(false);
  const Run on = run(true);

  ASSERT_TRUE(off.result.rewl.converged);
  EXPECT_GT(off.result.vae_stats.proposed, 0u);
  EXPECT_EQ(on.result.rewl.total_sweeps, off.result.rewl.total_sweeps);
  EXPECT_EQ(on.result.rewl.walker_energies, off.result.rewl.walker_energies);
  const auto& dos_on = on.result.rewl.dos;
  const auto& dos_off = off.result.rewl.dos;
  ASSERT_EQ(dos_on.grid(), dos_off.grid());
  for (std::int32_t b = 0; b < dos_off.grid().n_bins(); ++b) {
    ASSERT_EQ(dos_on.visited(b), dos_off.visited(b)) << "bin " << b;
    if (dos_off.visited(b)) {
      EXPECT_EQ(dos_on.log_g(b).value(), dos_off.log_g(b).value())
          << "bin " << b;
    }
  }
  EXPECT_TRUE(on.result.final_vae_weights == off.result.final_vae_weights);
  ASSERT_GT(off.checkpoints.size(), 1u);
  ASSERT_EQ(on.checkpoints.size(), off.checkpoints.size());
  for (std::size_t g = 0; g < off.checkpoints.size(); ++g)
    EXPECT_TRUE(on.checkpoints[g] == off.checkpoints[g])
        << "checkpoint generation " << g + 1 << " differs";
}

}  // namespace
}  // namespace dt::core
