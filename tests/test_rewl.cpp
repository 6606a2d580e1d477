#include "par/rewl.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/serialize.hpp"
#include "mc/proposal.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "validate/oracle.hpp"

namespace dt::par {
namespace {

using lattice::Lattice;
using lattice::LatticeType;

// Exact reference from the shared enumeration oracle (validate/).
struct ExactIsing {
  Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  std::vector<validate::ExactLevel> levels;
  double e_min = 0, e_max = 0, log_total = 0;

  ExactIsing() {
    const auto oracle = validate::ExactOracle::get(
        ham, lat, validate::equiatomic_composition(lat.num_sites(), 2));
    levels = oracle->levels();
    e_min = oracle->e_min();
    e_max = oracle->e_max();
    log_total = oracle->log_total_states();
  }
};

const ExactIsing& exact() {
  static const ExactIsing instance;
  return instance;
}

RewlOptions fast_options() {
  RewlOptions opts;
  opts.n_windows = 2;
  opts.walkers_per_window = 1;
  opts.wl.log_f_final = 1e-4;
  opts.exchange_interval = 25;
  opts.max_sweeps = 100000;
  opts.seed = 3;
  return opts;
}

ProposalFactory local_factory(const lattice::EpiHamiltonian& ham) {
  return [&ham](int) { return std::make_shared<mc::LocalSwapProposal>(ham); };
}

TEST(Rewl, RecoversExactDos) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 130);
  const auto result = run_rewl(ex.ham, ex.lat, 2, grid, fast_options(),
                               local_factory(ex.ham));
  ASSERT_TRUE(result.converged);

  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    const std::int32_t bin = grid.bin(level.energy);
    ASSERT_TRUE(dos.visited(bin)) << "level " << level.energy;
    EXPECT_NEAR(dos.log_g(bin).value(), std::log(level.count), 0.3)
        << "level " << level.energy;
  }
}

TEST(Rewl, MultipleWalkersPerWindow) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.walkers_per_window = 2;
  opts.wl.log_f_final = 1e-3;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_TRUE(result.converged);

  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.4);
  }
}

TEST(Rewl, ThreeWindowsConverge) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 130);
  auto opts = fast_options();
  opts.n_windows = 3;
  opts.wl.log_f_final = 1e-4;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.windows.size(), 3u);
  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels) {
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.5);
  }
}

TEST(Rewl, WindowReportsArePopulated) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-3;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_EQ(result.windows.size(), 2u);
  for (const auto& w : result.windows) {
    EXPECT_GT(w.sweeps, 0);
    EXPECT_GT(w.f_stages, 0);
    EXPECT_GT(w.acceptance, 0.0);
    EXPECT_TRUE(w.converged);
  }
  // Lower window exchanges with its upper neighbour.
  EXPECT_GT(result.windows[0].exchange_acceptance, 0.0);
  EXPECT_GT(result.total_sweeps, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Rewl, WindowReportBytesCarryNoPadding) {
  // Equal reports built over memory filled with 0xAA and with 0x55 --
  // the padding between fields keeps the fill -- serialize to identical
  // bytes, which read back field for field as raw records.
  const auto serialize = [](unsigned char fill) {
    std::vector<RewlWindowReport> w(2);
    std::memset(static_cast<void*>(w.data()), fill,
                w.size() * sizeof(RewlWindowReport));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i].window = static_cast<int>(i);
      w[i].lo_bin = 3 + static_cast<std::int32_t>(i);
      w[i].hi_bin = 40;
      w[i].sweeps = 1000 + static_cast<std::int64_t>(i);
      w[i].f_stages = 7;
      w[i].acceptance = 0.25;
      w[i].flatness = 0.875;
      w[i].round_trips = 12;
      w[i].exchange_acceptance = 0.5;
      w[i].converged = i == 0;
    }
    std::ostringstream os;
    write_window_reports(os, w);
    return os.str();
  };
  const std::string a = serialize(0xAA);
  EXPECT_EQ(a, serialize(0x55));

  std::istringstream is(a);
  const auto back = read_vector<RewlWindowReport>(is);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].window, static_cast<int>(i));
    EXPECT_EQ(back[i].lo_bin, 3 + static_cast<std::int32_t>(i));
    EXPECT_EQ(back[i].hi_bin, 40);
    EXPECT_EQ(back[i].sweeps, 1000 + static_cast<std::int64_t>(i));
    EXPECT_EQ(back[i].f_stages, 7);
    EXPECT_EQ(back[i].acceptance, 0.25);
    EXPECT_EQ(back[i].flatness, 0.875);
    EXPECT_EQ(back[i].round_trips, 12u);
    EXPECT_EQ(back[i].exchange_acceptance, 0.5);
    EXPECT_EQ(back[i].converged, i == 0);
  }
}

TEST(Rewl, HookIsCalledEveryInterval) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-2;
  std::atomic<std::int64_t> hook_calls{0};
  const auto result = run_rewl(
      ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham),
      [&](Communicator&, mc::WangLandauSampler& walker, mc::Rng&) {
        ++hook_calls;
        EXPECT_GE(walker.stats().sweeps, opts.exchange_interval);
      });
  ASSERT_TRUE(result.converged);
  // Every rank calls the hook once per exchange round.
  EXPECT_GE(hook_calls.load(), 2);
  EXPECT_EQ(hook_calls.load() % opts.total_ranks(), 0);
}

TEST(Rewl, DeterministicForFixedSeed) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-2;
  auto run = [&] {
    const auto r = run_rewl(ex.ham, ex.lat, 2, grid, opts,
                            local_factory(ex.ham));
    std::vector<double> vals;
    for (std::int32_t b = 0; b < grid.n_bins(); ++b)
      if (r.dos.visited(b)) vals.push_back(r.dos.log_g(b).value());
    return vals;
  };
  EXPECT_EQ(run(), run());
}

TEST(Rewl, MatchesSingleWindowWangLandau) {
  // One window, one walker == plain WL driven through the parallel path.
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 120);
  auto opts = fast_options();
  opts.n_windows = 1;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  ASSERT_TRUE(result.converged);
  auto dos = result.dos;
  dos.normalize(units::LogWeight(ex.log_total));
  for (const auto& level : ex.levels)
    EXPECT_NEAR(dos.log_g(grid.bin(level.energy)).value(), std::log(level.count),
                0.3);
}

TEST(Rewl, RespectsMaxSweepsWhenUnconverged) {
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 100);
  auto opts = fast_options();
  opts.wl.log_f_final = 1e-12;  // unreachable in the budget
  opts.max_sweeps = 500;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  EXPECT_FALSE(result.converged);
  for (const auto& w : result.windows)
    EXPECT_LE(w.sweeps, 2 * (opts.max_sweeps + opts.exchange_interval));
}

// No telemetry sink and no HTTP server: the stall watchdog still runs
// every round once a budget is set. The budget is far below one round's
// wall time and the run never converges, so the final round's verdict
// flags the walkers.
TEST(Rewl, WatchdogFlagsStallsInADarkRun) {
  ASSERT_FALSE(obs::instrumentation_active());
  obs::HealthRegistry& health = obs::HealthRegistry::global();
  health.reset();
  const auto& ex = exact();
  const mc::EnergyGrid grid(ex.e_min - 0.5, ex.e_max + 0.5, 130);
  RewlOptions opts = fast_options();
  opts.wl.log_f_final = 1e-12;
  opts.max_sweeps = 500;
  opts.watchdog_stall_seconds = 1e-9;
  const auto result =
      run_rewl(ex.ham, ex.lat, 2, grid, opts, local_factory(ex.ham));
  EXPECT_FALSE(result.converged);
  EXPECT_GT(health.snapshot().stalled_walkers, 0);
  health.reset();
}

}  // namespace
}  // namespace dt::par
