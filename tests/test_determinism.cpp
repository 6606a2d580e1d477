// Determinism regression: two Framework::run() calls with the same seed
// must produce bit-identical ln g(E), walker states and identical
// telemetry event counts. This is the invariant the checkpoint/restart
// subsystem builds on -- if a plain rerun is not reproducible, a resumed
// run cannot be either.
#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "mc/dos.hpp"
#include "obs/telemetry.hpp"

namespace dt::core {
namespace {

/// Counts events per type; walker threads emit concurrently.
class CountingSink final : public obs::Sink {
 public:
  using Counts = std::map<std::string, std::int64_t>;

  explicit CountingSink(std::shared_ptr<Counts> counts)
      : counts_(std::move(counts)) {}

  void write(const obs::Event& event) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(*counts_)[event.type];
  }
  void flush() override {}

 private:
  std::mutex mutex_;
  std::shared_ptr<Counts> counts_;
};

DeepThermoOptions tiny_options() {
  DeepThermoOptions opts;
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 2;  // 16 atoms
  opts.lattice.n_shells = 2;
  opts.n_bins = 50;
  opts.pretrain.n_temperatures = 2;
  opts.pretrain.equilibration_sweeps = 8;
  opts.pretrain.samples_per_temperature = 12;
  opts.vae.hidden = 16;
  opts.vae.latent = 3;
  opts.vae.epochs = 4;
  opts.rewl.n_windows = 2;
  opts.rewl.walkers_per_window = 1;
  opts.rewl.wl.log_f_final = 3e-2;
  opts.rewl.exchange_interval = 10;
  opts.rewl.max_sweeps = 250000;
  // The progress line fires on wall-clock time; push it out of reach
  // so neither its snapshots nor its events depend on machine speed.
  opts.rewl.progress_interval_seconds = 1e9;
  opts.retrain_every_rounds = 4;
  opts.seed = 29;
  return opts;
}

struct Observed {
  std::vector<std::pair<std::int32_t, double>> log_g;
  std::vector<double> walker_energies;
  std::vector<std::uint64_t> walker_rng_positions;
  std::vector<float> vae_loss_trace;
  std::string vae_weights;
  CountingSink::Counts event_counts;

  bool operator==(const Observed&) const = default;
};

Observed observe_run(const DeepThermoOptions& opts) {
  Observed obs;
  auto counts = std::make_shared<CountingSink::Counts>();
  obs::Telemetry::instance().add_sink(std::make_unique<CountingSink>(counts));
  auto fw = Framework::nbmotaw(opts);
  const auto result = fw.run();
  obs::Telemetry::instance().disable();
  EXPECT_TRUE(result.rewl.converged);
  for (std::int32_t b = 0; b < result.grid.n_bins(); ++b)
    if (result.dos.visited(b)) obs.log_g.emplace_back(b, result.dos.log_g(b).value());
  obs.walker_energies = result.rewl.walker_energies;
  obs.walker_rng_positions = result.rewl.walker_rng_positions;
  obs.vae_loss_trace = result.vae_loss_trace;
  obs.vae_weights = result.final_vae_weights;
  obs.event_counts = *counts;
  return obs;
}

TEST(Determinism, SameSeedReproducesBitExactly) {
  const auto first = observe_run(tiny_options());
  const auto second = observe_run(tiny_options());

  ASSERT_FALSE(first.log_g.empty());
  EXPECT_EQ(first.log_g, second.log_g);
  EXPECT_EQ(first.walker_energies, second.walker_energies);
  EXPECT_EQ(first.walker_rng_positions, second.walker_rng_positions);
  EXPECT_EQ(first.vae_loss_trace, second.vae_loss_trace);
  EXPECT_EQ(first.vae_weights, second.vae_weights);

  ASSERT_FALSE(first.event_counts.empty());
  EXPECT_GT(first.event_counts.count("rewl_walker"), 0u);
  EXPECT_EQ(first.event_counts, second.event_counts);
}

TEST(Determinism, DosSerializationStaysRawDoubleAfterTypedRefactor) {
  // The typed-units refactor (common/units.hpp) must leave every
  // serialization format byte-identical to the pre-refactor raw-double
  // layout, or old checkpoints stop resuming bit-exactly. The DOS text
  // format is the canonical cross-PR artefact: assert the typed
  // accessors neither tag nor perturb the stored numbers.
  // Values chosen to survive the text format's default 6-significant-
  // digit rendering exactly.
  const mc::EnergyGrid grid(-2.0, 2.0, 8);
  mc::DensityOfStates dos(grid);
  dos.set(0, units::LogDoS(0.125));
  dos.set(3, units::LogDoS(-107.25));
  dos.set(7, units::LogDoS(10000.5));  // paper-scale ln g magnitude

  std::ostringstream os;
  dos.save(os);
  const std::string text = os.str();
  // Raw numeric text only: a leaked typed ostream printer would emit a
  // domain tag like "lng(...)".
  EXPECT_EQ(text.find('('), std::string::npos) << text;

  std::istringstream is(text);
  const auto back = mc::DensityOfStates::load(is);
  for (std::int32_t b = 0; b < grid.n_bins(); ++b) {
    ASSERT_EQ(back.visited(b), dos.visited(b)) << "bin " << b;
    if (dos.visited(b)) {
      EXPECT_EQ(back.log_g(b).value(), dos.log_g(b).value()) << "bin " << b;
    }
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison above has teeth: a different seed
  // must change the sampled trajectory.
  auto opts = tiny_options();
  const auto first = observe_run(opts);
  opts.seed = 31;
  opts.rewl.seed = 31;
  const auto second = observe_run(opts);
  EXPECT_NE(first.walker_rng_positions, second.walker_rng_positions);
}

}  // namespace
}  // namespace dt::core
