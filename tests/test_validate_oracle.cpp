#include "validate/oracle.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "mc/thermo.hpp"

namespace dt::validate {
namespace {

using lattice::Configuration;
using lattice::Lattice;
using lattice::LatticeType;

// Independent reference implementation: bitmask enumeration of the
// 16-site BCC Ising model at half filling. Deliberately NOT the oracle's
// multinomial iteration, so the two agree only if both are right.
std::map<long long, double> bitmask_levels(const Lattice& lat,
                                           const lattice::EpiHamiltonian& ham) {
  const int n = lat.num_sites();
  std::map<long long, double> levels;  // 4*E -> count
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (std::popcount(mask) != n / 2) continue;
    Configuration cfg(lat, 2);
    for (int i = 0; i < n; ++i)
      cfg.set(i, (mask >> static_cast<unsigned>(i)) & 1u ? 1 : 0);
    levels[std::llround(4 * ham.total_energy(cfg))] += 1.0;
  }
  return levels;
}

OracleOptions no_cache() {
  // Built in place: assigning the literal to a default-constructed
  // string trips a GCC 12 -Wrestrict false positive.
  return OracleOptions{.with_sro = false, .cache_dir = "-"};
}

TEST(ExactOracle, MatchesIndependentBitmaskEnumeration) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, no_cache());

  const auto ref = bitmask_levels(lat, ham);
  ASSERT_EQ(oracle.levels().size(), ref.size());
  EXPECT_DOUBLE_EQ(oracle.total_states(), 12870.0);  // C(16, 8)
  for (const auto& [k, count] : ref) {
    const double e = static_cast<double>(k) / 4.0;
    EXPECT_NEAR(oracle.log_g_at(units::Energy(e)).value(), std::log(count), 1e-12) << "E=" << e;
  }
  EXPECT_DOUBLE_EQ(oracle.e_min(),
                   static_cast<double>(ref.begin()->first) / 4.0);
  EXPECT_DOUBLE_EQ(oracle.e_max(),
                   static_cast<double>(ref.rbegin()->first) / 4.0);
  EXPECT_TRUE(
      std::isinf(oracle.log_g_at(units::Energy(oracle.e_min() - 1.0)).value()));
}

TEST(ExactOracle, MultiSpeciesStateCountIsMultinomial) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::random_epi(4, 1, 0.1, 3);
  const auto comp = equiatomic_composition(lat.num_sites(), 4);
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, no_cache());
  // 16! / (4!)^4 = 63063000.
  double total = 0.0;
  for (const auto& level : oracle.levels()) total += level.count;
  EXPECT_DOUBLE_EQ(total, oracle.total_states());
  EXPECT_DOUBLE_EQ(oracle.total_states(), 63063000.0);
  EXPECT_NEAR(oracle.log_total_states(), std::log(63063000.0), 1e-12);
}

TEST(ExactOracle, ThermoMatchesGridThermoOnFineGrid) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, no_cache());

  // A grid fine enough that every level has its own bin reproduces the
  // level-sum thermo exactly.
  const auto grid = oracle.make_grid(2000, 0.1);
  const auto dos = oracle.to_dos(grid);
  for (const double t : {0.5, 1.0, 2.0, 8.0}) {
    const auto exact = oracle.thermo(units::Temperature(t));
    const auto binned = mc::evaluate_thermo(dos, units::Temperature(t));
    EXPECT_NEAR(exact.internal_energy, binned.internal_energy, 5e-2) << t;
    EXPECT_NEAR(exact.specific_heat, binned.specific_heat, 5e-2) << t;
    EXPECT_NEAR(exact.free_energy, binned.free_energy, 5e-2) << t;
  }
  const auto scan = oracle.thermo_scan({0.5, 1.0});
  ASSERT_EQ(scan.size(), 2u);
  EXPECT_DOUBLE_EQ(scan[0].internal_energy,
                   oracle.thermo(units::Temperature(0.5)).internal_energy);
}

TEST(ExactOracle, LevelProbabilitiesAreBoltzmann) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, no_cache());

  const auto probs = oracle.level_probabilities(units::Temperature(2.0));
  ASSERT_EQ(probs.size(), oracle.levels().size());
  double sum = 0.0;
  for (const double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // As T -> 0 the ground level takes all the weight.
  const auto cold = oracle.level_probabilities(units::Temperature(0.05));
  EXPECT_GT(cold.front(), 0.999);
}

TEST(ExactOracle, MeanSroInterpolatesLevelAverages) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  OracleOptions opts = no_cache();
  opts.with_sro = true;
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, opts);
  ASSERT_TRUE(oracle.has_sro());

  // <SRO>(T) is a probability-weighted average of per-level averages: it
  // must lie within their range at any T, and in the T -> 0 limit it
  // converges to the ground level's own average.
  double lo = 1e300, hi = -1e300;
  for (const auto& level : oracle.levels()) {
    const double avg = level.sro_sum / level.count;
    lo = std::min(lo, avg);
    hi = std::max(hi, avg);
  }
  const double warm = oracle.mean_sro(units::Temperature(50.0));
  const double cold = oracle.mean_sro(units::Temperature(0.05));
  EXPECT_GE(warm, lo);
  EXPECT_LE(warm, hi);
  const auto& ground = oracle.levels().front();
  EXPECT_NEAR(cold, ground.sro_sum / ground.count, 1e-6);

  // Without with_sro the accessor must refuse.
  const auto plain = ExactOracle::enumerate(ham, lat, comp, no_cache());
  EXPECT_THROW((void)plain.mean_sro(units::Temperature(1.0)), dt::Error);
}

TEST(ExactOracle, ToDosConservesTotalStates) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, no_cache());
  const auto grid = oracle.make_grid(60);
  const auto dos = oracle.to_dos(grid);
  double total = 0.0;
  for (std::int32_t b = 0; b < grid.n_bins(); ++b)
    if (dos.visited(b)) total += std::exp(dos.log_g(b).value());
  EXPECT_NEAR(total, oracle.total_states(), 1e-6 * oracle.total_states());

  // A grid that misses part of the spectrum must throw, not truncate.
  const mc::EnergyGrid narrow(oracle.e_min() + 1.0, oracle.e_max() + 1.0, 30);
  EXPECT_THROW(oracle.to_dos(narrow), dt::Error);
}

TEST(ExactOracle, SaveLoadRoundTripsBitExactly) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const auto comp = equiatomic_composition(lat.num_sites(), 2);
  OracleOptions opts = no_cache();
  opts.with_sro = true;
  const auto oracle = ExactOracle::enumerate(ham, lat, comp, opts);

  std::stringstream ss;
  oracle.save(ss);
  const auto loaded = ExactOracle::load(ss);
  EXPECT_EQ(loaded.key(), oracle.key());
  EXPECT_EQ(loaded.has_sro(), oracle.has_sro());
  ASSERT_EQ(loaded.levels().size(), oracle.levels().size());
  for (std::size_t i = 0; i < oracle.levels().size(); ++i) {
    EXPECT_EQ(loaded.levels()[i].energy, oracle.levels()[i].energy);
    EXPECT_EQ(loaded.levels()[i].count, oracle.levels()[i].count);
    EXPECT_EQ(loaded.levels()[i].sro_sum, oracle.levels()[i].sro_sum);
  }
  EXPECT_EQ(loaded.e_min(), oracle.e_min());
  EXPECT_EQ(loaded.e_max(), oracle.e_max());
  EXPECT_DOUBLE_EQ(loaded.total_states(), oracle.total_states());
}

TEST(ExactOracle, LoadRejectsCorruptStreams) {
  std::stringstream bad_magic("not-an-oracle v9\n");
  EXPECT_THROW(ExactOracle::load(bad_magic), dt::Error);
  std::stringstream truncated(
      "dt-oracle v1\nkey 0000000000000001 quantum 1 with_sro 0\nlevels 3\n"
      "0 2 0\n");
  EXPECT_THROW(ExactOracle::load(truncated), dt::Error);
}

TEST(ExactOracle, GetMemoizesAndUsesDiskCache) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.25);  // unique J: fresh cache key
  const auto comp = equiatomic_composition(lat.num_sites(), 2);

  const auto dir = std::filesystem::temp_directory_path() /
                   "dt-oracle-test-cache";
  std::filesystem::remove_all(dir);

  // Pre-seed the golden file exactly as get() would write it, so the
  // first get() in this process exercises the disk-load branch.
  OracleOptions opts;
  opts.cache_dir = dir.string();
  const auto fresh = ExactOracle::enumerate(ham, lat, comp, opts);
  std::filesystem::create_directories(dir);
  char name[40];
  std::snprintf(name, sizeof name, "oracle-%016llx.txt",
                static_cast<unsigned long long>(fresh.key()));
  {
    std::ofstream out(dir / name);
    fresh.save(out);
  }

  const auto cached = ExactOracle::get(ham, lat, comp, opts);
  EXPECT_TRUE(cached->from_cache());
  EXPECT_EQ(cached->key(), fresh.key());
  ASSERT_EQ(cached->levels().size(), fresh.levels().size());
  for (std::size_t i = 0; i < fresh.levels().size(); ++i)
    EXPECT_EQ(cached->levels()[i].count, fresh.levels()[i].count);

  // Second get(): the in-process memo returns the same instance.
  const auto again = ExactOracle::get(ham, lat, comp, opts);
  EXPECT_EQ(again.get(), cached.get());

  // A corrupt golden file is regenerated, not trusted.
  const auto ham2 = lattice::epi_ising(1.5);
  const auto fresh2 = ExactOracle::enumerate(ham2, lat, comp, opts);
  std::snprintf(name, sizeof name, "oracle-%016llx.txt",
                static_cast<unsigned long long>(fresh2.key()));
  {
    std::ofstream out(dir / name);
    out << "garbage\n";
  }
  const auto regen = ExactOracle::get(ham2, lat, comp, opts);
  EXPECT_FALSE(regen->from_cache());
  EXPECT_DOUBLE_EQ(regen->total_states(), 12870.0);

  std::filesystem::remove_all(dir);
}

TEST(ExactOracle, RejectsBadInputs) {
  const auto lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const auto ham = lattice::epi_ising(1.0);
  const std::vector<std::int32_t> short_comp = {16};
  EXPECT_THROW(ExactOracle::enumerate(ham, lat, short_comp, no_cache()),
               dt::Error);
  const std::vector<std::int32_t> wrong_sum = {7, 8};
  EXPECT_THROW(ExactOracle::enumerate(ham, lat, wrong_sum, no_cache()),
               dt::Error);
  // A 128-site lattice is far beyond enumeration: refuse up front.
  const auto big = Lattice::create(LatticeType::kBCC, 4, 4, 4, 1);
  const auto big_comp = equiatomic_composition(big.num_sites(), 2);
  EXPECT_THROW(ExactOracle::enumerate(ham, big, big_comp, no_cache()),
               dt::Error);
}

TEST(EquiatomicComposition, SplitsEvenlyWithRemainderFirst) {
  EXPECT_EQ(equiatomic_composition(16, 2),
            (std::vector<std::int32_t>{8, 8}));
  EXPECT_EQ(equiatomic_composition(15, 2),
            (std::vector<std::int32_t>{8, 7}));
  EXPECT_EQ(equiatomic_composition(16, 3),
            (std::vector<std::int32_t>{6, 5, 5}));
}

}  // namespace
}  // namespace dt::validate
