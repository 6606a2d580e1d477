#include "validate/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/math.hpp"
#include "common/strfmt.hpp"
#include "lattice/sro.hpp"

#ifdef _WIN32
#else
#include <unistd.h>
#endif

namespace dt::validate {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
/// Energies are keyed by llround(E / kEnergyQuantum): coarse enough to
/// absorb summation-order noise (~1e-12), fine enough to separate
/// physical levels of any sane EPI set.
constexpr double kEnergyQuantum = 1.0 / (1 << 20);

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Cache identity: every input that changes the enumeration result.
std::uint64_t oracle_key(const lattice::EpiHamiltonian& ham,
                         const lattice::Lattice& lat,
                         std::span<const std::int32_t> composition,
                         const OracleOptions& options) {
  std::ostringstream os;
  os << "dt-oracle-v1|" << lattice::to_string(lat.type()) << '|' << lat.nx()
     << 'x' << lat.ny() << 'x' << lat.nz() << "|species=" << ham.n_species()
     << "|shells=" << ham.n_shells() << '|';
  for (int s = 0; s < ham.n_shells(); ++s)
    for (int a = 0; a < ham.n_species(); ++a)
      for (int b = 0; b < ham.n_species(); ++b)
        os << strformat("%.17g,", ham.coupling(
            s, static_cast<lattice::Species>(a),
            static_cast<lattice::Species>(b)));
  os << "|comp=";
  for (const auto c : composition) os << c << ',';
  os << strformat("|q=%.17g|sro=%d", kEnergyQuantum,
                  options.with_sro ? 1 : 0);
  return fnv1a(0xcbf29ce484222325ULL, os.str());
}

/// Resolve the golden-cache directory; empty result disables the cache.
std::filesystem::path resolve_cache_dir(const OracleOptions& options) {
  if (options.cache_dir == "-") return {};
  if (!options.cache_dir.empty()) return options.cache_dir;
  if (const char* env = std::getenv("DT_ORACLE_CACHE_DIR");
      env != nullptr && *env != '\0')
    return env;
  return "dt-oracle-cache";
}

}  // namespace

std::vector<std::int32_t> equiatomic_composition(std::int32_t n_sites,
                                                 int n_species) {
  DT_CHECK(n_sites > 0 && n_species >= 1);
  std::vector<std::int32_t> comp(static_cast<std::size_t>(n_species),
                                 n_sites / n_species);
  for (std::int32_t r = 0; r < n_sites % n_species; ++r)
    ++comp[static_cast<std::size_t>(r)];
  return comp;
}

ExactOracle ExactOracle::enumerate(const lattice::EpiHamiltonian& ham,
                                   const lattice::Lattice& lat,
                                   std::span<const std::int32_t> composition,
                                   const OracleOptions& options) {
  const auto n = static_cast<std::size_t>(lat.num_sites());
  DT_CHECK_MSG(composition.size() ==
                   static_cast<std::size_t>(ham.n_species()),
               "oracle: composition size != n_species");
  std::int64_t sum = 0;
  for (const auto c : composition) {
    DT_CHECK_MSG(c >= 0, "oracle: negative composition count");
    sum += c;
  }
  DT_CHECK_MSG(sum == lat.num_sites(),
               "oracle: composition sums to " << sum << ", lattice has "
                                              << lat.num_sites() << " sites");
  // Refuse hopeless enumerations up front (~1e9 states is already
  // minutes of CPU; beyond that the oracle is the wrong tool).
  std::vector<std::size_t> counts_sz;
  for (const auto c : composition)
    counts_sz.push_back(static_cast<std::size_t>(c));
  const double log_states = log_multinomial(counts_sz);
  DT_CHECK_MSG(log_states < std::log(2e9),
               "oracle: state space e^" << log_states
                                        << " is too large to enumerate");

  // Sorted multiset of species; next_permutation walks every distinct
  // arrangement exactly once (the composition-multinomial iteration).
  std::vector<lattice::Species> occ;
  occ.reserve(n);
  for (std::size_t s = 0; s < composition.size(); ++s)
    occ.insert(occ.end(), static_cast<std::size_t>(composition[s]),
               static_cast<lattice::Species>(s));

  lattice::Configuration cfg(lat, ham.n_species());
  struct Acc {
    double count = 0.0;
    double sro = 0.0;
  };
  std::map<long long, Acc> acc;
  double total = 0.0;
  do {
    cfg.assign(occ);
    const double e = ham.total_energy(cfg);
    auto& slot = acc[std::llround(e / kEnergyQuantum)];
    slot.count += 1.0;
    if (options.with_sro) slot.sro += lattice::sro_magnitude(cfg, 0);
    total += 1.0;
  } while (std::next_permutation(occ.begin(), occ.end()));

  ExactOracle out;
  out.quantum_ = kEnergyQuantum;
  out.with_sro_ = options.with_sro;
  out.key_ = oracle_key(ham, lat, composition, options);
  out.total_ = total;
  out.log_total_ = std::log(total);
  out.levels_.reserve(acc.size());
  for (const auto& [k, a] : acc)
    out.levels_.push_back(
        {static_cast<double>(k) * kEnergyQuantum, a.count, a.sro});
  out.e_min_ = out.levels_.front().energy;
  out.e_max_ = out.levels_.back().energy;
  return out;
}

std::shared_ptr<const ExactOracle> ExactOracle::get(
    const lattice::EpiHamiltonian& ham, const lattice::Lattice& lat,
    std::span<const std::int32_t> composition, const OracleOptions& options) {
  const std::uint64_t key = oracle_key(ham, lat, composition, options);

  static std::mutex mutex;
  static std::map<std::uint64_t, std::shared_ptr<const ExactOracle>> memo;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }

  const std::filesystem::path dir = resolve_cache_dir(options);
  std::filesystem::path file;
  if (!dir.empty()) {
    file = dir / strformat("oracle-%016llx.txt",
                           static_cast<unsigned long long>(key));
    if (std::ifstream in(file); in.good()) {
      try {
        auto loaded = load(in);
        if (loaded.key_ == key) {
          loaded.from_cache_ = true;
          auto shared = std::make_shared<const ExactOracle>(std::move(loaded));
          const std::lock_guard<std::mutex> lock(mutex);
          memo.emplace(key, shared);
          return shared;
        }
      } catch (const dt::Error& e) {
        // Corrupt / stale golden file: fall through and regenerate.
        DT_LOG_WARN << "oracle: regenerating corrupt golden cache "
                    << file.string() << ": " << e.what();
      }
    }
  }

  auto fresh =
      std::make_shared<const ExactOracle>(enumerate(ham, lat, composition,
                                                    options));
  if (!dir.empty()) {
    // Rename-atomic write; a unique temp name keeps parallel test
    // processes regenerating the same oracle from corrupting each other.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) {
#ifdef _WIN32
      const auto tmp = file.string() + ".tmp";
#else
      const auto tmp =
          file.string() + ".tmp" + std::to_string(::getpid());
#endif
      std::ofstream out(tmp);
      if (out.good()) {
        fresh->save(out);
        out.close();
        if (out.good())
          std::filesystem::rename(tmp, file, ec);
        if (ec) std::filesystem::remove(tmp, ec);
      }
    }
  }
  const std::lock_guard<std::mutex> lock(mutex);
  memo.emplace(key, fresh);
  return fresh;
}

units::LogDoS ExactOracle::log_g_at(units::Energy energy) const {
  const long long key = std::llround(energy.value() / quantum_);
  // levels_ is energy-ascending; binary search by quantised key.
  const auto it = std::lower_bound(
      levels_.begin(), levels_.end(), key,
      [this](const ExactLevel& level, long long k) {
        return std::llround(level.energy / quantum_) < k;
      });
  if (it == levels_.end() || std::llround(it->energy / quantum_) != key)
    return units::LogDoS(kNegInf);
  return units::LogDoS(std::log(it->count));
}

mc::DensityOfStates ExactOracle::to_dos(const mc::EnergyGrid& grid) const {
  std::vector<double> counts(static_cast<std::size_t>(grid.n_bins()), 0.0);
  for (const auto& level : levels_) {
    const std::int32_t bin = grid.bin(level.energy);
    DT_CHECK_MSG(bin >= 0, "oracle: level E=" << level.energy
                                              << " falls outside the grid");
    counts[static_cast<std::size_t>(bin)] += level.count;
  }
  mc::DensityOfStates dos(grid);
  for (std::int32_t b = 0; b < grid.n_bins(); ++b)
    if (counts[static_cast<std::size_t>(b)] > 0.0)
      dos.set(b, units::LogDoS(
                      std::log(counts[static_cast<std::size_t>(b)])));
  return dos;
}

mc::EnergyGrid ExactOracle::make_grid(std::int32_t n_bins, double pad) const {
  return mc::EnergyGrid(e_min_ - pad, e_max_ + pad, n_bins);
}

mc::ThermoPoint ExactOracle::thermo(units::Temperature temperature) const {
  DT_CHECK_MSG(temperature.value() > 0.0,
               "oracle thermo: temperature must be > 0");
  const double beta = units::to_beta(temperature).value();
  std::vector<double> logw;
  logw.reserve(levels_.size());
  for (const auto& level : levels_)
    logw.push_back(std::log(level.count) - beta * level.energy);
  const double log_z = log_sum_exp(logw);

  KahanSum mean_e, mean_e2;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const double w = std::exp(logw[i] - log_z);
    mean_e.add(w * levels_[i].energy);
    mean_e2.add(w * levels_[i].energy * levels_[i].energy);
  }

  mc::ThermoPoint pt;
  pt.temperature = temperature.value();
  pt.log_z = log_z;
  pt.internal_energy = mean_e.value();
  const double var =
      std::max(0.0, mean_e2.value() - mean_e.value() * mean_e.value());
  pt.specific_heat = beta * beta * var;
  pt.free_energy = -temperature.value() * log_z;
  pt.entropy =
      (pt.internal_energy - pt.free_energy) / temperature.value();
  return pt;
}

std::vector<mc::ThermoPoint> ExactOracle::thermo_scan(
    const std::vector<double>& temperatures) const {
  std::vector<mc::ThermoPoint> out;
  out.reserve(temperatures.size());
  for (const double t : temperatures)
    out.push_back(thermo(units::Temperature(t)));
  return out;
}

std::vector<double> ExactOracle::level_probabilities(
    units::Temperature temperature) const {
  DT_CHECK_MSG(temperature.value() > 0.0, "oracle: temperature must be > 0");
  const double beta = units::to_beta(temperature).value();
  std::vector<double> logw;
  logw.reserve(levels_.size());
  for (const auto& level : levels_)
    logw.push_back(std::log(level.count) - beta * level.energy);
  const double log_z = log_sum_exp(logw);
  std::vector<double> probs;
  probs.reserve(levels_.size());
  for (const double lw : logw) probs.push_back(std::exp(lw - log_z));
  return probs;
}

double ExactOracle::mean_sro(units::Temperature temperature) const {
  DT_CHECK_MSG(with_sro_, "oracle: enumerated without with_sro");
  const auto probs = level_probabilities(temperature);
  double out = 0.0;
  for (std::size_t i = 0; i < levels_.size(); ++i)
    out += probs[i] * (levels_[i].sro_sum / levels_[i].count);
  return out;
}

void ExactOracle::save(std::ostream& os) const {
  os << "dt-oracle v1\n";
  os << strformat("key %016llx quantum %.17g with_sro %d\n",
                  static_cast<unsigned long long>(key_), quantum_,
                  with_sro_ ? 1 : 0);
  os << "levels " << levels_.size() << '\n';
  for (const auto& level : levels_) {
    os << strformat("%lld %.17g %.17g\n",
                    static_cast<long long>(std::llround(level.energy /
                                                        quantum_)),
                    level.count, level.sro_sum);
  }
}

ExactOracle ExactOracle::load(std::istream& is) {
  std::string word, version;
  DT_CHECK_MSG(static_cast<bool>(is >> word >> version) &&
                   word == "dt-oracle" && version == "v1",
               "oracle load: bad magic");
  ExactOracle out;
  unsigned long long key = 0;
  int with_sro = 0;
  std::size_t n_levels = 0;
  DT_CHECK_MSG(static_cast<bool>(is >> word >> std::hex >> key >> std::dec),
               "oracle load: bad key");
  DT_CHECK_MSG(word == "key", "oracle load: bad key tag");
  DT_CHECK_MSG(static_cast<bool>(is >> word >> out.quantum_) &&
                   word == "quantum" && out.quantum_ > 0.0,
               "oracle load: bad quantum");
  DT_CHECK_MSG(static_cast<bool>(is >> word >> with_sro) &&
                   word == "with_sro",
               "oracle load: bad with_sro");
  DT_CHECK_MSG(static_cast<bool>(is >> word >> n_levels) && word == "levels" &&
                   n_levels >= 1,
               "oracle load: bad level count");
  out.key_ = key;
  out.with_sro_ = with_sro != 0;
  out.levels_.reserve(n_levels);
  long long prev_key = std::numeric_limits<long long>::min();
  for (std::size_t i = 0; i < n_levels; ++i) {
    long long qkey = 0;
    double count = 0.0, sro = 0.0;
    DT_CHECK_MSG(static_cast<bool>(is >> qkey >> count >> sro),
                 "oracle load: truncated at level " << i);
    DT_CHECK_MSG(qkey > prev_key, "oracle load: levels out of order");
    DT_CHECK_MSG(count > 0.0 && std::isfinite(count),
                 "oracle load: bad count at level " << i);
    prev_key = qkey;
    out.levels_.push_back(
        {static_cast<double>(qkey) * out.quantum_, count, sro});
    out.total_ += count;
  }
  out.log_total_ = std::log(out.total_);
  out.e_min_ = out.levels_.front().energy;
  out.e_max_ = out.levels_.back().energy;
  return out;
}

}  // namespace dt::validate
