#include "mc/wang_landau.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace dt::mc {

namespace {
/// Initial modification factor ln f.
constexpr double kLogFInitial = 1.0;
/// Fraction of ever-visited bins that must be revisited in the current
/// ln f stage before flatness can pass (tolerates a few corner bins
/// reachable only through measure-zero states).
constexpr double kStageCoverage = 0.9;
/// Sweeps between flatness checks.
constexpr std::int64_t kCheckInterval = 100;
/// A window is declared converged when only one bin has ever been
/// reached and no new bin appears for this many sweeps (single-level
/// windows occur with sparse spectra and cannot satisfy any flatness
/// test).
constexpr std::int64_t kDegenerateWindowSweeps = 2000;
}  // namespace

WangLandauSampler::WangLandauSampler(const lattice::EpiHamiltonian& hamiltonian,
                                     lattice::Configuration& cfg,
                                     const EnergyGrid& grid,
                                     WangLandauOptions options, Rng rng)
    : hamiltonian_(&hamiltonian),
      cfg_(&cfg),
      options_(options),
      dos_(grid),
      histogram_(grid),
      rng_(rng),
      log_f_(kLogFInitial),
      energy_(units::Energy(hamiltonian.total_energy(cfg))) {
  if (options_.window_lo_bin < 0) options_.window_lo_bin = 0;
  if (options_.window_hi_bin < 0) options_.window_hi_bin = grid.n_bins() - 1;
  DT_CHECK(options_.window_lo_bin <= options_.window_hi_bin);
  DT_CHECK(options_.window_hi_bin < grid.n_bins());
  DT_CHECK_MSG(options_.log_f_final > 0.0 &&
                   options_.log_f_final < kLogFInitial,
               "log_f_final must be in (0, 1), got " << options_.log_f_final);
  current_bin_ = grid.bin(energy_);
}

void WangLandauSampler::mark_visited(std::int32_t bin) {
  if (dos_.visited(bin)) return;
  ++ever_visited_in_window_;
  sweeps_at_last_discovery_ = stats_.sweeps;
}

void WangLandauSampler::update_current(std::int32_t bin) {
  current_bin_ = bin;
  mark_visited(bin);
  dos_.add(bin, units::LogWeight(log_f_));
  histogram_.record(bin);

  // Round-trip bookkeeping between the window edges (with a small band so
  // near-edge bins count; exact edge bins can be vanishingly rare).
  const std::int32_t width = window_hi() - window_lo();
  const std::int32_t band = std::max<std::int32_t>(1, width / 25);
  const bool at_lo = bin <= window_lo() + band;
  const bool at_hi = bin >= window_hi() - band;
  if (at_lo) {
    if (trip_direction_ == -1) ++stats_.round_trips;
    trip_direction_ = +1;
  } else if (at_hi && trip_direction_ == +1) {
    trip_direction_ = -1;
  }
}

bool WangLandauSampler::step(Proposal& proposal) {
  DT_CHECK_MSG(current_bin_ >= window_lo() && current_bin_ <= window_hi(),
               "walker outside its window; call seek_window() first");
  ++stats_.attempted;

  const ProposalResult r = proposal.propose(*cfg_, energy_, rng_);
  if (!r.valid) {
    update_current(current_bin_);
    return false;
  }

  const units::Energy new_energy = energy_ + r.delta_energy;
  const std::int32_t new_bin = dos_.grid().bin(new_energy);
  if (new_bin < window_lo() || new_bin > window_hi()) {
    // Standard WL boundary handling: reject and reinforce the current bin.
    proposal.revert(*cfg_);
    ++stats_.out_of_window;
    update_current(current_bin_);
    return false;
  }

  // ln A = ln g(old) - ln g(new) + [ln q(x|x') - ln q(x'|x)].
  const units::LogWeight log_accept =
      (dos_.log_g(current_bin_) - dos_.log_g(new_bin)) + r.log_q_ratio;
  if (units::metropolis_accept(
          log_accept, [&] { return units::Prob(uniform01(rng_)); })) {
    energy_ = new_energy;
    ++stats_.accepted;
    // First visit of a bin late in the run would otherwise start from
    // ln g = 0 and need ~Delta/ln f visits to heal; seeding with the
    // departure bin's value is the standard transient fix (the estimate
    // still converges -- initialisation is arbitrary in WL).
    if (!dos_.visited(new_bin)) {
      mark_visited(new_bin);
      dos_.set(new_bin, dos_.log_g(current_bin_));
    }
    update_current(new_bin);
    return true;
  }
  proposal.revert(*cfg_);
  update_current(current_bin_);
  return false;
}

void WangLandauSampler::sweep(Proposal& proposal) {
  const auto n = static_cast<std::int64_t>(cfg_->num_sites());
  for (std::int64_t i = 0; i < n; ++i) step(proposal);
  ++stats_.sweeps;
}

bool WangLandauSampler::stage_flat() const {
  // Flatness is evaluated over the bins visited in the CURRENT stage,
  // with a coverage requirement against the ever-visited set: at least
  // kStageCoverage of all bins the walker has ever reached must have been
  // revisited this stage. Pure current-stage flatness lets stages pass
  // while most of the window is unexplored (late-found bins then carry
  // pathological ln g deficits); demanding *every* ever-visited bin
  // deadlocks on near-continuous spectra where a few corner bins are
  // reachable only through measure-zero states. The coverage fraction is
  // the standard compromise.
  std::uint64_t min_count = 0;
  std::uint64_t sum = 0;
  std::int32_t ever = 0;
  std::int32_t covered = 0;
  for (std::int32_t b = window_lo(); b <= window_hi(); ++b) {
    if (!dos_.visited(b)) continue;
    ++ever;
    const std::uint64_t c = histogram_.count(b);
    if (c == 0) continue;
    if (covered == 0 || c < min_count) min_count = c;
    sum += c;
    ++covered;
  }
  if (covered < 2) return false;
  if (static_cast<double>(covered) <
      kStageCoverage * static_cast<double>(ever))
    return false;
  const double mean = static_cast<double>(sum) / static_cast<double>(covered);
  return static_cast<double>(min_count) >= options_.flatness * mean;
}

void WangLandauSampler::advance_stage() {
  log_f_ *= 0.5;
  histogram_.reset();
  ++stats_.f_stages_completed;
}

bool WangLandauSampler::advance(
    Proposal& proposal, std::int64_t n_sweeps,
    const std::function<void(int, double, std::int64_t)>& on_stage) {
  for (std::int64_t s = 0; s < n_sweeps; ++s) {
    sweep(proposal);

    // Degenerate window: only one reachable bin, quiet for a long time.
    // Its fragment is a single anchor value; declare convergence so the
    // rest of the REWL ensemble is not held hostage.
    if (ever_visited_in_window_ <= 1 &&
        stats_.sweeps - sweeps_at_last_discovery_ >
            kDegenerateWindowSweeps) {
      log_f_ = options_.log_f_final * 0.5;
      return true;
    }

    if (one_over_t_phase_) {
      // Belardinelli-Pereyra refinement: ln f = 1/t with t in sweeps;
      // histogram flatness is no longer required.
      log_f_ = std::min(log_f_, 1.0 / static_cast<double>(stats_.sweeps));
      if (converged()) return true;
      continue;
    }

    if (stats_.sweeps % kCheckInterval != 0) continue;
    if (!stage_flat()) continue;

    const double finished_f = log_f_;
    advance_stage();
    if (on_stage)
      on_stage(stats_.f_stages_completed, finished_f, stats_.sweeps);
    if (converged()) return true;
    if (options_.one_over_t &&
        log_f_ <= 1.0 / static_cast<double>(stats_.sweeps)) {
      one_over_t_phase_ = true;
    }
  }
  return converged();
}

bool WangLandauSampler::run(
    Proposal& proposal, std::int64_t max_sweeps,
    const std::function<void(int, double, std::int64_t)>& on_stage) {
  return advance(proposal, max_sweeps, on_stage);
}

bool WangLandauSampler::seek_window(Proposal& proposal,
                                    std::int64_t max_sweeps) {
  const EnergyGrid& grid = dos_.grid();
  const double target_lo = grid.e_min() + grid.bin_width() *
                                              static_cast<double>(window_lo());
  const double target_hi =
      grid.e_min() + grid.bin_width() * (static_cast<double>(window_hi()) + 1.0);

  auto distance = [&](units::Energy en) {
    const double e = en.value();
    if (e < target_lo) return target_lo - e;
    if (e > target_hi) return e - target_hi;
    return 0.0;
  };

  const auto n = static_cast<std::int64_t>(cfg_->num_sites());
  for (std::int64_t s = 0; s < max_sweeps; ++s) {
    if (distance(energy_) == 0.0) break;
    for (std::int64_t i = 0; i < n; ++i) {
      const ProposalResult r = proposal.propose(*cfg_, energy_, rng_);
      if (!r.valid) continue;
      const units::Energy new_energy = energy_ + r.delta_energy;
      // Greedy: accept moves that do not increase the distance to the
      // window. Plateaus are escaped by the stochastic proposal itself.
      if (distance(new_energy) <= distance(energy_)) {
        energy_ = new_energy;
      } else {
        proposal.revert(*cfg_);
      }
      if (distance(energy_) == 0.0) break;
    }
  }
  current_bin_ = grid.bin(energy_);
  return current_bin_ >= window_lo() && current_bin_ <= window_hi();
}

units::LogDoS WangLandauSampler::log_g_at(units::Energy e) const {
  const std::int32_t bin = dos_.grid().bin(e);
  if (bin < window_lo() || bin > window_hi() || bin < 0)
    return units::LogDoS(std::numeric_limits<double>::infinity());
  return dos_.log_g(bin);
}

void WangLandauSampler::adopt(const lattice::Configuration& cfg,
                              units::Energy energy) {
  cfg_->assign(cfg.occupancy());
  energy_ = energy;
  const std::int32_t new_bin = dos_.grid().bin(energy);
  DT_CHECK_MSG(new_bin >= window_lo() && new_bin <= window_hi(),
               "adopt(): energy outside this walker's window");
  if (!dos_.visited(new_bin) && current_bin_ >= 0) {
    mark_visited(new_bin);
    dos_.set(new_bin, dos_.log_g(current_bin_));
  }
  current_bin_ = new_bin;
}

namespace {
constexpr std::uint64_t kCheckpointMagic = 0x44'54'57'4C'43'4B'30'31ULL;
}  // namespace

void WangLandauSampler::save_state(std::ostream& os) const {
  write_pod(os, kCheckpointMagic);
  // Geometry fingerprint so restores into mismatched samplers fail fast.
  write_pod(os, dos_.grid().e_min());
  write_pod(os, dos_.grid().e_max());
  write_pod(os, dos_.grid().n_bins());
  write_pod(os, options_.window_lo_bin);
  write_pod(os, options_.window_hi_bin);

  write_pod(os, energy_.value());
  write_pod(os, log_f_);
  write_pod(os, current_bin_);
  write_pod(os, trip_direction_);
  write_pod(os, one_over_t_phase_);
  write_pod(os, ever_visited_in_window_);
  write_pod(os, sweeps_at_last_discovery_);
  write_pod(os, stats_);

  write_pod(os, rng_.key());
  write_pod(os, rng_.position());

  const auto occ = cfg_->occupancy();
  write_vector(os, std::vector<std::uint8_t>(occ.begin(), occ.end()));
  write_vector(os, histogram_.counts());

  std::vector<std::uint8_t> visited(
      static_cast<std::size_t>(dos_.grid().n_bins()));
  std::vector<double> values(visited.size(), 0.0);
  for (std::int32_t b = 0; b < dos_.grid().n_bins(); ++b) {
    visited[static_cast<std::size_t>(b)] = dos_.visited(b) ? 1 : 0;
    if (dos_.visited(b))
      values[static_cast<std::size_t>(b)] = dos_.log_g(b).value();
  }
  write_vector(os, visited);
  write_vector(os, values);
}

void WangLandauSampler::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint64_t>(is) == kCheckpointMagic,
               "WL checkpoint: bad magic");
  DT_CHECK_MSG(read_pod<double>(is) == dos_.grid().e_min() &&
                   read_pod<double>(is) == dos_.grid().e_max() &&
                   read_pod<std::int32_t>(is) == dos_.grid().n_bins(),
               "WL checkpoint: grid mismatch");
  DT_CHECK_MSG(read_pod<std::int32_t>(is) == options_.window_lo_bin &&
                   read_pod<std::int32_t>(is) == options_.window_hi_bin,
               "WL checkpoint: window mismatch");

  energy_ = units::Energy(read_pod<double>(is));
  log_f_ = read_pod<double>(is);
  current_bin_ = read_pod<std::int32_t>(is);
  trip_direction_ = read_pod<int>(is);
  one_over_t_phase_ = read_pod<bool>(is);
  ever_visited_in_window_ = read_pod<std::int32_t>(is);
  sweeps_at_last_discovery_ = read_pod<std::int64_t>(is);
  stats_ = read_pod<WangLandauStats>(is);

  const auto key = read_pod<std::array<std::uint32_t, 2>>(is);
  const auto position = read_pod<std::uint64_t>(is);
  rng_.set_key(key);
  if (position > 0) rng_.seek(position);

  cfg_->assign(read_vector<std::uint8_t>(is));
  histogram_.restore_counts(read_vector<std::uint64_t>(is));

  const auto visited = read_vector<std::uint8_t>(is);
  const auto values = read_vector<double>(is);
  DT_CHECK_MSG(visited.size() ==
                       static_cast<std::size_t>(dos_.grid().n_bins()) &&
                   values.size() == visited.size(),
               "WL checkpoint: DOS size mismatch");
  dos_ = DensityOfStates(dos_.grid());
  for (std::int32_t b = 0; b < dos_.grid().n_bins(); ++b)
    if (visited[static_cast<std::size_t>(b)])
      dos_.set(b, units::LogDoS(values[static_cast<std::size_t>(b)]));
  // Audit tolerance scales with system size: the incrementally updated
  // energy accumulates rounding drift proportional to the number of
  // per-site delta additions, so a fixed 1e-6 rejects legitimate
  // checkpoints of large lattices after long delta-update runs.
  const double audit_tol =
      1e-9 * static_cast<double>(cfg_->num_sites()) *
      std::max(1.0, std::abs(energy_.value()));
  DT_CHECK_MSG(std::abs(energy_.value() -
                        hamiltonian_->total_energy(*cfg_)) < audit_tol,
               "WL checkpoint: energy/configuration inconsistency");
}

std::pair<double, double> estimate_energy_range(
    const lattice::EpiHamiltonian& hamiltonian, lattice::Configuration cfg,
    std::int64_t quench_sweeps, double pad_fraction, Rng rng) {
  LocalSwapProposal proposal(hamiltonian);
  const units::Energy energy{hamiltonian.total_energy(cfg)};
  const auto n = static_cast<std::int64_t>(cfg.num_sites());

  auto quench = [&](double sign) {
    units::Energy e = energy;
    for (std::int64_t s = 0; s < quench_sweeps; ++s) {
      for (std::int64_t i = 0; i < n; ++i) {
        const ProposalResult r = proposal.propose(cfg, e, rng);
        if (!r.valid) continue;
        if (sign * r.delta_energy.value() <= 0.0) {
          e += r.delta_energy;
        } else {
          proposal.revert(cfg);
        }
      }
    }
    return e.value();
  };

  // Low edge from the current state; high edge continuing from there
  // (uphill quench reaches the anti-ordered states regardless of start).
  const double e_lo = quench(+1.0);
  const double e_hi = quench(-1.0);
  DT_CHECK_MSG(e_hi > e_lo, "energy range collapse: flat landscape?");
  const double span = e_hi - e_lo;
  return {e_lo - pad_fraction * span, e_hi + pad_fraction * span};
}

}  // namespace dt::mc
