// Wang-Landau flat-histogram sampler.
//
// Estimates ln g(E) by biasing acceptance with 1/g(E) and reinforcing the
// running estimate at every visit. Supports:
//   * restriction to an energy window [window_lo_bin, window_hi_bin]
//     (the building block of replica-exchange Wang-Landau),
//   * the classic ln f halving schedule and the 1/t refinement
//     (Belardinelli-Pereyra) that removes the late-stage error saturation,
//   * arbitrary proposal kernels with MH q-corrections (the DL proposal),
//   * round-trip ("tunnelling") statistics between the window edges,
//     the mixing diagnostic used to compare proposal kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>

#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "lattice/hamiltonian.hpp"
#include "mc/dos.hpp"
#include "mc/energy_grid.hpp"
#include "mc/proposal.hpp"

namespace dt::mc {

struct WangLandauOptions {
  double flatness = 0.8;        ///< histogram flatness threshold
  /// Convergence threshold on ln f, in (0, 1): ln f starts at 1.
  double log_f_final = 1e-6;
  bool one_over_t = true;       ///< switch to ln f = N_bins/t when smaller
  std::int32_t window_lo_bin = -1;    ///< -1: full grid
  std::int32_t window_hi_bin = -1;    ///< -1: full grid
};

struct WangLandauStats {
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t out_of_window = 0;
  std::int64_t sweeps = 0;
  std::int32_t f_stages_completed = 0;
  std::uint64_t round_trips = 0;  ///< lo-edge <-> hi-edge round trips

  [[nodiscard]] double acceptance_rate() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(accepted) / static_cast<double>(attempted);
  }
};

class WangLandauSampler {
 public:
  WangLandauSampler(const lattice::EpiHamiltonian& hamiltonian,
                    lattice::Configuration& cfg, const EnergyGrid& grid,
                    WangLandauOptions options, Rng rng);

  /// One attempted move; updates ln g and the histogram.
  bool step(Proposal& proposal);

  /// One sweep = num_sites attempted moves.
  void sweep(Proposal& proposal);

  /// Run up to `n_sweeps` additional sweeps, applying the flatness /
  /// ln f schedule; stage state (including the 1/t phase) persists across
  /// calls so replica-exchange drivers can interleave exchanges.
  /// `on_stage` (if set) fires after each completed flatness stage with
  /// (stage index, ln f just finished, sweeps so far).
  /// Returns converged().
  bool advance(Proposal& proposal, std::int64_t n_sweeps,
               const std::function<void(int, double, std::int64_t)>&
                   on_stage = {});

  /// Run sweeps until ln f < log_f_final or `max_sweeps` is exhausted.
  /// Returns true if converged.
  bool run(Proposal& proposal, std::int64_t max_sweeps,
           const std::function<void(int, double, std::int64_t)>& on_stage = {});

  /// True once ln f has refined past log_f_final.
  [[nodiscard]] bool converged() const {
    return log_f_ < options_.log_f_final;
  }

  /// Drive the walker's energy into the window before sampling: steepest
  /// descent towards the window using the proposal kernel with a greedy
  /// directional acceptance. Returns true once inside.
  bool seek_window(Proposal& proposal, std::int64_t max_sweeps);

  [[nodiscard]] const DensityOfStates& dos() const { return dos_; }
  [[nodiscard]] const Histogram& histogram() const { return histogram_; }
  [[nodiscard]] const WangLandauStats& stats() const { return stats_; }
  [[nodiscard]] double log_f() const { return log_f_; }
  [[nodiscard]] units::Energy energy() const { return energy_; }
  /// Absolute position of the walker's Philox stream (checkpoint
  /// verification: a resumed run must match draw-for-draw).
  [[nodiscard]] std::uint64_t rng_position() const { return rng_.position(); }
  [[nodiscard]] std::int32_t current_bin() const { return current_bin_; }
  [[nodiscard]] lattice::Configuration& configuration() { return *cfg_; }
  [[nodiscard]] const WangLandauOptions& options() const { return options_; }

  /// Replica exchange support: current ln g value at an arbitrary energy
  /// (+inf when outside the window / unvisited, making exchanges into
  /// unknown territory auto-accepted -- the REWL convention).
  [[nodiscard]] units::LogDoS log_g_at(units::Energy e) const;

  /// Adopt a configuration (from a replica exchange); energy is trusted
  /// from the partner and audited in debug builds.
  void adopt(const lattice::Configuration& cfg, units::Energy energy);

  /// Check ln-f stage flatness immediately (normally driven by run()).
  [[nodiscard]] bool stage_flat() const;

  /// Checkpoint the full sampler state -- configuration, energy, ln g,
  /// histogram, schedule phase, statistics and the RNG position -- such
  /// that a load_state() on a sampler built with the same Hamiltonian,
  /// grid and options resumes bit-exactly.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  void update_current(std::int32_t bin);
  void advance_stage();
  [[nodiscard]] std::int32_t window_lo() const { return options_.window_lo_bin; }
  [[nodiscard]] std::int32_t window_hi() const { return options_.window_hi_bin; }

  const lattice::EpiHamiltonian* hamiltonian_;
  lattice::Configuration* cfg_;
  WangLandauOptions options_;
  DensityOfStates dos_;
  Histogram histogram_;
  Rng rng_;
  WangLandauStats stats_;
  double log_f_;
  units::Energy energy_;
  std::int32_t current_bin_ = -1;
  // Round-trip bookkeeping: -1 heading down (towards lo), +1 heading up.
  int trip_direction_ = 0;
  bool one_over_t_phase_ = false;
  // Degenerate-window detection: a window whose reachable spectrum is a
  // single bin carries no relative ln g information and can never pass a
  // flatness test; it is declared converged after a quiet period.
  std::int32_t ever_visited_in_window_ = 0;
  std::int64_t sweeps_at_last_discovery_ = 0;
  void mark_visited(std::int32_t bin);
};

/// Empirically bracket the reachable energy range of `hamiltonian` on the
/// configuration's lattice: greedy quench for the low edge, randomization
/// plus uphill quench for the high edge, padded by `pad_fraction` of the
/// span on both sides.
std::pair<double, double> estimate_energy_range(
    const lattice::EpiHamiltonian& hamiltonian, lattice::Configuration cfg,
    std::int64_t quench_sweeps, double pad_fraction, Rng rng);

}  // namespace dt::mc
