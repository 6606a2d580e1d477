// Multicanonical production sampling with fixed weights.
//
// Wang-Landau's ln g estimate carries the bias of its final ln f. The
// standard second phase fixes the weights w(E) = 1/g_ref(E) and runs a
// plain Markov chain (detailed balance now holds exactly): the visit
// histogram H(E) of that chain is flat exactly insofar as g_ref is
// correct, and
//
//     ln g(E) = ln g_ref(E) + ln H(E) + const
//
// is an unbiased refinement. Production runs also provide the correlated
// time series for observable averages with proper error bars
// (validate/stats.hpp: blocked_error, jackknife).
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "lattice/hamiltonian.hpp"
#include "mc/dos.hpp"
#include "mc/proposal.hpp"

namespace dt::mc {

struct MulticanonicalStats {
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t out_of_support = 0;  ///< proposals outside g_ref's bins

  [[nodiscard]] double acceptance_rate() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(accepted) / static_cast<double>(attempted);
  }
};

class MulticanonicalSampler {
 public:
  /// `reference` supplies the fixed weights; the walker starts from
  /// `cfg`, whose energy must fall in a visited bin of the reference.
  MulticanonicalSampler(const lattice::EpiHamiltonian& hamiltonian,
                        lattice::Configuration& cfg,
                        const DensityOfStates& reference, Rng rng);

  /// One attempted move (fixed-weight Metropolis-Hastings).
  bool step(Proposal& proposal);

  /// One sweep = num_sites attempts.
  void sweep(Proposal& proposal);

  /// Run `n_sweeps`, invoking `on_sweep` (if set) after each sweep --
  /// the hook for recording observable time series.
  void run(Proposal& proposal, std::int64_t n_sweeps,
           const std::function<void(const MulticanonicalSampler&)>&
               on_sweep = {});

  [[nodiscard]] units::Energy energy() const { return energy_; }
  [[nodiscard]] std::int32_t current_bin() const { return current_bin_; }
  [[nodiscard]] const Histogram& histogram() const { return histogram_; }
  [[nodiscard]] const MulticanonicalStats& stats() const { return stats_; }
  [[nodiscard]] lattice::Configuration& configuration() { return *cfg_; }

  /// ln g_ref + ln H over the bins this run visited (unnormalised).
  [[nodiscard]] DensityOfStates refined_dos() const;

  /// Flatness of the production histogram over the reference support --
  /// a direct quality metric for g_ref (1 = perfect).
  [[nodiscard]] double flatness() const;

 private:
  const lattice::EpiHamiltonian* hamiltonian_;
  lattice::Configuration* cfg_;
  const DensityOfStates* reference_;
  Histogram histogram_;
  Rng rng_;
  MulticanonicalStats stats_;
  units::Energy energy_;
  std::int32_t current_bin_ = -1;
};

}  // namespace dt::mc
