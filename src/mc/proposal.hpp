// Monte Carlo proposal kernels.
//
// A Proposal mutates a Configuration into a candidate state and reports
// the energy change plus the Metropolis-Hastings correction
//
//   log_q_ratio = ln q(x | x') - ln q(x' | x)
//
// (zero for symmetric kernels). The sampler decides acceptance; on
// rejection it calls revert(), which must restore the exact previous
// state. This mutate-then-maybe-revert protocol avoids copying the
// configuration for the O(1) local moves that dominate the sweep.
//
// All kernels must preserve the composition (canonical alloy ensemble);
// this is asserted in debug builds and covered by property tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "lattice/hamiltonian.hpp"

namespace dt::mc {

/// Sampler RNG: counter-based so streams are reproducible per walker.
using Rng = Philox4x32;

struct ProposalResult {
  bool valid = false;       ///< false: no move proposed (treat as rejected)
  units::DeltaEnergy delta_energy{0.0};
  /// ln q(x|x') - ln q(x'|x); 0 when symmetric.
  units::LogWeight log_q_ratio{0.0};
};

class Proposal {
 public:
  virtual ~Proposal() = default;

  /// Mutate `cfg` into the candidate state. `current_energy` lets global
  /// kernels report delta_energy without a second full evaluation.
  virtual ProposalResult propose(lattice::Configuration& cfg,
                                 units::Energy current_energy, Rng& rng) = 0;

  /// Undo the mutation of the most recent propose() call.
  virtual void revert(lattice::Configuration& cfg) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True for kernels that update O(N) sites per move.
  [[nodiscard]] virtual bool is_global() const { return false; }

  /// Optional kernel telemetry: (name, value) pairs par::run_rewl
  /// assigns by name into its per-walker record (obs::WalkerBlock; e.g.
  /// the mixed DeepThermo kernel reports its local/VAE acceptance split).
  /// A name outside that record's field table fails the run. Base
  /// kernels report nothing.
  [[nodiscard]] virtual std::vector<std::pair<std::string, double>>
  telemetry() const {
    return {};
  }

  /// Checkpoint hooks for kernels that carry state beyond the walker's
  /// rng/configuration (e.g. the VAE kernel's decode-ahead ordinal --
  /// see core/vae_proposal.hpp). Stateless kernels keep the no-op
  /// defaults; the REWL driver round-trips these through the per-rank
  /// checkpoint record so resumed runs stay bit-exact.
  virtual void save_state(std::ostream& /*os*/) const {}
  virtual void load_state(std::istream& /*is*/) {}
};

/// Swap the species of two random sites of differing species. Symmetric.
class LocalSwapProposal final : public Proposal {
 public:
  explicit LocalSwapProposal(const lattice::EpiHamiltonian& hamiltonian);

  ProposalResult propose(lattice::Configuration& cfg,
                         units::Energy current_energy, Rng& rng) override;
  void revert(lattice::Configuration& cfg) override;
  [[nodiscard]] std::string name() const override { return "local-swap"; }

 private:
  const lattice::EpiHamiltonian* hamiltonian_;
  std::int32_t site_a_ = -1;
  std::int32_t site_b_ = -1;
};

/// Apply `n_swaps` random distinct-species swaps inside a random cubic
/// block of side `block_cells` conventional cells. Symmetric (uniform swap
/// sequences are reverse-closed with equal probability).
class BlockSwapProposal final : public Proposal {
 public:
  BlockSwapProposal(const lattice::EpiHamiltonian& hamiltonian,
                    int block_cells, int n_swaps);

  ProposalResult propose(lattice::Configuration& cfg,
                         units::Energy current_energy, Rng& rng) override;
  void revert(lattice::Configuration& cfg) override;
  [[nodiscard]] std::string name() const override { return "block-swap"; }

 private:
  const lattice::EpiHamiltonian* hamiltonian_;
  int block_cells_;
  int n_swaps_;
  std::vector<std::pair<std::int32_t, std::int32_t>> applied_;
};

}  // namespace dt::mc
