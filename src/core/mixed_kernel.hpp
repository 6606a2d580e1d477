// The DeepThermo sampling kernel: a state-independent mixture of the
// local swap kernel (probability 1 - global_fraction) and the VAE global
// kernel (probability global_fraction), with per-component acceptance
// bookkeeping. Pure global proposals stall at low energies; pure local
// proposals diffuse slowly across the window -- the mixture gets both
// regimes (ablated in bench_a1_mixing).
#pragma once

#include <memory>

#include "core/vae_proposal.hpp"
#include "mc/proposal.hpp"

namespace dt::core {

struct KernelStats {
  std::uint64_t proposed = 0;
  std::uint64_t reverted = 0;

  [[nodiscard]] double acceptance_rate() const {
    return proposed == 0
               ? 0.0
               : 1.0 - static_cast<double>(reverted) /
                           static_cast<double>(proposed);
  }
};

class DeepThermoProposal final : public mc::Proposal {
 public:
  DeepThermoProposal(const lattice::EpiHamiltonian& hamiltonian,
                     std::shared_ptr<nn::Vae> vae, double global_fraction);

  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override;
  void revert(lattice::Configuration& cfg) override;
  [[nodiscard]] std::string name() const override { return "deepthermo"; }

  /// Per-component acceptance split and the VAE work counts for the
  /// per-walker record; the keys are obs::WalkerBlock field names.
  [[nodiscard]] std::vector<std::pair<std::string, double>> telemetry()
      const override;

  [[nodiscard]] const KernelStats& local_stats() const { return local_stats_; }
  [[nodiscard]] const VaeProposalStats& vae_stats() const {
    return vae_.stats();
  }
  [[nodiscard]] VaeProposal& vae_kernel() { return vae_; }
  [[nodiscard]] double global_fraction() const { return global_fraction_; }

  /// Route the VAE component's decode refills through the shared
  /// cross-walker decode plane (see core/decode_plane.hpp); nullptr
  /// detaches.
  void attach_decode_plane(std::shared_ptr<DecodePlane> plane) {
    vae_.attach_decode_plane(std::move(plane));
  }

  /// Checkpoint the kernel's behavioural state: the VAE component's
  /// decode-ahead ordinal (required for bit-exact resume) plus the
  /// per-component stats.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  mc::LocalSwapProposal local_;
  VaeProposal vae_;
  double global_fraction_;
  bool last_was_global_ = false;
  KernelStats local_stats_;
};

}  // namespace dt::core
