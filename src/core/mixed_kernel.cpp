#include "core/mixed_kernel.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace dt::core {

DeepThermoProposal::DeepThermoProposal(
    const lattice::EpiHamiltonian& hamiltonian, std::shared_ptr<nn::Vae> vae,
    double global_fraction)
    : local_(hamiltonian),
      vae_(hamiltonian, std::move(vae)),
      global_fraction_(global_fraction) {
  DT_CHECK(global_fraction >= 0.0 && global_fraction <= 1.0);
}

mc::ProposalResult DeepThermoProposal::propose(lattice::Configuration& cfg,
                                               units::Energy current_energy,
                                               mc::Rng& rng) {
  // Component choice must be state-independent for the mixture to remain
  // a valid MH kernel; a fixed Bernoulli qualifies.
  last_was_global_ = uniform01(rng) < global_fraction_;
  if (last_was_global_) return vae_.propose(cfg, current_energy, rng);
  ++local_stats_.proposed;
  return local_.propose(cfg, current_energy, rng);
}

void DeepThermoProposal::revert(lattice::Configuration& cfg) {
  if (last_was_global_) {
    vae_.revert(cfg);
  } else {
    ++local_stats_.reverted;
    local_.revert(cfg);
  }
}

void DeepThermoProposal::save_state(std::ostream& os) const {
  write_pod(os, local_stats_);
  vae_.save_state(os);
}

void DeepThermoProposal::load_state(std::istream& is) {
  local_stats_ = read_pod<KernelStats>(is);
  vae_.load_state(is);
}

std::vector<std::pair<std::string, double>> DeepThermoProposal::telemetry()
    const {
  const VaeProposalStats& vs = vae_.stats();
  const VaeWorkCounts& work = vae_.work();
  return {{"local_proposed", static_cast<double>(local_stats_.proposed)},
          {"local_acceptance", local_stats_.acceptance_rate()},
          {"vae_proposed", static_cast<double>(vs.proposed)},
          {"vae_acceptance", vs.acceptance_rate()},
          {"vae_decoded", static_cast<double>(work.decoded)},
          {"vae_changed_sites", static_cast<double>(work.changed_sites)},
          // Decode-plane wait telemetry (zeros when no plane attached):
          // cumulative ms this walker spent blocked on fused decodes and
          // how many refills blocked, so /status can surface a walker
          // starved by an oversized batching window.
          {"vae_decode_wait_ms", 1e3 * vae_.decode_wait_seconds()},
          {"vae_decode_waits", static_cast<double>(vae_.decode_waits())}};
}

}  // namespace dt::core
