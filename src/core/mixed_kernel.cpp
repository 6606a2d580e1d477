#include "core/mixed_kernel.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "obs/health.hpp"

namespace dt::core {

DeepThermoProposal::DeepThermoProposal(
    const lattice::EpiHamiltonian& hamiltonian, std::shared_ptr<nn::Vae> vae,
    double global_fraction)
    : local_(hamiltonian),
      vae_(hamiltonian, std::move(vae)),
      global_fraction_(global_fraction) {
  DT_CHECK(global_fraction >= 0.0 && global_fraction <= 1.0);
  auto& metrics = obs::MetricsRegistry::global();
  local_proposed_total_ = &metrics.counter("kernel.local.proposed");
  local_reverted_total_ = &metrics.counter("kernel.local.reverted");
  vae_proposed_total_ = &metrics.counter("kernel.vae.proposed");
  vae_reverted_total_ = &metrics.counter("kernel.vae.reverted");
}

mc::ProposalResult DeepThermoProposal::propose(lattice::Configuration& cfg,
                                               units::Energy current_energy,
                                               mc::Rng& rng) {
  // Component choice must be state-independent for the mixture to remain
  // a valid MH kernel; a fixed Bernoulli qualifies.
  last_was_global_ = uniform01(rng) < global_fraction_;
  const bool telem = obs::instrumentation_active();
  if (last_was_global_) {
    if (telem) vae_proposed_total_->add();
    return vae_.propose(cfg, current_energy, rng);
  }
  ++local_stats_.proposed;
  if (telem) local_proposed_total_->add();
  return local_.propose(cfg, current_energy, rng);
}

void DeepThermoProposal::revert(lattice::Configuration& cfg) {
  const bool telem = obs::instrumentation_active();
  if (last_was_global_) {
    if (telem) vae_reverted_total_->add();
    vae_.revert(cfg);
  } else {
    ++local_stats_.reverted;
    if (telem) local_reverted_total_->add();
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
  return {{"local_proposed", static_cast<double>(local_stats_.proposed)},
          {"local_acceptance", local_stats_.acceptance_rate()},
          {"vae_proposed", static_cast<double>(vs.proposed)},
          {"vae_acceptance", vs.acceptance_rate()},
          // Decode-plane wait telemetry (zeros when no plane attached):
          // cumulative ms this walker spent blocked on fused decodes and
          // how many refills blocked, so /status can surface a walker
          // starved by an oversized batching window.
          {"vae_decode_wait_ms", 1e3 * vae_.decode_wait_seconds()},
          {"vae_decode_waits", static_cast<double>(vae_.decode_waits())}};
}

}  // namespace dt::core
