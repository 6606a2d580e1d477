#include "mc/proposal.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dt::mc {

using lattice::Configuration;
using lattice::EpiHamiltonian;
using lattice::Species;

LocalSwapProposal::LocalSwapProposal(const EpiHamiltonian& hamiltonian)
    : hamiltonian_(&hamiltonian) {}

ProposalResult LocalSwapProposal::propose(Configuration& cfg,
                                          units::Energy /*current_energy*/,
                                          Rng& rng) {
  const auto n = static_cast<std::uint64_t>(cfg.num_sites());
  site_a_ = static_cast<std::int32_t>(uniform_index(rng, n));
  const Species sa = cfg.at(site_a_);

  // Rejection-sample a site of a different species. The acceptance-ratio
  // symmetry argument (see tests) needs b uniform over sites with species
  // != sa; bounded retries guard against single-species configurations.
  constexpr int kMaxTries = 256;
  site_b_ = -1;
  for (int t = 0; t < kMaxTries; ++t) {
    const auto b = static_cast<std::int32_t>(uniform_index(rng, n));
    if (cfg.at(b) != sa) {
      site_b_ = b;
      break;
    }
  }
  if (site_b_ < 0) return {};  // effectively single-species: no move

  ProposalResult result;
  result.valid = true;
  result.delta_energy =
      units::DeltaEnergy(hamiltonian_->swap_delta(cfg, site_a_, site_b_));
  result.log_q_ratio = units::LogWeight(0.0);
  cfg.swap(site_a_, site_b_);
  return result;
}

void LocalSwapProposal::revert(Configuration& cfg) {
  DT_CHECK(site_a_ >= 0 && site_b_ >= 0);
  cfg.swap(site_a_, site_b_);
}

BlockSwapProposal::BlockSwapProposal(const EpiHamiltonian& hamiltonian,
                                     int block_cells, int n_swaps)
    : hamiltonian_(&hamiltonian),
      block_cells_(block_cells),
      n_swaps_(n_swaps) {
  DT_CHECK(block_cells >= 1);
  DT_CHECK(n_swaps >= 1);
}

ProposalResult BlockSwapProposal::propose(Configuration& cfg,
                                          units::Energy /*current_energy*/,
                                          Rng& rng) {
  const lattice::Lattice& lat = cfg.lattice();
  applied_.clear();

  // Collect the sites of a random block of block_cells^3 cells.
  const int bx = static_cast<int>(uniform_index(
      rng, static_cast<std::uint64_t>(lat.nx())));
  const int by = static_cast<int>(uniform_index(
      rng, static_cast<std::uint64_t>(lat.ny())));
  const int bz = static_cast<int>(uniform_index(
      rng, static_cast<std::uint64_t>(lat.nz())));
  std::vector<std::int32_t> sites;
  sites.reserve(static_cast<std::size_t>(block_cells_) *
                static_cast<std::size_t>(block_cells_) *
                static_cast<std::size_t>(block_cells_) *
                static_cast<std::size_t>(lat.basis()));
  for (int dz = 0; dz < block_cells_; ++dz)
    for (int dy = 0; dy < block_cells_; ++dy)
      for (int dx = 0; dx < block_cells_; ++dx)
        for (int b = 0; b < lat.basis(); ++b)
          sites.push_back(lat.site_index(bx + dx, by + dy, bz + dz, b));

  ProposalResult result;
  result.valid = true;
  result.log_q_ratio = units::LogWeight(0.0);

  double delta = 0.0;
  for (int k = 0; k < n_swaps_; ++k) {
    const auto i = sites[static_cast<std::size_t>(
        uniform_index(rng, sites.size()))];
    const auto j = sites[static_cast<std::size_t>(
        uniform_index(rng, sites.size()))];
    // Identical-species or same-site swaps are identity moves; applying
    // them keeps the sequence distribution uniform (symmetry), and they
    // cost nothing.
    delta += hamiltonian_->swap_delta(cfg, i, j);
    cfg.swap(i, j);
    applied_.emplace_back(i, j);
  }
  result.delta_energy = units::DeltaEnergy(delta);
  return result;
}

void BlockSwapProposal::revert(Configuration& cfg) {
  for (auto it = applied_.rbegin(); it != applied_.rend(); ++it)
    cfg.swap(it->first, it->second);
  applied_.clear();
}

}  // namespace dt::mc
