#include "validate/balance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "lattice/configuration.hpp"
#include "validate/stats.hpp"

namespace dt::validate {

std::string BalanceReport::summary() const {
  return strformat(
      "detailed balance: %s | states=%zu proposals=%llu "
      "worst z=%.3g at pair (%zu,%zu) | pairs=%zu invalid=%llu "
      "self=%llu off-space=%llu max dE err=%.3g",
      pass ? "PASS" : "FAIL", n_states,
      static_cast<unsigned long long>(n_proposals), worst_z, worst_i,
      worst_j, n_pairs, static_cast<unsigned long long>(n_invalid),
      static_cast<unsigned long long>(n_self),
      static_cast<unsigned long long>(n_off_space), max_delta_energy_error);
}

BalanceReport check_detailed_balance(
    mc::Proposal& proposal, const lattice::EpiHamiltonian& hamiltonian,
    const lattice::Lattice& lat, std::span<const std::int32_t> composition,
    mc::Rng& rng, const BalanceOptions& options,
    const ProposalAudit& audit) {
  DT_CHECK_MSG(options.temperature > 0.0, "balance: temperature must be > 0");
  DT_CHECK_MSG(options.proposals_per_state > 0,
               "balance: need at least one proposal per state");
  const auto n = static_cast<std::size_t>(lat.num_sites());
  DT_CHECK_MSG(composition.size() ==
                   static_cast<std::size_t>(hamiltonian.n_species()),
               "balance: composition size != n_species");
  std::int64_t sum = 0;
  for (const auto c : composition) {
    DT_CHECK_MSG(c >= 0, "balance: negative composition count");
    sum += c;
  }
  DT_CHECK_MSG(sum == lat.num_sites(),
               "balance: composition does not fill the lattice");

  // Enumerate the fixed-composition space and index it for candidate
  // lookup.
  std::vector<lattice::Species> occ;
  occ.reserve(n);
  for (std::size_t s = 0; s < composition.size(); ++s)
    occ.insert(occ.end(), static_cast<std::size_t>(composition[s]),
               static_cast<lattice::Species>(s));

  std::vector<std::vector<lattice::Species>> states;
  std::unordered_map<std::string, std::size_t> index;
  do {
    DT_CHECK_MSG(states.size() < options.max_states,
                 "balance: state space exceeds max_states="
                     << options.max_states);
    index.emplace(
        std::string(reinterpret_cast<const char*>(occ.data()), occ.size()),
        states.size());
    states.push_back(occ);
  } while (std::next_permutation(occ.begin(), occ.end()));
  const std::size_t n_states = states.size();

  lattice::Configuration cfg(lat, hamiltonian.n_species());
  std::vector<double> energy(n_states, 0.0);
  for (std::size_t i = 0; i < n_states; ++i) {
    cfg.assign(states[i]);
    energy[i] = hamiltonian.total_energy(cfg);
  }

  // Canonical target, normalised with an energy shift for stability.
  const units::Beta beta =
      units::to_beta(units::Temperature(options.temperature));
  const double e_min = *std::min_element(energy.begin(), energy.end());
  std::vector<double> pi(n_states, 0.0);
  KahanSum z_sum;
  for (std::size_t i = 0; i < n_states; ++i) {
    pi[i] = std::exp(
        (-(beta * units::DeltaEnergy(energy[i] - e_min))).value());
    z_sum.add(pi[i]);
  }
  for (auto& p : pi) p /= z_sum.value();

  // Empirical flow: K[i*S+j] accumulates the acceptance expectation of
  // each proposed i -> j move; K2 its square for the variance.
  std::vector<double> flow(n_states * n_states, 0.0);
  std::vector<double> flow2(n_states * n_states, 0.0);
  std::vector<std::uint32_t> tries(n_states * n_states, 0);

  BalanceReport report;
  report.n_states = n_states;
  const std::uint64_t m = options.proposals_per_state;
  for (std::size_t i = 0; i < n_states; ++i) {
    cfg.assign(states[i]);
    for (std::uint64_t t = 0; t < m; ++t) {
      const auto res =
          proposal.propose(cfg, units::Energy(energy[i]), rng);
      ++report.n_proposals;
      if (!res.valid) {
        // Contract (mirrors the samplers): an invalid result proposed no
        // move and needs no revert.
        ++report.n_invalid;
        continue;
      }
      const auto after = cfg.occupancy();
      const auto it = index.find(std::string(
          reinterpret_cast<const char*>(after.data()), after.size()));
      if (it == index.end()) {
        // Composition leak -- the candidate left the canonical slice.
        ++report.n_off_space;
        proposal.revert(cfg);
        continue;
      }
      const std::size_t j = it->second;
      const double de_err =
          std::abs(res.delta_energy.value() - (energy[j] - energy[i])) /
          std::max(1.0, std::abs(energy[i]));
      report.max_delta_energy_error =
          std::max(report.max_delta_energy_error, de_err);
      if (audit) audit(res, states[i], after);

      const units::LogWeight log_alpha =
          -(beta * res.delta_energy) + res.log_q_ratio;
      const double alpha =
          std::min(1.0, units::exp(log_alpha).value());
      flow[i * n_states + j] += alpha;
      flow2[i * n_states + j] += alpha * alpha;
      ++tries[i * n_states + j];
      if (j == i) ++report.n_self;

      proposal.revert(cfg);
      const auto restored = cfg.occupancy();
      DT_CHECK_MSG(std::equal(restored.begin(), restored.end(),
                              states[i].begin(), states[i].end()),
                   "balance: revert() did not restore state " << i);
    }
  }

  // Worst pairwise violation of pi_i K_ij == pi_j K_ji, in sigmas of the
  // flow estimate.
  const auto md = static_cast<double>(m);
  for (std::size_t i = 0; i < n_states; ++i)
    for (std::size_t j = i + 1; j < n_states; ++j) {
      if (tries[i * n_states + j] < options.min_samples_per_direction ||
          tries[j * n_states + i] < options.min_samples_per_direction)
        continue;
      const double fij = flow[i * n_states + j];
      const double fji = flow[j * n_states + i];
      ++report.n_pairs;
      const double kij = fij / md;
      const double kji = fji / md;
      const double var_ij =
          std::max(0.0, flow2[i * n_states + j] / md - kij * kij) / md;
      const double var_ji =
          std::max(0.0, flow2[j * n_states + i] / md - kji * kji) / md;
      const double sigma = std::sqrt(pi[i] * pi[i] * var_ij +
                                     pi[j] * pi[j] * var_ji);
      const double z = z_score(pi[i] * kij, pi[j] * kji, sigma);
      if (z > report.worst_z) {
        report.worst_z = z;
        report.worst_i = i;
        report.worst_j = j;
      }
    }

  report.pass = report.worst_z <= options.k_sigma &&
                report.n_off_space == 0 &&
                report.max_delta_energy_error <= options.delta_energy_tol;
  return report;
}

}  // namespace dt::validate
