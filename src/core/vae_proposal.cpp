#include "core/vae_proposal.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/decode_plane.hpp"

namespace dt::core {

using lattice::Configuration;
using lattice::Species;

namespace {

/// XOR tags deriving the latent-stream key from the physics-stream key.
/// Any fixed non-zero constants work; these keep the derived key distinct
/// from every physics/exchange stream of the same run.
constexpr std::uint32_t kLatentKeyTag0 = 0x9E3779B9u;
constexpr std::uint32_t kLatentKeyTag1 = 0x7F4A7C15u;

/// normal01 on a 32-bit Philox consumes exactly 2 uniforms = 4 draws.
constexpr std::uint64_t kDrawsPerNormal = 4;

constexpr std::uint32_t kStateMagic = 0x31465056u;  // "VPF1"

/// The derived latent-stream key for a walker's physics-stream key --
/// shared by the local refill path and every plane request, so the plane
/// regenerates exactly the z sequence the walker itself would draw.
std::array<std::uint32_t, 2> latent_key_of(
    const std::array<std::uint32_t, 2>& physics_key) {
  return {physics_key[0] ^ kLatentKeyTag0, physics_key[1] ^ kLatentKeyTag1};
}

}  // namespace

VaeProposal::VaeProposal(const lattice::EpiHamiltonian& hamiltonian,
                         std::shared_ptr<nn::Vae> vae)
    : hamiltonian_(&hamiltonian), vae_(std::move(vae)) {
  DT_CHECK(vae_ != nullptr);
  remaining_.resize(static_cast<std::size_t>(vae_->options().n_species));
  candidate_.resize(static_cast<std::size_t>(vae_->options().n_sites));
}

VaeProposal::~VaeProposal() {
  if (plane_ != nullptr) {
    if (prefetch_pending_) plane_->cancel(plane_slot_);
    plane_->detach(plane_slot_);
  }
}

void VaeProposal::attach_decode_plane(std::shared_ptr<DecodePlane> plane) {
  if (plane_ != nullptr) {
    if (prefetch_pending_) {
      plane_->cancel(plane_slot_);
      prefetch_pending_ = false;
    }
    plane_->detach(plane_slot_);
    plane_slot_ = -1;
  }
  plane_ = std::move(plane);
  if (plane_ != nullptr) {
    const auto& mine = vae_->options();
    const auto& theirs = plane_->vae().options();
    DT_CHECK_MSG(mine.n_sites == theirs.n_sites &&
                     mine.n_species == theirs.n_species &&
                     mine.latent == theirs.latent &&
                     mine.hidden == theirs.hidden &&
                     mine.condition_dim == theirs.condition_dim,
                 "attach_decode_plane: plane VAE geometry differs from the "
                 "walker's");
    plane_slot_ = plane_->attach();
  }
  // Buffered rows were decoded by the other path; by the weight-identity
  // contract they are bitwise equal, but dropping them keeps the cache's
  // provenance single-sourced (and they regenerate bit-exactly anyway).
  invalidate_decode_cache();
}

void VaeProposal::invalidate_decode_cache() {
  if (plane_ != nullptr && prefetch_pending_) {
    plane_->cancel(plane_slot_);
    prefetch_pending_ = false;
  }
  // Clears the last_probs() span as well (it is derived from
  // buffer_pos_): after an invalidation the "probs that produced the
  // most recent proposal" are gone by definition -- handing out stale
  // pre-invalidation rows would let a detailed-balance cross-check read
  // probabilities from weights that no longer exist.
  buffer_pos_ = buffer_fill_ = 0;
}

units::LogWeight VaeProposal::sequential_log_density_scratch(
    std::span<const float> probs, std::span<const std::uint8_t> occupancy,
    int n_species, std::vector<double>& remaining) {
  const auto s = static_cast<std::size_t>(n_species);
  const std::size_t n = occupancy.size();
  DT_CHECK(probs.size() == n * s);

  // Remaining species budget follows the evaluated configuration.
  remaining.assign(s, 0.0);
  for (std::uint8_t sp : occupancy) remaining[sp] += 1.0;

  // One log() per ~900 sites instead of per site: accumulate the
  // product of per-site ratios (each in (0, 1]) and flush to log space
  // before it can underflow. Exact same quantity, far fewer libm calls.
  double log_q = 0.0;
  double run = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* block = &probs[i * s];
    double norm = 0.0;
    for (std::size_t k = 0; k < s; ++k)
      norm += static_cast<double>(block[k]) * remaining[k];
    const auto chosen = static_cast<std::size_t>(occupancy[i]);
    const double w =
        static_cast<double>(block[chosen]) * remaining[chosen];
    DT_CHECK_MSG(w > 0.0 && norm > 0.0,
                 "sequential density: zero weight at site " << i);
    run *= w / norm;
    if (run < 1e-270) {
      log_q += std::log(run);
      run = 1.0;
    }
    remaining[chosen] -= 1.0;
  }
  return units::LogWeight(log_q + std::log(run));
}

units::LogWeight VaeProposal::sequential_log_density(
    std::span<const float> probs, std::span<const std::uint8_t> occupancy,
    int n_species) {
  std::vector<double> remaining(static_cast<std::size_t>(n_species), 0.0);
  return sequential_log_density_scratch(probs, occupancy, n_species,
                                        remaining);
}

std::span<const float> VaeProposal::last_probs() const {
  if (buffer_pos_ <= 0 || buffer_pos_ > buffer_fill_) return {};
  const auto slot_size =
      static_cast<std::size_t>(vae_->options().n_sites) *
      static_cast<std::size_t>(vae_->options().n_species);
  return {&probs_buffers_[static_cast<std::size_t>(active_buf_)]
                         [static_cast<std::size_t>(buffer_pos_ - 1) *
                          slot_size],
          slot_size};
}

void VaeProposal::refill(const std::array<std::uint32_t, 2>& physics_key) {
  const auto latent = static_cast<std::size_t>(vae_->latent_dim());
  const auto k = static_cast<std::size_t>(decode_batch_);

  if (plane_ != nullptr) {
    // Plane path: decode the next K rows into the INACTIVE buffer and
    // swap, so the just-drained active buffer (which still backs
    // last_probs()) is never overwritten mid-hand-out. Usually the
    // request is already in flight (prefetched when this buffer's first
    // row was served) and wait() just collects it.
    auto& next = probs_buffers_[static_cast<std::size_t>(1 - active_buf_)];
    if (!(prefetch_pending_ && prefetch_first_ == served_)) {
      // No usable prefetch (first refill, or the cache was invalidated
      // since): submit synchronously. Any stale prefetch was already
      // cancelled by invalidate_decode_cache().
      DT_CHECK(!prefetch_pending_);
      next.resize(k * static_cast<std::size_t>(vae_->input_dim()));
      plane_->submit(plane_slot_, latent_key_of(physics_key),
                     served_ * kDrawsPerNormal * latent, decode_batch_,
                     condition_, next.data());
    }
    decode_wait_seconds_ += plane_->wait(plane_slot_);
    ++decode_waits_;
    prefetch_pending_ = false;
    active_buf_ = 1 - active_buf_;
  } else {
    // Local path: latent ordinal t occupies the absolute draw window
    // [t * 4*latent, (t+1) * 4*latent) of the derived stream, so the z
    // sequence is a pure function of t -- independent of the batch size
    // and of where checkpoints fell (see the header's stream
    // discipline). The plane regenerates exactly these draws from
    // (key, first_draw), which is why both paths are bitwise equal.
    mc::Rng latent_rng;
    latent_rng.set_key(latent_key_of(physics_key));
    latent_rng.seek(served_ * kDrawsPerNormal * latent);

    z_batch_.resize(k * latent);
    for (auto& v : z_batch_) v = static_cast<float>(normal01(latent_rng));
    probs_buffers_[static_cast<std::size_t>(active_buf_)] =
        vae_->decode_probs_batch(
            z_batch_, static_cast<std::int64_t>(decode_batch_), condition_);
  }
  buffer_fill_ = decode_batch_;
  buffer_pos_ = 0;
  work_.decoded += static_cast<std::uint64_t>(decode_batch_);
}

mc::ProposalResult VaeProposal::propose(Configuration& cfg,
                                        units::Energy current_energy,
                                        mc::Rng& rng) {
  const auto n = static_cast<std::size_t>(cfg.num_sites());
  const auto s = static_cast<std::size_t>(cfg.n_species());
  DT_CHECK(static_cast<std::int64_t>(n) == vae_->options().n_sites);
  DT_CHECK(static_cast<int>(s) == vae_->options().n_species);

  // 1.+2. Per-site categoricals for this proposal's latent, from the
  // decode-ahead buffer (state-independent; latents ride a derived
  // stream, so the physics stream below only sees sampling uniforms).
  if (buffer_pos_ >= buffer_fill_) refill(rng.key());
  const float* probs =
      &probs_buffers_[static_cast<std::size_t>(active_buf_)]
                     [static_cast<std::size_t>(buffer_pos_) * n * s];

  // Save the current state for revert and for the reverse density.
  const auto occ = cfg.occupancy();
  saved_.assign(occ.begin(), occ.end());

  // 3. Constrained sequential sampling of the candidate (n uniforms from
  // the physics stream -- the ONLY draws this kernel takes from it). All
  // 2n words are filled in one batch; site i reads words 2i, 2i+1, the
  // same draws uniform01(rng) would take one site at a time.
  uniform_words_.resize(2 * n);
  rng.fill(uniform_words_);
  remaining_.assign(s, 0.0);
  for (std::uint8_t sp : saved_) remaining_[sp] += 1.0;

  // The candidate's bonds are counted as it is sampled: once site i's
  // species is picked, its bonds to the already-picked sites nb < i are
  // final. Unpicked sites hold kUnset, which the counter skips; site i
  // is counted before its own species is written.
  lattice::PairCounter bonds(cfg.lattice(), cfg.n_species(),
                             hamiltonian_->n_shells());
  std::fill(candidate_.begin(), candidate_.end(),
            lattice::PairCounter::kUnset);
  Species* cand = candidate_.data();

  std::size_t n_changed = 0;
  double log_q_fwd = 0.0;
  double log_q_rev = 0.0;
  double run_fwd = 1.0;  // product of ratios, flushed before underflow
  if (s == 4) {
    // Quaternary fast path: unrolled weights, a branchless
    // cumulative-interval pick (the chosen species is random, so a
    // scan-with-break mispredicts on most sites; three flag adds do
    // not), and the reverse density of the CURRENT state fused into the
    // same pass -- both sequential processes start from the same species
    // counts and read the same probs block per site.
    double rem_f[4];  // forward budget (follows the candidate)
    double rem_r[4];  // reverse budget (follows the saved state)
    for (std::size_t k = 0; k < 4; ++k) rem_f[k] = rem_r[k] = remaining_[k];
    double run_rev = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float* block = &probs[i * 4];
      const double w0 = static_cast<double>(block[0]) * rem_f[0];
      const double w1 = static_cast<double>(block[1]) * rem_f[1];
      const double w2 = static_cast<double>(block[2]) * rem_f[2];
      const double w3 = static_cast<double>(block[3]) * rem_f[3];
      const double norm = (w0 + w1) + (w2 + w3);
      // norm > 0: probs are floored and sum(remaining) = n - i > 0.
      const double u =
          uniform01(uniform_words_[2 * i], uniform_words_[2 * i + 1]) * norm;
      const double c1 = w0;
      const double c2 = w0 + w1;
      const double c3 = c2 + w2;
      std::size_t chosen = static_cast<std::size_t>(u >= c1) +
                           static_cast<std::size_t>(u >= c2) +
                           static_cast<std::size_t>(u >= c3);
      // Guard: a boundary tie can land on an exhausted species.
      while (rem_f[chosen] <= 0.0) {
        DT_CHECK(chosen > 0);
        --chosen;
      }
      const double wsel[4] = {w0, w1, w2, w3};
      run_fwd *= wsel[chosen] / norm;
      if (run_fwd < 1e-270) {
        log_q_fwd += std::log(run_fwd);
        run_fwd = 1.0;
      }
      rem_f[chosen] -= 1.0;

      // Reverse: probability of re-drawing the saved species here.
      const auto a = static_cast<std::size_t>(saved_[i]);
      n_changed += chosen != a ? 1u : 0u;
      const double norm_r = static_cast<double>(block[0]) * rem_r[0] +
                            static_cast<double>(block[1]) * rem_r[1] +
                            static_cast<double>(block[2]) * rem_r[2] +
                            static_cast<double>(block[3]) * rem_r[3];
      run_rev *= static_cast<double>(block[a]) * rem_r[a] / norm_r;
      if (run_rev < 1e-270) {
        log_q_rev += std::log(run_rev);
        run_rev = 1.0;
      }
      rem_r[a] -= 1.0;

      // Counted last: the budget updates the next site waits on come
      // first in program order, so the counting fills idle ports.
      bonds.add_site(static_cast<std::int32_t>(i),
                     static_cast<Species>(chosen), cand);
      cand[i] = static_cast<Species>(chosen);
    }
    log_q_rev += std::log(run_rev);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const float* block = &probs[i * s];
      double norm = 0.0;
      for (std::size_t k = 0; k < s; ++k)
        norm += static_cast<double>(block[k]) * remaining_[k];
      // norm > 0: probabilities are floored and sum(remaining) = n - i > 0.
      double u =
          uniform01(uniform_words_[2 * i], uniform_words_[2 * i + 1]) * norm;
      std::size_t chosen = s - 1;
      for (std::size_t k = 0; k < s; ++k) {
        const double w = static_cast<double>(block[k]) * remaining_[k];
        if (u < w) {
          chosen = k;
          break;
        }
        u -= w;
      }
      // Guard: the fallback (s-1) must have budget; scan back if not.
      while (remaining_[chosen] <= 0.0) {
        DT_CHECK(chosen > 0);
        --chosen;
      }
      const double w =
          static_cast<double>(block[chosen]) * remaining_[chosen];
      run_fwd *= w / norm;
      if (run_fwd < 1e-270) {
        log_q_fwd += std::log(run_fwd);
        run_fwd = 1.0;
      }
      n_changed += chosen != static_cast<std::size_t>(saved_[i]) ? 1u : 0u;
      remaining_[chosen] -= 1.0;
      bonds.add_site(static_cast<std::int32_t>(i),
                     static_cast<Species>(chosen), cand);
      cand[i] = static_cast<Species>(chosen);
    }
    // 4. Reverse density of the current state under the same z (the
    // s == 4 branch computes it fused into the sampling pass above).
    log_q_rev = sequential_log_density_scratch(
                    std::span<const float>(probs, n * s), saved_,
                    cfg.n_species(), remaining_)
                    .value();
  }
  log_q_fwd += std::log(run_fwd);

  // 5. Energy: the candidate's counts priced by the one energy
  // definition. The audit recounts the assigned configuration from
  // scratch; integer counts make the two agree bit for bit.
  const double energy = hamiltonian_->energy_from_counts(bonds.counts());
  cfg.assign(candidate_);
  if (audit_interval_ != 0 && (served_ + 1) % audit_interval_ == 0) {
    const double full = hamiltonian_->total_energy(cfg);
    DT_CHECK_MSG(full == energy, "fused energy audit failed: counted "
                                     << std::setprecision(17) << energy
                                     << " != total_energy " << full);
  }

  ++buffer_pos_;
  ++served_;
  ++stats_.proposed;
  work_.changed_sites += n_changed;

  // Double-buffered prefetch: the first served row pinned last_probs()
  // into the active buffer, so the inactive half is now free -- enqueue
  // its refill (ordinals [first_of_active + K, first_of_active + 2K))
  // while the remaining K-1 rows are served. Not submitted at pos == 0
  // because the pre-swap buffer was still handing out its last row then.
  if (plane_ != nullptr && buffer_pos_ == 1 && !prefetch_pending_) {
    const auto latent = static_cast<std::size_t>(vae_->latent_dim());
    auto& next = probs_buffers_[static_cast<std::size_t>(1 - active_buf_)];
    next.resize(static_cast<std::size_t>(decode_batch_) *
                static_cast<std::size_t>(vae_->input_dim()));
    prefetch_first_ = served_ - 1 + static_cast<std::uint64_t>(buffer_fill_);
    plane_->submit(plane_slot_, latent_key_of(rng.key()),
                   prefetch_first_ * kDrawsPerNormal * latent, decode_batch_,
                   condition_, next.data());
    prefetch_pending_ = true;
  }

  mc::ProposalResult result;
  result.valid = true;
  result.delta_energy = units::DeltaEnergy(energy - current_energy.value());
  result.log_q_ratio = units::LogWeight(log_q_rev - log_q_fwd);
  return result;
}

void VaeProposal::set_condition(std::vector<float> condition) {
  DT_CHECK_MSG(static_cast<std::int32_t>(condition.size()) ==
                   vae_->options().condition_dim,
               "condition size must equal the VAE's condition_dim");
  // Cancel first: an in-flight plane prefetch reads condition_ by
  // pointer, so it must drain before the vector is reassigned.
  invalidate_decode_cache();
  condition_ = std::move(condition);
}

void VaeProposal::set_decode_batch(std::int32_t k) {
  DT_CHECK_MSG(k >= 1, "decode batch must be >= 1");
  invalidate_decode_cache();  // also cancels a prefetch with the old K
  decode_batch_ = k;
}

void VaeProposal::save_state(std::ostream& os) const {
  write_pod(os, kStateMagic);
  write_pod(os, served_);
  write_pod(os, stats_);
}

void VaeProposal::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint32_t>(is) == kStateMagic,
               "VaeProposal::load_state: bad magic");
  served_ = read_pod<std::uint64_t>(is);
  stats_ = read_pod<VaeProposalStats>(is);
  invalidate_decode_cache();  // cache; regenerated on demand
}

void VaeProposal::revert(Configuration& cfg) {
  DT_CHECK(saved_.size() == static_cast<std::size_t>(cfg.num_sites()));
  cfg.assign(saved_);
  ++stats_.reverted;
}

}  // namespace dt::core
