// The DeepThermo global-update proposal: a VAE decoder drives a
// composition-preserving, exactly-correctable Metropolis-Hastings kernel.
//
// Scheme (auxiliary-variable MH; detailed balance holds exactly):
//   1. Draw z ~ N(0, I) fresh each move, independent of the state.
//   2. Decode per-site categorical probabilities p(sigma_i | z).
//   3. Sample the candidate x' by *constrained sequential sampling*: visit
//      sites in order, renormalising the categorical at each site by the
//      remaining species budget so the fixed alloy composition is
//      conserved by construction. Its density q(x|z) is an exact product
//      of the renormalised site probabilities.
//   4. Report log_q_ratio = ln q(x|z) - ln q(x'|z) using the SAME z on
//      both sides. The resulting kernel
//          K(x->x') = Int p(z) q(x'|z) A(x,x',z) dz,
//          A = min(1, [pi(x') q(x|z)] / [pi(x) q(x'|z)])
//      satisfies pi(x) K(x->x') = pi(x') K(x'->x) because the integrand
//      min(pi(x) q(x'|z), pi(x') q(x|z)) is symmetric in (x, x').
//
// The decoder's probabilities are floored (uniform mixing, see
// Vae::decode_probs), so q(x|z) > 0 everywhere: the kernel is irreducible
// on the fixed-composition slice and the log-ratio is bounded.
//
// Decode-ahead, sample-ahead fast path (RNG stream discipline)
// -----------------------------------------------------------
// Decoding one latent at a time pays a batch-1 GEMM per proposal, and
// sampling one candidate at a time pays the serial constrained-sampling
// chain (site i's pick updates the budgets site i+1's weights read) once
// per proposal. This kernel instead decodes K latents into a buffer in
// one GEMM and then draws all K candidates together, 16 to a pass, one
// proposal chain per SIMD lane. So that the buffer is pure CACHE -- no
// behavioural state -- a candidate is a pure function of its proposal
// ordinal t, and three Philox streams split the randomness:
//
//  * Latents: a stream keyed by the physics key XOR fixed tags; ordinal
//    t reads the draws [t*4*latent, (t+1)*4*latent) (normal01 on a
//    32-bit generator consumes 4 draws).
//  * Sampling uniforms: a second derived stream (other fixed tags);
//    ordinal t reads the 2n draws from t*W, site i words 2i and 2i+1,
//    where W = 2n rounded up to whole 4-word Philox blocks (W = 2n for
//    every even n, so the windows are [t*2n, (t+1)*2n)).
//  * Physics: the walker's own stream (the `rng` passed to propose()).
//    This kernel reads only its key; its draws feed local moves and
//    acceptance alone.
//
// The derived keys need no extra wiring and are distinct from every
// physics/exchange stream. Candidate t then depends only on (t, the
// decoder weights, the condition, the composition): the buffer's cache
// key. A weight refresh, a condition change or a new composition
// invalidates it; nothing else does. Consequences, pinned in
// test_vae_proposal and test_decode_plane:
//  * Proposal sequences are bitwise identical for any decode batch size,
//    with or without the decode plane.
//  * The only persistent fast-path state is the served-proposal ordinal
//    `served_`; save_state/load_state round-trip it (plus the stats) and
//    a resumed walker regenerates the buffer on demand, bit-exactly.
//
// z and the uniforms stay independent of the chain state, so the MH
// argument above is untouched. Each candidate is priced inside the
// sampling pass: as a lane picks site i's species, its bonds to the
// sites already picked are counted (byte compares against the
// lane-major candidates, flushed to wide totals), and
// EpiHamiltonian::energy_from_counts -- the combine step total_energy
// uses -- turns a lane's counts into its energy. Every audit_interval
// proposals that energy must equal total_energy of the assigned
// candidate bit for bit. propose() keeps only the state-dependent work:
// the reverse density of the current state, the install and the audit.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "lattice/hamiltonian.hpp"
#include "common/units.hpp"
#include "mc/proposal.hpp"
#include "nn/vae.hpp"

namespace dt::core {

class DecodePlane;

struct VaeProposalStats {
  std::uint64_t proposed = 0;
  std::uint64_t reverted = 0;

  /// Upper bound on acceptance (accepted = proposed - reverted).
  [[nodiscard]] double acceptance_rate() const {
    return proposed == 0
               ? 0.0
               : 1.0 - static_cast<double>(reverted) /
                           static_cast<double>(proposed);
  }
};

/// What the kernel did, for the walker record (vae_decoded,
/// vae_changed_sites). Kept apart from VaeProposalStats so checkpoints
/// do not carry it: the counts restart at zero on resume.
struct VaeWorkCounts {
  std::uint64_t decoded = 0;        ///< latent rows decoded
  std::uint64_t changed_sites = 0;  ///< sites changed, summed over proposals
};

class VaeProposal final : public mc::Proposal {
 public:
  /// Proposal chains sampled together, one per SIMD lane: the sampler
  /// runs one pass per kLanes buffered proposals (or part thereof).
  static constexpr std::size_t kLanes = 16;
  /// Decode-ahead depth: latents decoded per VAE forward pass. 16 keeps
  /// the decoder weight streaming amortised (the buffer is K * n_sites *
  /// n_species floats per walker -- ~0.5 MB at paper scale) and fills
  /// every sampling lane.
  static constexpr std::int32_t kDefaultDecodeBatch = 16;
  /// Default audit cadence (proposals between fused-vs-total energy
  /// checks); denser in debug builds where the audit cost is acceptable.
#ifdef NDEBUG
  static constexpr std::uint64_t kDefaultAuditInterval = 512;
#else
  static constexpr std::uint64_t kDefaultAuditInterval = 64;
#endif

  /// `vae` is shared (read-only during sampling) across walkers; its
  /// n_sites/n_species must match the configurations sampled.
  VaeProposal(const lattice::EpiHamiltonian& hamiltonian,
              std::shared_ptr<nn::Vae> vae);
  ~VaeProposal() override;

  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override;
  void revert(lattice::Configuration& cfg) override;
  [[nodiscard]] std::string name() const override { return "vae-global"; }
  [[nodiscard]] bool is_global() const override { return true; }

  [[nodiscard]] const VaeProposalStats& stats() const { return stats_; }
  [[nodiscard]] const VaeWorkCounts& work() const { return work_; }
  [[nodiscard]] nn::Vae& vae() { return *vae_; }

  /// Conditional models: fix the decoder condition for this walker
  /// (e.g. its window's normalised centre energy). The condition must be
  /// STATE-INDEPENDENT -- constant per walker -- or detailed balance is
  /// lost; that is why it is a set-once property, not a per-move input.
  /// Invalidates any decoded-ahead buffer.
  void set_condition(std::vector<float> condition);

  /// Route decode-ahead refills through the shared cross-walker decode
  /// plane instead of this walker's own decode_probs_batch call, and
  /// prefetch the NEXT buffer while the current one is being served
  /// (double buffering: the refill for buffer B is enqueued as soon as
  /// the first row of buffer A has been served, so by the time A drains
  /// the plane has usually already decoded B in someone's fused batch).
  /// The plane's serving VAE must be bitwise weight-identical to this
  /// walker's (framework contract). Pass nullptr to detach and fall back
  /// to per-walker decoding. Either way the proposal sequence is
  /// unchanged, bitwise (pinned in test_decode_plane).
  void attach_decode_plane(std::shared_ptr<DecodePlane> plane);
  [[nodiscard]] bool plane_attached() const { return plane_ != nullptr; }

  /// Cumulative seconds propose() spent blocked in DecodePlane::wait()
  /// (including time spent serving as leader) and the number of such
  /// waits -- the walker's decode-wait telemetry.
  [[nodiscard]] double decode_wait_seconds() const {
    return decode_wait_seconds_;
  }
  [[nodiscard]] std::uint64_t decode_waits() const { return decode_waits_; }

  /// Drop the decoded-ahead probabilities. MUST be called whenever the
  /// shared VAE's weights change under the kernel (e.g. after a mid-run
  /// ddp_fit refresh): buffered probs decoded from the old weights would
  /// otherwise survive the refresh, making the sampled sequence depend
  /// on K and breaking bit-exact resume. Latent ordinals are untouched.
  /// Also cancels any in-flight plane prefetch and clears the
  /// last_probs() span -- stale pre-invalidation rows must not survive
  /// as "the probs that produced the most recent proposal".
  void invalidate_decode_cache();

  /// Decode-ahead depth K (>= 1; 1 recovers per-proposal decoding).
  /// Changing K never changes the proposal sequence -- see the stream
  /// discipline above. A sampling pass costs the same for any number of
  /// its kLanes slots in use, so K below a multiple of kLanes pays for
  /// idle lanes. Invalidates the current buffer.
  void set_decode_batch(std::int32_t k);
  [[nodiscard]] std::int32_t decode_batch() const { return decode_batch_; }

  /// Audit cadence: every `interval` proposals (0 disables), the
  /// candidate energy counted during sampling must equal total_energy of
  /// the assigned candidate exactly; any difference aborts via DT_CHECK,
  /// naming both energies.
  void set_audit_interval(std::uint64_t interval) {
    audit_interval_ = interval;
  }
  [[nodiscard]] std::uint64_t audit_interval() const {
    return audit_interval_;
  }

  /// Proposals served so far == the next latent ordinal (the fast
  /// path's only persistent state).
  [[nodiscard]] std::uint64_t served() const { return served_; }

  /// Round-trip `served_` + stats; the decode buffer is a cache and is
  /// deliberately NOT saved -- it regenerates bit-exactly on demand.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// Decoder probabilities (n_sites*n_species) that produced the most
  /// recent proposal; empty before the first propose() or after a cache
  /// invalidation. The detailed-balance checker recomputes both
  /// sequential densities from this span and cross-checks the kernel's
  /// own log_q_ratio bookkeeping exactly.
  [[nodiscard]] std::span<const float> last_probs() const;

  /// Exact log-density of `occupancy` under the constrained sequential
  /// process with per-site probabilities `probs` (n_sites*n_species).
  /// Exposed for tests.
  static units::LogWeight sequential_log_density(
      std::span<const float> probs, std::span<const std::uint8_t> occupancy,
      int n_species);

  /// Key of the sampling-uniform stream derived from a walker's physics
  /// key (see the stream discipline above). Exposed for tests.
  static std::array<std::uint32_t, 2> sampling_key(
      const std::array<std::uint32_t, 2>& physics_key);

 private:
  /// Decode the next K latents (ordinals served_ .. served_+K-1) into
  /// the active probability buffer. `physics_key` seeds the derived
  /// latent stream. Marks the sampled candidates stale.
  void refill(const std::array<std::uint32_t, 2>& physics_key);

  /// Draw the candidate, forward log q and energy of every slot of the
  /// active buffer under `composition`, kLanes slots per pass.
  void sample_ahead(const lattice::Lattice& lat,
                    std::span<const std::int32_t> composition,
                    const std::array<std::uint32_t, 2>& physics_key);
  /// One pass: the slots [group * kLanes, (group + 1) * kLanes). kS is
  /// the species count, or 0 to read it at run time.
  template <int kS>
  void sample_group(const lattice::Lattice& lat, std::size_t group,
                    const std::array<std::uint32_t, 2>& key);

  /// Size the sample-ahead scratch for the decode batch.
  void size_lanes();

  const lattice::EpiHamiltonian* hamiltonian_;
  std::shared_ptr<nn::Vae> vae_;
  VaeProposalStats stats_;
  VaeWorkCounts work_;
  std::vector<std::uint8_t> saved_;   // pre-proposal occupancy for revert
  std::vector<float> condition_;      // fixed decoder condition

  // Decode-ahead buffer (cache; reconstructible from served_ alone).
  // Double-buffered: rows are served from probs_buffers_[active_buf_]
  // while the plane prefetch decodes into the other half, so
  // last_probs() stays valid across a refill boundary.
  std::int32_t decode_batch_ = kDefaultDecodeBatch;
  std::uint64_t served_ = 0;          // proposals served == next ordinal
  std::int32_t buffer_pos_ = 0;       // next unserved slot
  std::int32_t buffer_fill_ = 0;      // decoded slots (0 == invalid)
  std::vector<float> z_batch_;        // K * latent scratch
  std::array<std::vector<float>, 2> probs_buffers_;  // K*n_sites*n_species
  int active_buf_ = 0;

  // Cross-walker decode plane (optional; see attach_decode_plane).
  std::shared_ptr<DecodePlane> plane_;
  int plane_slot_ = -1;
  bool prefetch_pending_ = false;     // next buffer submitted to the plane
  std::uint64_t prefetch_first_ = 0;  // first ordinal of that buffer
  double decode_wait_seconds_ = 0.0;
  std::uint64_t decode_waits_ = 0;

  // Sampled candidates (cache, like the probabilities): one pass per
  // kLanes slots. Valid while sampled_composition_ equals the state's.
  std::vector<std::uint8_t> lanes_;        // [group][site][lane] species
  std::vector<double> lane_energy_;        // per slot
  std::vector<double> lane_log_q_;         // per slot: forward log q
  std::vector<std::int32_t> sampled_composition_;  // empty == stale

  // Sample-ahead and propose() scratch, sized once.
  std::vector<double> uniforms_;      // [chunk site][lane]
  std::vector<std::uint8_t> pair8_;   // [shell][a][b][lane] byte counts
  std::vector<std::uint32_t> pair32_; // [shell][a][b][lane] totals
  std::vector<std::uint64_t> lane_counts_;  // one lane's [shell][a][b]
  std::vector<std::uint8_t> candidate_;

  std::uint64_t audit_interval_ = kDefaultAuditInterval;
};

}  // namespace dt::core
