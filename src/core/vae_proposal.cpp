#include "core/vae_proposal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/decode_plane.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace dt::core {

using lattice::Configuration;

namespace {

/// XOR tags deriving the latent-stream key from the physics-stream key.
/// Any fixed non-zero constants work; these keep the derived key distinct
/// from every physics/exchange stream of the same run.
constexpr std::uint32_t kLatentKeyTag0 = 0x9E3779B9u;
constexpr std::uint32_t kLatentKeyTag1 = 0x7F4A7C15u;

/// XOR tags deriving the sampling-uniform stream key from the physics
/// key; fixed once, distinct from the latent tags.
constexpr std::uint32_t kSampleKeyTag0 = 0x85EBCA6Bu;
constexpr std::uint32_t kSampleKeyTag1 = 0xC2B2AE35u;

/// normal01 on a 32-bit Philox consumes exactly 2 uniforms = 4 draws.
constexpr std::uint64_t kDrawsPerNormal = 4;

/// Sites whose sampling uniforms are drawn at a time (even).
constexpr std::size_t kChunk = 32;

constexpr std::uint32_t kStateMagic = 0x31465056u;  // "VPF1"

/// The derived latent-stream key for a walker's physics-stream key --
/// shared by the local refill path and every plane request, so the plane
/// regenerates exactly the z sequence the walker itself would draw.
std::array<std::uint32_t, 2> latent_key_of(
    const std::array<std::uint32_t, 2>& physics_key) {
  return {physics_key[0] ^ kLatentKeyTag0, physics_key[1] ^ kLatentKeyTag1};
}

// Proposal lanes in GCC vector extensions (as in tensor/gemm.cpp). A
// lane set of doubles spans kParts native registers, handled as
// explicit parts so every compare and select stays one instruction;
// a byte-counter register holds kGroup species of all lanes.
constexpr std::size_t kLanes = VaeProposal::kLanes;
#if defined(__AVX512F__)
constexpr std::size_t kWidth = 64;
#elif defined(__AVX__)
constexpr std::size_t kWidth = 32;
#else
constexpr std::size_t kWidth = 16;
#endif
constexpr std::size_t kPer = kWidth / sizeof(double);  // lanes per part
constexpr std::size_t kParts = kLanes / kPer;
constexpr std::size_t kGroup = kWidth / kLanes;  // species per counter
using vd = double __attribute__((vector_size(kWidth)));
using vm = std::int64_t __attribute__((vector_size(kWidth)));
using vu = std::uint64_t __attribute__((vector_size(kWidth)));
using vf = float __attribute__((vector_size(kWidth / 2)));
using vp = std::uint8_t __attribute__((vector_size(kPer)));
using vb = std::uint8_t __attribute__((vector_size(kLanes)));
using vq = std::uint8_t __attribute__((vector_size(kWidth)));
using vw = std::uint32_t __attribute__((vector_size(kWidth)));
using vc = std::uint8_t __attribute__((vector_size(kWidth / 4)));

template <class V, class T>
inline V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T, class V>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

template <class V, class T, std::size_t... L>
inline V splat(T x, std::index_sequence<L...>) {
  return V{((void)L, x)...};
}
template <class V, class T>
inline V splat(T x) {
  return splat<V>(x, std::make_index_sequence<sizeof(V) / sizeof(T)>{});
}

/// Counter-register element e covers lane e % kLanes of species
/// first + e / kLanes.
template <std::size_t... E>
inline vq group_ids(std::size_t first, std::index_sequence<E...>) {
  return vq{static_cast<std::uint8_t>(first + E / kLanes)...};
}
template <std::size_t... E>
constexpr vq spread_mask(std::index_sequence<E...>) {
  return vq{static_cast<std::uint8_t>(E % kLanes)...};
}
constexpr vq kSpread = spread_mask(std::make_index_sequence<kWidth>{});

/// The kLanes bytes at p repeated across a counter register (reads
/// kWidth bytes from p).
inline vq spread(const std::uint8_t* p) {
  return __builtin_shuffle(load<vq>(p), kSpread);
}

/// Per-lane widenings. The empty asm keeps GCC from folding the load
/// feeding a byte widening into one scalar load per byte.
inline vw widen(vc x) {
  asm("" : "+v"(x));
  return __builtin_convertvector(x, vw);
}
inline vd widen(const vf& x) {
#if defined(__AVX512F__)
  return reinterpret_cast<vd>(
      _mm512_maskz_cvtps_pd(0xFF, reinterpret_cast<__m256>(x)));
#else
  return __builtin_convertvector(x, vd);
#endif
}

inline bool any(const vm& m) {
  const vp bytes = __builtin_convertvector(m, vp);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &bytes, sizeof bytes);
  return bits != 0;
}

/// The low 32 bits of every lane of a times b, as 64-bit products.
inline vu mul_lo32(const vu& a, std::uint32_t b) {
#if defined(__AVX512F__)
  // The maskz forms take a zero pass-through, not an undefined one.
  return reinterpret_cast<vu>(_mm512_maskz_mul_epu32(
      0xFF, reinterpret_cast<__m512i>(a), _mm512_set1_epi64(b)));
#elif defined(__AVX2__)
  return reinterpret_cast<vu>(_mm256_mul_epu32(
      reinterpret_cast<__m256i>(a), _mm256_set1_epi64x(b)));
#else
  return (a & std::uint64_t{0xFFFFFFFFu}) * std::uint64_t{b};
#endif
}

/// Philox4x32::block(ctr[l], 0) for kPer lanes at once, bit for bit:
/// word w of lane l's block lands in out[w][l]. Each lane holds a word
/// in the low half of a 64-bit slot. The round products read only low
/// halves (mul_lo32 is one widening multiply), so the high halves may
/// hold garbage until the final mask.
inline void philox_lanes(const vu& ctr, const std::array<std::uint32_t, 2>& key,
                         vu (&out)[4]) {
  vu c0 = ctr;
  vu c1 = ctr >> 32;
  vu c2 = vu{};
  vu c3 = vu{};
  std::uint64_t k0 = key[0];
  std::uint64_t k1 = key[1];
  for (int round = 0; round < Philox4x32::kRounds; ++round) {
    const vu p0 = mul_lo32(c0, Philox4x32::kMul0);
    const vu p1 = mul_lo32(c2, Philox4x32::kMul1);
    c0 = (p1 >> 32) ^ c1 ^ k0;
    c1 = p1;
    c2 = (p0 >> 32) ^ c3 ^ k1;
    c3 = p0;
    k0 = (k0 + Philox4x32::kWeyl0) & 0xFFFFFFFFu;
    k1 = (k1 + Philox4x32::kWeyl1) & 0xFFFFFFFFu;
  }
  const vu lo = splat<vu>(std::uint64_t{0xFFFFFFFFu});
  out[0] = c0 & lo;
  out[1] = c1 & lo;
  out[2] = c2 & lo;
  out[3] = c3 & lo;
}

/// uniform01(hi, lo) per lane.
inline vd uniform_lanes(const vu& hi, const vu& lo) {
  return __builtin_convertvector(((hi << 32) | lo) >> 11, vd) *
         splat<vd>(0x1.0p-53);
}

/// Exact log-density of `occupancy` under the constrained sequential
/// process over `probs`; `counts` is its composition, the budget the
/// process starts from. kS is the species count, or 0 to take
/// counts.size().
template <int kS>
double sequential_log_q(const float* probs,
                        std::span<const std::uint8_t> occupancy,
                        std::span<const std::int32_t> counts) {
  constexpr std::size_t kMaxS =
      kS > 0 ? static_cast<std::size_t>(kS)
             : static_cast<std::size_t>(lattice::PairCounter::kMaxSpecies);
  const std::size_t s = kS > 0 ? kMaxS : counts.size();
  double rem[kMaxS];
  for (std::size_t k = 0; k < s; ++k) rem[k] = static_cast<double>(counts[k]);

  // One log() per ~900 sites instead of per site: accumulate the
  // product of per-site ratios (each in (0, 1]) and flush to log space
  // before it can underflow.
  double log_q = 0.0;
  double run = 1.0;
  for (std::size_t i = 0; i < occupancy.size(); ++i) {
    const float* block = probs + i * s;
    const std::size_t a = occupancy[i];
    double norm = 0.0;
    for (std::size_t k = 0; k < s; ++k)
      norm += static_cast<double>(block[k]) * rem[k];
    const double wa = static_cast<double>(block[a]) * rem[a];
    DT_CHECK_MSG(wa > 0.0, "sequential density: zero weight at site " << i);
    run *= wa / norm;
    if (run < 1e-270) {
      log_q += std::log(run);
      run = 1.0;
    }
    rem[a] -= 1.0;
  }
  return log_q + std::log(run);
}

}  // namespace

VaeProposal::VaeProposal(const lattice::EpiHamiltonian& hamiltonian,
                         std::shared_ptr<nn::Vae> vae)
    : hamiltonian_(&hamiltonian), vae_(std::move(vae)) {
  DT_CHECK(vae_ != nullptr);
  const auto n = static_cast<std::size_t>(vae_->options().n_sites);
  const auto s = static_cast<std::size_t>(vae_->options().n_species);
  // Budgets times floats stay exact in a double (p * rem has at most
  // 24 + 29 significant bits), so no FMA contraction can move a pick.
  DT_CHECK_MSG(n < (std::size_t{1} << 29), "VaeProposal: too many sites");
  const std::size_t padded = (s + kGroup - 1) / kGroup * kGroup;
  const auto shells = static_cast<std::size_t>(hamiltonian_->n_shells());
  candidate_.resize(n);
  uniforms_.resize(kChunk * kLanes);
  pair8_.resize(shells * s * padded * kLanes);
  pair32_.resize(shells * s * padded * kLanes);
  lane_counts_.resize(shells * s * s);
  size_lanes();
}

void VaeProposal::size_lanes() {
  const auto k = static_cast<std::size_t>(decode_batch_);
  const std::size_t groups = (k + kLanes - 1) / kLanes;
  // Counter loads read kWidth bytes from a site's kLanes.
  lanes_.resize(groups * static_cast<std::size_t>(vae_->options().n_sites) *
                    kLanes +
                kWidth - kLanes);
  lane_energy_.resize(k);
  lane_log_q_.resize(k);
}

std::array<std::uint32_t, 2> VaeProposal::sampling_key(
    const std::array<std::uint32_t, 2>& physics_key) {
  return {physics_key[0] ^ kSampleKeyTag0, physics_key[1] ^ kSampleKeyTag1};
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

units::LogWeight VaeProposal::sequential_log_density(
    std::span<const float> probs, std::span<const std::uint8_t> occupancy,
    int n_species) {
  const auto s = static_cast<std::size_t>(n_species);
  DT_CHECK(probs.size() == occupancy.size() * s);
  std::vector<std::int32_t> counts(s, 0);
  for (const std::uint8_t sp : occupancy) {
    DT_CHECK_MSG(sp < s, "sequential density: species " << int{sp}
                                                         << " out of range");
    ++counts[sp];
  }
  return units::LogWeight(
      s == 4 ? sequential_log_q<4>(probs.data(), occupancy, counts)
             : sequential_log_q<0>(probs.data(), occupancy, counts));
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
  sampled_composition_.clear();
  work_.decoded += static_cast<std::uint64_t>(decode_batch_);
}

void VaeProposal::sample_ahead(
    const lattice::Lattice& lat, std::span<const std::int32_t> composition,
    const std::array<std::uint32_t, 2>& physics_key) {
  DT_CHECK_MSG(hamiltonian_->n_shells() <= lat.num_shells(),
               "Hamiltonian has more shells than the lattice resolves");
  sampled_composition_.assign(composition.begin(), composition.end());
  const auto key = sampling_key(physics_key);
  const std::size_t groups =
      (static_cast<std::size_t>(buffer_fill_) + kLanes - 1) / kLanes;
  for (std::size_t g = 0; g < groups; ++g) {
    if (vae_->options().n_species == 4) {
      sample_group<4>(lat, g, key);
    } else {
      sample_group<0>(lat, g, key);
    }
  }
}

template <int kS>
void VaeProposal::sample_group(const lattice::Lattice& lat,
                               std::size_t group,
                               const std::array<std::uint32_t, 2>& key) {
  constexpr std::size_t kMaxS =
      kS > 0 ? static_cast<std::size_t>(kS)
             : static_cast<std::size_t>(lattice::PairCounter::kMaxSpecies);
  constexpr std::size_t kMaxGroups = (kMaxS + kGroup - 1) / kGroup;
  const auto n = static_cast<std::size_t>(vae_->options().n_sites);
  const std::size_t s =
      kS > 0 ? kMaxS : static_cast<std::size_t>(vae_->options().n_species);
  const std::size_t n_groups = (s + kGroup - 1) / kGroup;
  const std::size_t sp = n_groups * kGroup;  // padded species stride
  const auto n_shells = static_cast<std::size_t>(hamiltonian_->n_shells());

  // Lane l serves slot group*kLanes + l; lanes past the buffer repeat
  // its last slot and are discarded. Ordinal t's uniforms start at
  // Philox block t * blocks_per_ordinal (site i reads block i/2).
  const auto fill = static_cast<std::size_t>(buffer_fill_);
  const std::uint64_t first =
      served_ - static_cast<std::uint64_t>(buffer_pos_);
  const std::uint64_t blocks_per_ordinal = (n + 1) / 2;
  const float* probs =
      probs_buffers_[static_cast<std::size_t>(active_buf_)].data();
  std::array<const float*, kLanes> rows{};
  alignas(64) std::uint64_t block0[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::size_t slot = std::min(group * kLanes + l, fill - 1);
    rows[l] = probs + slot * n * s;
    block0[l] = (first + slot) * blocks_per_ordinal;
  }

  std::array<const std::int32_t*, lattice::Lattice::kMaxShells> nbrs{};
  std::array<std::size_t, lattice::Lattice::kMaxShells> z{};
  std::size_t z_max = 1;
  for (std::size_t sh = 0; sh < n_shells; ++sh) {
    nbrs[sh] = lat.neighbors(0, static_cast<int>(sh)).data();
    z[sh] = static_cast<std::size_t>(lat.coordination(static_cast<int>(sh)));
    z_max = std::max(z_max, z[sh]);
  }
  vq ids[kMaxGroups];
  for (std::size_t g = 0; g < n_groups; ++g)
    ids[g] = group_ids(g * kGroup, std::make_index_sequence<kWidth>{});

  // Byte counters [shell][a][b][lane], b padded to sp. A site adds at
  // most z_max to one counter of its lane, so they are widened into the
  // 32-bit totals every 255 / z_max sites; a total stays below n * z_max.
  DT_CHECK_MSG(n * z_max <= 0xFFFFFFFFu,
               "VaeProposal: bond counts overflow 32-bit lane totals");
  const std::size_t counters = n_shells * s * sp;
  const std::size_t flush_every = 0xFF / z_max;
  std::size_t pending = 0;
  std::fill_n(pair8_.begin(), counters * kLanes, std::uint8_t{0});
  std::fill_n(pair32_.begin(), counters * kLanes, 0u);
  const auto flush = [&] {
    for (std::size_t e = 0; e < counters * kLanes; e += sizeof(vc)) {
      store(&pair32_[e],
            load<vw>(&pair32_[e]) + widen(load<vc>(&pair8_[e])));
    }
    std::fill_n(pair8_.begin(), counters * kLanes, std::uint8_t{0});
    pending = 0;
  };

  // Unpicked sites hold kUnset, which matches no species.
  std::uint8_t* cand = &lanes_[group * n * kLanes];
  std::fill(cand, cand + n * kLanes, lattice::PairCounter::kUnset);

  vd rem[kMaxS][kParts];
  vd run[kParts];  // products of ratios, flushed before underflow
  vd log_q[kParts];
  for (std::size_t h = 0; h < kParts; ++h) {
    for (std::size_t k = 0; k < s; ++k)
      rem[k][h] = splat<vd>(static_cast<double>(sampled_composition_[k]));
    run[h] = splat<vd>(1.0);
    log_q[h] = splat<vd>(0.0);
  }
  const vd tiny = splat<vd>(1e-270);
  const vd zero = splat<vd>(0.0);
  const vd one = splat<vd>(1.0);

  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t m = std::min(kChunk, n - i0);
    // The chunk's sampling uniforms, [site][lane]: one Philox block per
    // lane covers two sites.
    for (std::size_t b = 0; 2 * b < m; ++b) {
      for (std::size_t h = 0; h < kParts; ++h) {
        vu words[4];
        philox_lanes(load<vu>(&block0[h * kPer]) + (i0 / 2 + b), key, words);
        store(&uniforms_[(2 * b) * kLanes + h * kPer],
              uniform_lanes(words[0], words[1]));
        store(&uniforms_[(2 * b + 1) * kLanes + h * kPer],
              uniform_lanes(words[2], words[3]));
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = i0 + j;
      // Lane-major probabilities of site i.
      alignas(64) float col[kMaxS][kLanes];
      for (std::size_t l = 0; l < kLanes; ++l)
        for (std::size_t k = 0; k < s; ++k) col[k][l] = rows[l][i * s + k];
      alignas(64) std::uint8_t picked_bytes[kWidth] = {};
#pragma GCC unroll 8
      for (std::size_t h = 0; h < kParts; ++h) {
        // Weights p * rem, interval starts and the norm.
        vd w[kMaxS];
        vd start[kMaxS];
        w[0] = widen(load<vf>(&col[0][h * kPer])) * rem[0][h];
        start[0] = zero;
        vd norm = w[0];
        for (std::size_t k = 1; k < s; ++k) {
          w[k] = widen(load<vf>(&col[k][h * kPer])) * rem[k][h];
          start[k] = norm;
          norm += w[k];
        }
        // Pick the last species with budget whose interval starts at or
        // below u. An exhausted species has w = 0, so no tie lands on
        // it.
        const vd u = load<vd>(&uniforms_[j * kLanes + h * kPer]) * norm;
        vm chosen = splat<vm>(std::int64_t{0});
        vd wsel = w[0];
        for (std::size_t k = 1; k < s; ++k) {
          const vm take = (u >= start[k]) & (rem[k][h] > zero);
          chosen = take ? splat<vm>(static_cast<std::int64_t>(k)) : chosen;
          wsel = take ? w[k] : wsel;
        }
        for (std::size_t k = 0; k < s; ++k)
          rem[k][h] -= chosen == static_cast<std::int64_t>(k) ? one : zero;
        run[h] *= wsel / norm;
        if (any(run[h] < tiny)) {
          for (std::size_t l = 0; l < kPer; ++l) {
            if (run[h][l] < 1e-270) {
              log_q[h][l] += std::log(run[h][l]);
              run[h][l] = 1.0;
            }
          }
        }
        store(&picked_bytes[h * kPer], __builtin_convertvector(chosen, vp));
      }

      // Bonds from site i to the picked sites, counted before site i's
      // own species is stored: per shell, each lane's neighbours of
      // species b, added to the lane's (picked, b) counter.
      const vq picked = __builtin_shuffle(load<vq>(picked_bytes), kSpread);
      vq mine[kMaxS];
      for (std::size_t a = 0; a < s; ++a)
        mine[a] = reinterpret_cast<vq>(
            picked == splat<vq>(static_cast<std::uint8_t>(a)));
      for (std::size_t sh = 0; sh < n_shells; ++sh) {
        vq near[kMaxGroups];
        for (std::size_t g = 0; g < n_groups; ++g) near[g] = vq{};
        const std::int32_t* row = nbrs[sh] + i * z[sh];
        for (std::size_t q = 0; q < z[sh]; ++q) {
          const vq nb =
              spread(cand + static_cast<std::size_t>(row[q]) * kLanes);
          for (std::size_t g = 0; g < n_groups; ++g)
            near[g] -= reinterpret_cast<vq>(nb == ids[g]);
        }
        std::uint8_t* c = &pair8_[sh * s * sp * kLanes];
        for (std::size_t a = 0; a < s; ++a) {
          for (std::size_t g = 0; g < n_groups; ++g) {
            std::uint8_t* cg = c + (a * sp + g * kGroup) * kLanes;
            store(cg, load<vq>(cg) + (near[g] & mine[a]));
          }
        }
      }
      store(cand + i * kLanes, load<vb>(picked_bytes));
      if (++pending == flush_every) flush();
    }
  }
  flush();

  for (std::size_t l = 0; l < kLanes && group * kLanes + l < fill; ++l) {
    const std::size_t slot = group * kLanes + l;
    for (std::size_t sh = 0; sh < n_shells; ++sh)
      for (std::size_t a = 0; a < s; ++a)
        for (std::size_t b = 0; b < s; ++b)
          lane_counts_[(sh * s + a) * s + b] =
              pair32_[((sh * s + a) * sp + b) * kLanes + l];
    lane_energy_[slot] = hamiltonian_->energy_from_counts(lane_counts_, 1);
    lane_log_q_[slot] =
        log_q[l / kPer][l % kPer] + std::log(run[l / kPer][l % kPer]);
  }
}

mc::ProposalResult VaeProposal::propose(Configuration& cfg,
                                        units::Energy current_energy,
                                        mc::Rng& rng) {
  const auto n = static_cast<std::size_t>(cfg.num_sites());
  const auto s = static_cast<std::size_t>(cfg.n_species());
  DT_CHECK(static_cast<std::int64_t>(n) == vae_->options().n_sites);
  DT_CHECK(static_cast<int>(s) == vae_->options().n_species);

  // 1.-3. Per-site categoricals and the candidate drawn from them, both
  // from the buffer (state-independent: latents and sampling uniforms
  // ride derived streams; see the header's stream discipline). Only the
  // composition enters the candidate, as the budgets it starts from.
  if (buffer_pos_ >= buffer_fill_) refill(rng.key());
  const auto composition = cfg.composition();
  if (!std::equal(composition.begin(), composition.end(),
                  sampled_composition_.begin(), sampled_composition_.end()))
    sample_ahead(cfg.lattice(), composition, rng.key());
  const auto slot = static_cast<std::size_t>(buffer_pos_);
  const float* probs =
      &probs_buffers_[static_cast<std::size_t>(active_buf_)][slot * n * s];

  // Save the current state for revert and for the reverse density, and
  // read the candidate out of its lane.
  const auto occ = cfg.occupancy();
  saved_.assign(occ.begin(), occ.end());
  const std::uint8_t* lane =
      &lanes_[(slot / kLanes) * n * kLanes + slot % kLanes];
  std::size_t n_changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    candidate_[i] = lane[i * kLanes];
    n_changed += candidate_[i] != saved_[i] ? 1u : 0u;
  }

  // 4. Reverse density of the current state under the same z.
  const double log_q_rev =
      s == 4 ? sequential_log_q<4>(probs, saved_, composition)
             : sequential_log_q<0>(probs, saved_, composition);

  // 5. Energy: the candidate's counts priced by the one energy
  // definition. The audit recounts the assigned configuration from
  // scratch; integer counts make the two agree bit for bit.
  const double energy = lane_energy_[slot];
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
  result.log_q_ratio = units::LogWeight(log_q_rev - lane_log_q_[slot]);
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
  size_lanes();
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
