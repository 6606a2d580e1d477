// Random number generation for DeepThermo.
//
// Two engines are provided:
//
//  * Xoshiro256ss -- a fast sequential engine used inside a single walker
//    when stream independence across ranks is handled externally.
//  * Philox4x32 -- a counter-based engine (Salmon et al., SC'11).  Keyed by
//    (seed, rank, walker) and indexed by (sweep, draw), it produces the same
//    stream regardless of thread scheduling, which is what makes parallel
//    REWL runs bitwise reproducible.
//
// Both satisfy the C++ UniformRandomBitGenerator concept so they compose
// with <random>, but the distribution helpers below (uniform, normal,
// uniform_index) are hand-rolled: libstdc++ distribution objects are not
// guaranteed to produce identical sequences across versions, and
// reproducibility is part of this library's contract.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

namespace dt {

/// SplitMix64: used to expand a single 64-bit seed into engine state.
/// Passes through all 2^64 states; recommended seeder for xoshiro.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna: fast, high-quality 64-bit generator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0x853c49e6748fea9bULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Advance 2^128 steps; gives independent non-overlapping subsequences.
  void jump();

  /// Full engine state for checkpointing; set_state() resumes the exact
  /// sequence position.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Philox4x32-10 counter-based generator.
///
/// The (key, counter) -> 128 random bits mapping is a pure function, so a
/// generator can be reconstructed at any point of the stream; DeepThermo
/// keys generators by (seed, stream-id) where stream-id encodes rank and
/// walker indices, guaranteeing independent streams without communication.
class Philox4x32 {
 public:
  using result_type = std::uint32_t;

  Philox4x32() : Philox4x32(0, 0) {}
  Philox4x32(std::uint64_t seed, std::uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Fill `out` with the next out.size() draws: the same words, leaving
  /// the same position(), as out.size() calls of operator()() from any
  /// buffered offset. Whole blocks go straight into `out`, skipping the
  /// per-draw buffer bookkeeping.
  void fill(std::span<result_type> out);

  /// Position the counter at an absolute draw index (units of 32-bit draws).
  void seek(std::uint64_t draw_index);

  /// Absolute index of the next draw (inverse of seek()); together with
  /// key() this is the generator's full serialisable state.
  [[nodiscard]] std::uint64_t position() const {
    if (buf_pos_ == 4 && counter_ == 0) return 0;  // never drawn
    return counter_ * 4 - (4 - buf_pos_);
  }

  [[nodiscard]] std::array<std::uint32_t, 2> key() const { return key_; }
  void set_key(const std::array<std::uint32_t, 2>& key) {
    key_ = key;
    counter_ = 0;
    buf_pos_ = 4;
  }

  /// 128-bit block for counter value `ctr` (stateless core transform).
  std::array<std::uint32_t, 4> block(std::uint64_t ctr_lo,
                                     std::uint64_t ctr_hi) const;

  /// Round multipliers and key schedule increments of block().
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
  static constexpr int kRounds = 10;

 private:
  std::array<std::uint32_t, 2> key_{};
  std::uint64_t counter_ = 0;       // block index
  std::array<std::uint32_t, 4> buf_{};
  unsigned buf_pos_ = 4;            // 4 == empty
};

/// Uniform double in [0, 1) from two consecutive 32-bit draws (53-bit
/// mantissa path); lets callers that fill draws in bulk reproduce
/// uniform01() on a 32-bit generator exactly.
inline double uniform01(std::uint32_t hi, std::uint32_t lo) {
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Uniform double in [0, 1) from any URBG (53-bit mantissa path).
template <class Gen>
double uniform01(Gen& g) {
  if constexpr (sizeof(typename Gen::result_type) == 8) {
    return static_cast<double>(g() >> 11) * 0x1.0p-53;
  } else {
    const auto hi = static_cast<std::uint32_t>(g());
    const auto lo = static_cast<std::uint32_t>(g());
    return uniform01(hi, lo);
  }
}

/// Unbiased uniform integer in [0, n) via Lemire's rejection method.
template <class Gen>
std::uint64_t uniform_index(Gen& g, std::uint64_t n) {
  // Multiply-shift with rejection of the short range; n == 0 is a caller bug.
  std::uint64_t v;
  if constexpr (sizeof(typename Gen::result_type) == 8) {
    v = g();
  } else {
    v = (static_cast<std::uint64_t>(g()) << 32) |
        static_cast<std::uint64_t>(g());
  }
  __uint128_t m = static_cast<__uint128_t>(v) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t t = (0 - n) % n;
    while (lo < t) {
      if constexpr (sizeof(typename Gen::result_type) == 8) {
        v = g();
      } else {
        v = (static_cast<std::uint64_t>(g()) << 32) |
            static_cast<std::uint64_t>(g());
      }
      m = static_cast<__uint128_t>(v) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Standard normal via Box-Muller (polar form avoided to keep the draw
/// count per call deterministic -- required for counter-based streams).
template <class Gen>
double normal01(Gen& g) {
  // Box-Muller consumes exactly two uniforms; we discard the second output
  // to keep call sites simple (proposal generation is not normal-bound).
  double u1 = uniform01(g);
  double u2 = uniform01(g);
  // Guard log(0).
  if (u1 <= 0x1.0p-60) u1 = 0x1.0p-60;
  constexpr double two_pi = 6.283185307179586476925286766559;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(two_pi * u2);
}

/// Derive a well-mixed stream id from structured coordinates, e.g.
/// stream_id(rank, walker) for per-walker generators.
std::uint64_t stream_id(std::uint64_t a, std::uint64_t b = 0,
                        std::uint64_t c = 0);

}  // namespace dt
