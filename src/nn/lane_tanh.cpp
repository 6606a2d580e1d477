// glibc's single-precision tanh, one float per SIMD lane.
//
// glibc's tanhf is fdlibm's s_tanhf.c over its expm1f (s_expm1f.c):
// reduce the argument by k ln 2, a Q1..Q5 polynomial on the remainder,
// then a reconstruction that depends on k. Below, every lane takes every
// path and a select keeps the one libm would have taken, so each lane
// runs libm's own sequence of IEEE operations on its own float and
// rounds exactly as libm does. libm rounds every product before it is
// added; this file is therefore compiled with -ffp-contract=off
// (src/nn/CMakeLists.txt), since one contracted FMA would change bits.
//
// The vector path covers 2^-24 <= |x| < 22, where tanhf evaluates
// expm1f(+-2|x|) on a finite, normal argument. Everything else (+-0,
// tiny and denormal inputs, |x| >= 22, infinities, NaN) is left to
// std::tanh itself.
#include "nn/lane_tanh.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace dt::nn {
namespace {

#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif
using vf = float __attribute__((vector_size(kLanes * sizeof(float))));
using vi = std::int32_t __attribute__((vector_size(kLanes * sizeof(float))));
using vu = std::uint32_t __attribute__((vector_size(kLanes * sizeof(float))));

// |x| bit bounds of the vector path: [2^-24, 22).
constexpr std::uint32_t kLowest = 0x33800000;
constexpr std::uint32_t kPastHighest = 0x41b00000;

// s_expm1f.c's constants, by bit pattern.
constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

inline vf load(const float* p) {
  vf v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, vf v) { std::memcpy(p, &v, sizeof v); }

/// libm's tanhf(x) in every lane; each lane must hold 2^-24 <= |x| < 22.
inline vf tanh_lanes(vf x) {
  const vu ux = reinterpret_cast<vu>(x);
  const vu ix = ux & 0x7fffffffu;
  // tanhf: t = expm1f(2|x|) for |x| >= 1, expm1f(-2|x|) below.
  const vi big = ix >= 0x3f800000u;
  const vf two_ax = 2.0f * reinterpret_cast<vf>(ix);
  const vf a = big ? two_ax : -two_ax;

  // expm1f's reduction a = k ln2 + (xr + c). Its own bounds on |a|:
  // k = 0 up to 0.5 ln2, k = +-1 below 1.5 ln2, rounded a / ln2 above.
  // With k = 0, hi - lo below is a itself.
  const vu hx = reinterpret_cast<vu>(two_ax);
  const vf half = big ? vf{} + 0.5f : vf{} - 0.5f;
  const vi k_far = __builtin_convertvector(kInvLn2 * a + half, vi);
  const vi k_near = big ? vi{} + 1 : vi{} - 1;
  const vi k = hx > 0x3eb17218u ? (hx < 0x3f851592u ? k_near : k_far) : vi{};
  const vf kf = __builtin_convertvector(k, vf);
  const vf hi = a - kf * kLn2Hi;
  const vf lo = kf * kLn2Lo;
  const vf xr = hi - lo;
  const vf c = (hi - xr) - lo;

  const vf hfx = 0.5f * xr;
  const vf hxs = xr * hfx;
  const vf r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const vf t = 3.0f - r1 * hfx;
  const vf e = hxs * ((r1 - t) / (6.0f - xr * t));

  // Reconstruction by k. On this domain k lies in [-3, 63] and is never
  // +1 (that needs 0.5 ln2 < a < 1.5 ln2, but a >= 2 when positive), so
  // s_expm1f.c's k == 1 case is left out.
  const vf em_k0 = xr - (xr * e - hxs);
  const vf ek = (xr * (e - c) - c) - hxs;
  const vf em_km1 = 0.5f * (xr - ek) - 0.5f;
  const vu scale = reinterpret_cast<vu>(k) << 23;  // adds k to an exponent
  const vf em_wide =
      reinterpret_cast<vf>(reinterpret_cast<vu>(1.0f - (ek - xr)) + scale) -
      1.0f;
  const vu one_minus_ulp =
      0x3f800000u - (0x1000000u >> (reinterpret_cast<vu>(k) & 31u));
  const vf em_low = reinterpret_cast<vf>(
      reinterpret_cast<vu>(reinterpret_cast<vf>(one_minus_ulp) - (ek - xr)) +
      scale);
  const vf ulp = reinterpret_cast<vf>((0x7fu - reinterpret_cast<vu>(k)) << 23);
  const vf em_high = reinterpret_cast<vf>(
      reinterpret_cast<vu>((xr - (ek + ulp)) + 1.0f) + scale);
  const vf em = k == 0    ? em_k0
                : k == -1 ? em_km1
                : (k < -1) | (k > 56) ? em_wide
                : k < 23  ? em_low
                          : em_high;

  // tanhf: 1 - 2 / (t + 2) for |x| >= 1, -t / (t + 2) below, with x's
  // sign.
  const vf q = (big ? vf{} + 2.0f : -em) / (em + 2.0f);
  const vf z = big ? 1.0f - q : q;
  return reinterpret_cast<vf>(reinterpret_cast<vu>(z) ^ (ux & 0x80000000u));
}

/// |v|'s bits - kLowest, wrapping below kLowest: v is in the vector
/// domain iff this is below kPastHighest - kLowest (NaN is not).
inline std::uint32_t domain_offset(float v) {
  return (std::bit_cast<std::uint32_t>(v) & 0x7fffffffu) - kLowest;
}
constexpr std::uint32_t kDomainSpan = kPastHighest - kLowest;

/// Largest domain_offset of the n floats at p: at or past kDomainSpan
/// iff one of them is outside the vector domain.
inline std::uint32_t widest_offset(const float* p, std::size_t n) {
  std::uint32_t widest = 0;
  for (std::size_t i = 0; i < n; ++i)
    widest = std::max(widest, domain_offset(p[i]));
  return widest;
}

/// tanh of the kLanes floats at p. Lanes outside the vector domain run
/// the vector path on 1.0 instead (so no conversion to int overflows)
/// and std::tanh then redoes them.
inline void tanh_block(float* p) {
  const vf x = load(p);
  if (widest_offset(p, kLanes) < kDomainSpan) {
    store(p, tanh_lanes(x));
    return;
  }
  vf in = x;
  for (std::size_t l = 0; l < kLanes; ++l)
    if (domain_offset(x[l]) >= kDomainSpan) in[l] = 1.0f;
  store(p, tanh_lanes(in));
  for (std::size_t l = 0; l < kLanes; ++l)
    if (domain_offset(x[l]) >= kDomainSpan) p[l] = std::tanh(x[l]);
}

}  // namespace

void lane_tanh(std::span<float> values) {
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) tanh_block(values.data() + i);
  if (i < n) {
    float tail[kLanes];
    std::fill_n(tail, kLanes, 1.0f);  // inside the vector domain
    std::copy_n(values.data() + i, n - i, tail);
    tanh_block(tail);
    std::copy_n(tail, n - i, values.data() + i);
  }
}

}  // namespace dt::nn
