// nn::lane_tanh must return std::tanh(x) bit for bit: the VAE's hidden
// activations go through it, and trained weights, trajectories and
// checkpoints depend on every rounding. A strided sweep over every float
// bit pattern, every branch boundary of glibc's tanhf / expm1f, the
// special values and every lane position of a partial vector pin that.
// The full 2^32 sweep is tests/lane_tanh_sweep.cpp, run by hand.
#include "nn/lane_tanh.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace dt::nn {
namespace {

// Called through a volatile pointer, so the compiler cannot fold it at
// compile time (its folding rounds correctly; libm need not).
float (*volatile const libm_tanh)(float) = [](float x) { return std::tanh(x); };

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }
float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

/// Runs lane_tanh over xs and counts results that differ from libm's in
/// any bit, reporting the first few.
std::size_t mismatches(const std::vector<float>& xs) {
  std::vector<float> got = xs;
  lane_tanh(got);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float want = libm_tanh(xs[i]);
    if (bits(got[i]) == bits(want)) continue;
    if (++bad <= 5)
      ADD_FAILURE() << std::hex << "x = 0x" << bits(xs[i]) << ": libm 0x"
                    << bits(want) << ", lane_tanh 0x" << bits(got[i]);
  }
  return bad;
}

TEST(LaneTanh, MatchesLibmOnAStridedSweepOfEveryFloat) {
  // An odd stride reaches every low-bit pattern of the mantissa; the
  // sweep runs through both signs, NaNs and infinities included.
  constexpr std::uint64_t kStride = 61;
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<float> xs;
  xs.reserve(kChunk);
  std::size_t bad = 0;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += kStride) {
    xs.push_back(from_bits(static_cast<std::uint32_t>(b)));
    if (xs.size() == kChunk) {
      bad += mismatches(xs);
      xs.clear();
    }
  }
  bad += mismatches(xs);
  EXPECT_EQ(bad, 0U);
}

TEST(LaneTanh, MatchesLibmAtEveryBranchBoundary) {
  std::vector<float> xs;
  const auto around = [&xs](std::uint32_t abs_bits, std::uint32_t ulps) {
    for (std::uint32_t b = abs_bits - ulps; b <= abs_bits + ulps; ++b) {
      xs.push_back(from_bits(b));
      xs.push_back(-from_bits(b));
    }
  };
  // tanhf's own bounds on |x|: 2^-55, 1 and 22. The vector path's lower
  // bound 2^-24. expm1f's bounds on its argument 2|x|, both as x and
  // as 2|x|: 2^-25, 0.5 ln 2 (0x3eb17218) and 1.5 ln 2 (0x3f851592).
  for (const std::uint32_t b :
       {0x24000000u, 0x3f800000u, 0x41b00000u, 0x33800000u, 0x32800000u,
        0x33000000u, 0x3e317218u, 0x3eb17218u, 0x3f051592u, 0x3f851592u})
    around(b, 16);
  // Where expm1f's k = (int)(+-2|x| / ln 2 +- 0.5) steps, for every |k|
  // on the domain (k is -1 to -3 below |x| = 1, 3 to 63 above): the
  // reconstruction changes at k = -1, -2, 23 and 57.
  for (int k = 1; k <= 64; ++k) {
    const double x = (k - 0.5) * std::log(2.0) / 2.0;
    around(bits(static_cast<float>(x)), 64);
  }
  EXPECT_EQ(mismatches(xs), 0U);
}

TEST(LaneTanh, MatchesLibmOnSpecialValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f, kInf, std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::denorm_min(),
                           from_bits(0x007fffffu), from_bits(0x00400000u),
                           1e-30f, 21.999998f, 1e30f};
  for (std::size_t i = 0, n = xs.size(); i < n; ++i) xs.push_back(-xs[i]);
  // Quiet, signalling and payload NaNs of both signs.
  for (const std::uint32_t b : {0x7fc00000u, 0xffc00000u, 0x7f800001u,
                                0xff800001u, 0x7fc12345u, 0x7fffffffu})
    xs.push_back(from_bits(b));
  EXPECT_EQ(mismatches(xs), 0U);
}

TEST(LaneTanh, EveryLanePositionOfAPartialVector) {
  // Lengths up to three SIMD registers and every position in them, with
  // an input outside the vector domain at that position among inputs
  // inside it, and the reverse. Nothing past the span is written.
  const float inside = 0.75f;
  const float guard = 123.0f;
  for (const float odd : {0.0f, 40.0f, std::numeric_limits<float>::quiet_NaN(),
                          1e-30f}) {
    for (std::size_t n = 1; n <= 49; ++n) {
      for (std::size_t pos = 0; pos < n; ++pos) {
        for (const bool swap : {false, true}) {
          std::vector<float> xs(n, swap ? odd : inside);
          xs[pos] = swap ? inside : odd;
          std::vector<float> got = xs;
          got.push_back(guard);
          lane_tanh(std::span<float>(got.data(), n));
          ASSERT_EQ(bits(got[n]), bits(guard)) << "n = " << n;
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(bits(got[i]), bits(libm_tanh(xs[i])))
                << "n = " << n << ", pos = " << pos << ", i = " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dt::nn
