// Every float through nn::lane_tanh, compared with std::tanh bit for bit:
// the exhaustive form of test_lane_tanh's strided sweep. It takes about
// 75 s on one core, so it is built but not registered with ctest;
// run it by hand after touching src/nn/lane_tanh.cpp:
//
//   build/tests/lane_tanh_sweep
//
// Prints the number of floats checked and of mismatches (with the first
// few), and exits 1 on any mismatch.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "nn/lane_tanh.hpp"

int main() {
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::vector<float> xs(kChunk), got(kChunk);
  std::uint64_t bad = 0;
  for (std::uint64_t base = 0; base < kAll; base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i)
      xs[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    got = xs;
    dt::nn::lane_tanh(got);
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      const auto want = std::bit_cast<std::uint32_t>(std::tanh(xs[i]));
      const auto have = std::bit_cast<std::uint32_t>(got[i]);
      if (want != have && ++bad <= 10)
        std::printf("x = 0x%08x: libm 0x%08x, lane_tanh 0x%08x\n",
                    std::bit_cast<std::uint32_t>(xs[i]), want, have);
    }
  }
  std::printf("checked %llu floats, %llu mismatches\n",
              static_cast<unsigned long long>(kAll),
              static_cast<unsigned long long>(bad));
  return bad == 0 ? 0 : 1;
}
