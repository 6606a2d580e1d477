#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace dt {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro, ReproducibleForSameSeed) {
  Xoshiro256ss a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256ss a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, JumpChangesStream) {
  Xoshiro256ss a(7), b(7);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Philox, ReproducibleForSameKeyAndStream) {
  Philox4x32 a(1, 2), b(1, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Philox, StreamsAreIndependent) {
  Philox4x32 a(1, 0), b(1, 1);
  int same = 0;
  for (int i = 0; i < 256; ++i)
    if (a() == b()) ++same;
  EXPECT_LE(same, 1);  // 32-bit collisions are possible but rare
}

TEST(Philox, SeekMatchesSequentialDraws) {
  Philox4x32 ref(9, 3);
  std::vector<std::uint32_t> seq(64);
  for (auto& v : seq) v = ref();

  for (std::uint64_t pos : {0ULL, 1ULL, 3ULL, 4ULL, 17ULL, 63ULL}) {
    Philox4x32 g(9, 3);
    g.seek(pos);
    EXPECT_EQ(g(), seq[pos]) << "position " << pos;
  }
}

// fill() must be indistinguishable from the same number of operator()
// calls: same words, same position(), and the same draws afterwards --
// from every offset inside a buffered block, whether that offset was
// reached by drawing from a fresh generator or by seek().
TEST(Philox, FillMatchesSequentialDraws) {
  const std::vector<std::size_t> lengths = {0, 1, 2, 3, 4,   5,
                                            6, 7, 8, 9, 4000};
  for (const bool seeked : {false, true}) {
    for (std::uint64_t offset = 0; offset < 4; ++offset) {
      for (const std::size_t len : lengths) {
        Philox4x32 ref(9, 3);
        Philox4x32 got(9, 3);
        if (seeked) {
          ref.seek(8 + offset);
          got.seek(8 + offset);
        } else {
          for (std::uint64_t i = 0; i < offset; ++i) {
            (void)ref();
            (void)got();
          }
        }
        std::vector<std::uint32_t> want(len);
        for (auto& v : want) v = ref();
        std::vector<std::uint32_t> words(len);
        got.fill(words);
        SCOPED_TRACE(::testing::Message() << "seeked=" << seeked
                                          << " offset=" << offset
                                          << " len=" << len);
        EXPECT_EQ(words, want);
        EXPECT_EQ(got.position(), ref.position());
        for (int i = 0; i < 5; ++i) EXPECT_EQ(got(), ref());
      }
    }
  }
}

TEST(Uniform01, FromWordsMatchesGenerator) {
  Philox4x32 g(4, 1);
  Philox4x32 words(4, 1);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t hi = words();
    const std::uint32_t lo = words();
    EXPECT_EQ(uniform01(hi, lo), uniform01(g));
  }
}

TEST(Philox, BlockIsPureFunction) {
  const Philox4x32 g(5, 6);
  EXPECT_EQ(g.block(100, 0), g.block(100, 0));
  EXPECT_NE(g.block(100, 0), g.block(101, 0));
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  Xoshiro256ss g(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(g);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanNearHalf) {
  Xoshiro256ss g(3);
  double acc = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += uniform01(g);
  EXPECT_NEAR(acc / n, 0.5, 0.005);
}

TEST(Uniform01, WorksWith32BitGenerator) {
  Philox4x32 g(3, 0);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = uniform01(g);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    acc += u;
  }
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(UniformIndex, RespectsBounds) {
  Xoshiro256ss g(11);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_index(g, n), n);
    }
  }
}

TEST(UniformIndex, CoversAllValues) {
  Xoshiro256ss g(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(uniform_index(g, 10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(UniformIndex, ApproximatelyUniform) {
  Xoshiro256ss g(13);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[uniform_index(g, 8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, 5 * std::sqrt(n / 8.0));
}

TEST(Normal01, MeanAndVariance) {
  Xoshiro256ss g(17);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = normal01(g);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(StreamId, DistinctCoordinatesGiveDistinctStreams) {
  std::set<std::uint64_t> ids;
  for (std::uint64_t a = 0; a < 10; ++a)
    for (std::uint64_t b = 0; b < 10; ++b)
      for (std::uint64_t c = 0; c < 3; ++c) ids.insert(stream_id(a, b, c));
  EXPECT_EQ(ids.size(), 300u);
}

}  // namespace
}  // namespace dt
