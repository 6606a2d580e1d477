// Correctness of the blocked GEMM kernels behind the VAE, pinned
// against a naive triple loop: randomized shapes including degenerate
// and non-block-multiple edges, accumulate semantics of the backward
// kernels, and each kernel's per-element order, bit for bit.
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace dt::tensor {
namespace {

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (auto& v : m)
    v = static_cast<float>(2.0 * uniform01(rng) - 1.0);
  return m;
}

std::vector<float> naive_nn(std::int64_t m, std::int64_t k, std::int64_t n,
                            const std::vector<float>& a,
                            const std::vector<float>& b) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t t = 0; t < k; ++t) {
      const float av = a[static_cast<std::size_t>(i * k + t)];
      for (std::int64_t j = 0; j < n; ++j)
        c[static_cast<std::size_t>(i * n + j)] +=
            av * b[static_cast<std::size_t>(t * n + j)];
    }
  return c;
}

// The blocked kernel reassociates the k reduction, so compare with a
// tolerance scaled by the reduction length.
void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, std::int64_t k_len) {
  ASSERT_EQ(got.size(), want.size());
  const float tol = 1e-5F * static_cast<float>(k_len);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
}

struct Shape {
  std::int64_t m, k, n;
};

// Degenerate vectors, sub-microtile edges, non-multiples of the 4x32
// register tile and of the 256/1024 cache blocks, and one shape past the
// packing threshold.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 5, 9},    {3, 1, 4},    {1, 64, 1},   {7, 33, 65},
    {4, 32, 32}, {5, 33, 31},  {8, 257, 33}, {33, 257, 129}, {16, 300, 47},
};

TEST(GemmNN, MatchesNaiveReferenceAcrossShapes) {
  std::uint64_t salt = 0;
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, 100 + salt);
    const auto b = random_matrix(s.k, s.n, 200 + salt);
    ++salt;
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 7.0F);
    gemm_nn(static_cast<std::size_t>(s.m), static_cast<std::size_t>(s.k),
            static_cast<std::size_t>(s.n), a.data(), b.data(), c.data());
    expect_close(c, naive_nn(s.m, s.k, s.n, a, b), s.k);
  }
}

TEST(GemmNN, OverwritesStaleOutput) {
  const auto a = random_matrix(6, 11, 1);
  const auto b = random_matrix(11, 13, 2);
  std::vector<float> c(6 * 13, 1e30F);  // must not leak into the result
  gemm_nn(6, 11, 13, a.data(), b.data(), c.data());
  expect_close(c, naive_nn(6, 11, 13, a, b), 11);
}

TEST(GemmNNAcc, AccumulatesIntoNonzeroOutput) {
  // C[i][j] += sum_t A[i][t] * B[t][j] -- the bias-prefilled forward in
  // Linear::forward relies on the initial C surviving.
  const std::int64_t m = 7, k = 19, n = 37;
  const auto a = random_matrix(m, k, 40);
  const auto b = random_matrix(k, n, 41);
  const auto init = random_matrix(m, n, 42);

  std::vector<float> got = init;
  gemm_nn_acc(m, k, n, a.data(), b.data(), got.data());

  std::vector<float> want = naive_nn(m, k, n, a, b);
  for (std::size_t i = 0; i < want.size(); ++i)
    want[i] += init[i];
  expect_close(got, want, k);
}

TEST(GemmNtAcc, AccumulatesGradIntoNonzeroOutput) {
  // dA[i][t] += sum_j dY[i][j] * B[t][j] -- exactly matmul's dA term.
  const std::int64_t m = 9, k = 21, n = 35;
  const auto dy = random_matrix(m, n, 3);
  const auto b = random_matrix(k, n, 4);
  const auto init = random_matrix(m, k, 5);

  std::vector<float> got = init;
  gemm_nt_acc(m, k, n, dy.data(), b.data(), got.data());

  std::vector<float> want = init;
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t t = 0; t < k; ++t) {
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j)
        acc += dy[static_cast<std::size_t>(i * n + j)] *
               b[static_cast<std::size_t>(t * n + j)];
      want[static_cast<std::size_t>(i * k + t)] += acc;
    }
  expect_close(got, want, n);
}

TEST(GemmTnAcc, AccumulatesGradIntoNonzeroOutput) {
  // dB[t][j] += sum_i A[i][t] * dY[i][j] -- exactly matmul's dB term.
  const std::int64_t m = 17, k = 13, n = 29;
  const auto a = random_matrix(m, k, 6);
  const auto dy = random_matrix(m, n, 7);
  const auto init = random_matrix(k, n, 8);

  std::vector<float> got = init;
  gemm_tn_acc(m, k, n, a.data(), dy.data(), got.data());

  std::vector<float> want = init;
  for (std::int64_t t = 0; t < k; ++t)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t i = 0; i < m; ++i)
        acc += a[static_cast<std::size_t>(i * k + t)] *
               dy[static_cast<std::size_t>(i * n + j)];
      want[static_cast<std::size_t>(t * n + j)] += acc;
    }
  expect_close(got, want, m);
}

// The decode plane fuses several walkers' rows into one GEMM whose row
// count varies from call to call; every batched row must reproduce the
// row decoded alone (m = 1) exactly, including above the row count
// where gemm_nn starts packing B panels internally.
TEST(GemmNN, BatchedRowsMatchRowAtATime) {
  const std::size_t k = 72, n = 260;  // decoder-ish: latent+cond -> hidden
  constexpr std::size_t kRows = 40;
  const auto b = random_matrix(static_cast<std::int64_t>(k),
                               static_cast<std::int64_t>(n), 77);
  const auto a = random_matrix(static_cast<std::int64_t>(kRows),
                               static_cast<std::int64_t>(k), 78);

  std::vector<float> row_at_a_time(kRows * n);
  for (std::size_t r = 0; r < kRows; ++r)
    gemm_nn(1, k, n, a.data() + r * k, b.data(),
            row_at_a_time.data() + r * n);

  for (const std::size_t m : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}, std::size_t{16}, kRows}) {
    std::vector<float> batched(m * n, -1.0F);
    gemm_nn(m, k, n, a.data(), b.data(), batched.data());
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(batched[i], row_at_a_time[i]) << "m=" << m << " flat " << i;
  }
}

// ---- Per-element order contract ------------------------------------------
//
// The kernels must reproduce the exact operation order of the loops they
// replaced, because trained weights (and through them trajectories and
// checkpoints) depend on every bit. The references below are those loops
// with the order made explicit. A "fused" step is a*b + c as the compiler
// contracts it: one FMA in optimised builds for FMA targets, a rounded
// multiply and add otherwise.

#if defined(__OPTIMIZE__) && defined(__FP_FAST_FMA)
float fused(float a, float b, float c) { return std::fma(a, b, c); }
#else
float fused(float a, float b, float c) {
  const volatile float p = a * b;
  return p + c;
}
#endif

/// a * b rounded on its own (never contracted into the following add).
float rounded_product(float a, float b) {
  const volatile float p = a * b;
  return p;
}

/// gemm_nn_acc: c starts from C, then c = fused(a[i][k], b[k][j], c) for
/// k in order.
void ref_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c) {
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j)
        c[r * n + j] = fused(a[r * k + kk], b[kk * n + j], c[r * n + j]);
}

/// gemm_nt_acc: s = 0; s = s + round(a[i][u] * b[j][u]) for u in order;
/// c = c + s. The replaced loop was vectorised 16 and then 8 terms wide
/// as an in-order reduction, with the products rounded on their own, and
/// its last t % 8 terms ran as scalar fused steps; the kernel keeps that
/// split so the bits stay the same.
void ref_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                const float* b, float* c) {
  const std::size_t fused_from = t / 16 * 16 + (t % 16 >= 8 ? 8 : 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0.0F;
      for (std::size_t u = 0; u < t; ++u)
        s = u < fused_from ? s + rounded_product(a[i * t + u], b[j * t + u])
                           : fused(a[i * t + u], b[j * t + u], s);
      c[i * n + j] = c[i * n + j] + s;
    }
}

/// gemm_tn_acc: c starts from C, then c = fused(a[u][i], b[u][j], c) for
/// u in order.
void ref_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t u = 0; u < p; ++u)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] = fused(a[u * m + i], b[u * n + j], c[i * n + j]);
}

/// Uniform in [-1, 1) with about a fifth of the entries +0 or -0: the sign
/// of a zero survives an FMA differently from a rounded multiply-add.
std::vector<float> signed_zero_matrix(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed) {
  auto m = random_matrix(static_cast<std::int64_t>(rows),
                         static_cast<std::int64_t>(cols), seed);
  for (float& v : m) {
    if (v > 0.8F) v = 0.0F;
    if (v < -0.8F) v = -0.0F;
  }
  return m;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what,
                    std::size_t d0, std::size_t d1, std::size_t d2) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what << " (" << d0 << ", " << d1 << ", " << d2 << ")";
}

// One large shape on top of each test's grid, in each kernel's own
// argument order: gemm_nn packs B for all its row bands, gemm_nt_acc runs
// two row blocks over four depth chunks, gemm_tn_acc two column panels.
constexpr std::size_t kLarge[] = {128, 128, 512};

// Every remainder path: rows % 8 and % 4, columns below, at and past one
// and two 16-lane vectors, depths on each side of 8 and 16 and past the
// 64 / 128 / 256 depth chunks, and widths past the 256 / 1024 column blocks.
TEST(GemmContract, NnMatchesReferenceBitwise) {
  std::uint64_t seed = 300;
  const auto check = [&seed](std::size_t m, std::size_t k, std::size_t n) {
    const auto a = signed_zero_matrix(m, k, ++seed);
    const auto b = signed_zero_matrix(k, n, ++seed);
    const auto c0 = signed_zero_matrix(m, n, ++seed);
    auto want = c0;
    ref_nn_acc(m, k, n, a.data(), b.data(), want.data());
    auto got = c0;
    gemm_nn_acc(m, k, n, a.data(), b.data(), got.data());
    expect_bitwise(got, want, "gemm_nn_acc", m, k, n);
  };
  const std::size_t rows[] = {1, 3, 4, 7, 8, 13, 33};
  const std::size_t depths[] = {1, 5, 16, 37, 64, 257};
  const std::size_t cols[] = {1, 8, 15, 16, 17, 33, 47, 64, 1100};
  for (const std::size_t m : rows)
    for (const std::size_t k : depths)
      for (const std::size_t n : cols)
        if (m * k * n <= 600000) check(m, k, n);
  check(kLarge[0], kLarge[1], kLarge[2]);
}

TEST(GemmContract, NtMatchesReferenceBitwise) {
  std::uint64_t seed = 400;
  const auto check = [&seed](std::size_t m, std::size_t n, std::size_t t) {
    const auto a = signed_zero_matrix(m, t, ++seed);
    const auto b = signed_zero_matrix(n, t, ++seed);
    const auto c0 = signed_zero_matrix(m, n, ++seed);
    auto want = c0;
    ref_nt_acc(m, n, t, a.data(), b.data(), want.data());
    auto got = c0;
    gemm_nt_acc(m, n, t, a.data(), b.data(), got.data());
    expect_bitwise(got, want, "gemm_nt_acc", m, n, t);
  };
  std::vector<std::size_t> depths;
  for (std::size_t t = 1; t <= 34; ++t) depths.push_back(t);
  for (const std::size_t t : {64U, 100U, 129U, 216U, 300U}) depths.push_back(t);
  const std::size_t rows[] = {1, 3, 4, 5, 9, 70};
  const std::size_t cols[] = {1, 7, 16, 17, 37};
  for (const std::size_t m : rows)
    for (const std::size_t n : cols)
      for (const std::size_t t : depths) check(m, n, t);
  check(kLarge[0], kLarge[1], kLarge[2]);
}

TEST(GemmContract, TnMatchesReferenceBitwise) {
  std::uint64_t seed = 500;
  const auto check = [&seed](std::size_t p, std::size_t m, std::size_t n) {
    const auto a = signed_zero_matrix(p, m, ++seed);
    const auto b = signed_zero_matrix(p, n, ++seed);
    const auto c0 = signed_zero_matrix(m, n, ++seed);
    auto want = c0;
    ref_tn_acc(p, m, n, a.data(), b.data(), want.data());
    auto got = c0;
    gemm_tn_acc(p, m, n, a.data(), b.data(), got.data());
    expect_bitwise(got, want, "gemm_tn_acc", p, m, n);
  };
  const std::size_t depths[] = {1, 5, 32, 100};
  const std::size_t rows[] = {1, 3, 4, 5, 9, 64};
  const std::size_t cols[] = {1, 8, 15, 16, 17, 33, 47, 216, 300};
  for (const std::size_t p : depths)
    for (const std::size_t m : rows)
      for (const std::size_t n : cols) check(p, m, n);
  check(kLarge[0], kLarge[1], kLarge[2]);
}

}  // namespace
}  // namespace dt::tensor
