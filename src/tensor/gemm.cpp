#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace dt::tensor {
namespace {

constexpr std::size_t kMr = 4;     // row micro-tile
constexpr std::size_t kNr = 32;    // column micro-tile (vector registers)
constexpr std::size_t kKc = 256;   // depth cache block
constexpr std::size_t kNc = 1024;  // B-panel width cache block

bool use_parallel(GemmMode mode, std::size_t flops) {
  switch (mode) {
    case GemmMode::kSerial:
      return false;
    case GemmMode::kParallel:
      return true;
    case GemmMode::kAuto:
      return flops >= kGemmParallelFlops;
  }
  return false;
}

/// Full micro-tile: C(4, 32) += A(4, kb) . B(kb, 32), accumulators kept
/// in registers across the whole kb depth.
inline void micro_4x32(std::size_t kb, const float* a, std::size_t lda,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* brow = b + kk * ldb;
    const float a0 = a[0 * lda + kk];
    const float a1 = a[1 * lda + kk];
    const float a2 = a[2 * lda + kk];
    const float a3 = a[3 * lda + kk];
    for (std::size_t j = 0; j < kNr; ++j) {
      const float bj = brow[j];
      acc[0][j] += a0 * bj;
      acc[1][j] += a1 * bj;
      acc[2][j] += a2 * bj;
      acc[3][j] += a3 * bj;
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
}

/// Edge micro-tile for partial rows/columns; same per-element
/// accumulation order (kk sequential) as the full tile.
inline void micro_edge(std::size_t rows, std::size_t cols, std::size_t kb,
                       const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* arow = a + r * lda;
    float* crow = c + r * ldc;
    for (std::size_t kk = 0; kk < kb; ++kk) {
      const float ar = arow[kk];
      const float* brow = b + kk * ldb;
      for (std::size_t j = 0; j < cols; ++j) crow[j] += ar * brow[j];
    }
  }
}

void gemm_nn_impl(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b, float* c, GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * m * k * n);
  // Packing B costs one read + write + re-read of every panel; it pays
  // only when the panel is reused by many row tiles. Skinny products
  // (the decode-ahead batch: m = K) stream B directly instead.
  const bool pack = m >= 8 * kMr;
  std::vector<float> packed;
  if (pack) packed.resize(std::min(kKc, k) * std::min(kNc, n));

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, n - j0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kb = std::min(kKc, k - k0);
      const float* bsrc = b + k0 * n + j0;
      std::size_t ldb = n;
      if (pack) {
        for (std::size_t kk = 0; kk < kb; ++kk)
          std::memcpy(&packed[kk * nb], b + (k0 + kk) * n + j0,
                      nb * sizeof(float));
        bsrc = packed.data();
        ldb = nb;
      }
      const auto row_tiles = static_cast<std::ptrdiff_t>((m + kMr - 1) / kMr);
      // Threads split ROW tiles only -- the kk reduction below stays
      // sequential per C element, so any thread count produces bitwise
      // identical results.
#pragma omp parallel for schedule(static) if (parallel)
      for (std::ptrdiff_t ti = 0; ti < row_tiles; ++ti) {
        const std::size_t i0 = static_cast<std::size_t>(ti) * kMr;
        const std::size_t rows = std::min(kMr, m - i0);
        const float* ablk = a + i0 * k + k0;
        float* cblk = c + i0 * n + j0;
        for (std::size_t jj = 0; jj < nb; jj += kNr) {
          const std::size_t cols = std::min(kNr, nb - jj);
          if (rows == kMr && cols == kNr)
            micro_4x32(kb, ablk, k, bsrc + jj, ldb, cblk + jj, n);
          else
            micro_edge(rows, cols, kb, ablk, k, bsrc + jj, ldb, cblk + jj, n);
        }
      }
    }
  }
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, GemmMode mode) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_impl(m, k, n, a, b, c, mode);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // The micro kernels load C tiles into their accumulators before the
  // depth loop, so skipping the zero fill accumulates on top of C.
  gemm_nn_impl(m, k, n, a, b, c, mode);
}

void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c, GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * m * n * t);
  const auto rows = static_cast<std::ptrdiff_t>(m);
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t ri = 0; ri < rows; ++ri) {
    const auto i = static_cast<std::size_t>(ri);
    const float* arow = a + i * t;
    float* crow = c + i * n;
    std::size_t j = 0;
    // Four dot products share one pass over the A row.
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * t;
      const float* b1 = b + (j + 1) * t;
      const float* b2 = b + (j + 2) * t;
      const float* b3 = b + (j + 3) * t;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (std::size_t tt = 0; tt < t; ++tt) {
        const float av = arow[tt];
        s0 += av * b0[tt];
        s1 += av * b1[tt];
        s2 += av * b2[tt];
        s3 += av * b3[tt];
      }
      crow[j + 0] += s0;
      crow[j + 1] += s1;
      crow[j + 2] += s2;
      crow[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * t;
      float s = 0.0f;
      for (std::size_t tt = 0; tt < t; ++tt) s += arow[tt] * brow[tt];
      crow[j] += s;
    }
  }
}

void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * p * m * n);
  const auto row_tiles = static_cast<std::ptrdiff_t>((m + kMr - 1) / kMr);
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t ti = 0; ti < row_tiles; ++ti) {
    const std::size_t i0 = static_cast<std::size_t>(ti) * kMr;
    const std::size_t rows = std::min(kMr, m - i0);
    if (rows == kMr) {
      float* c0 = c + (i0 + 0) * n;
      float* c1 = c + (i0 + 1) * n;
      float* c2 = c + (i0 + 2) * n;
      float* c3 = c + (i0 + 3) * n;
      for (std::size_t tt = 0; tt < p; ++tt) {
        const float* acol = a + tt * m + i0;
        const float* brow = b + tt * n;
        const float a0 = acol[0];
        const float a1 = acol[1];
        const float a2 = acol[2];
        const float a3 = acol[3];
        for (std::size_t j = 0; j < n; ++j) {
          const float bj = brow[j];
          c0[j] += a0 * bj;
          c1[j] += a1 * bj;
          c2[j] += a2 * bj;
          c3[j] += a3 * bj;
        }
      }
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        float* crow = c + (i0 + r) * n;
        for (std::size_t tt = 0; tt < p; ++tt) {
          const float av = a[tt * m + i0 + r];
          const float* brow = b + tt * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace dt::tensor
