#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace dt::tensor {
namespace {

// One native SIMD register of floats. The tiles below are written in
// GCC vector extensions so their accumulators are plain values the
// register allocator keeps in vector registers for a tile's whole
// depth loop; narrower targets get narrower registers and shorter rows.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif
using vf = float __attribute__((vector_size(kLanes * sizeof(float))));

// Register tiles: rows x vectors, sized to leave registers for the B
// operands (32 vector registers with AVX-512, 16 below it).
constexpr std::size_t kNnRows = kLanes == 16 ? 8 : 4;
constexpr std::size_t kNnVecs = 2;
constexpr std::size_t kTnRows = 4;
constexpr std::size_t kTnVecs = kLanes == 16 ? 4 : 2;

constexpr std::size_t kKc = 256;        // gemm_nn depth cache block
constexpr std::size_t kNc = 1024;       // gemm_nn B-panel width cache block
constexpr std::size_t kPackRows = 32;   // gemm_nn packs B from this many rows
constexpr std::size_t kTnPanel = 256;   // gemm_tn_acc column panel
constexpr std::size_t kNtRows = 64;     // gemm_nt_acc row block
constexpr std::size_t kNtDepth = 128;   // gemm_nt_acc depth chunk
constexpr std::size_t kTailDepth = 64;  // tail tile depth chunk

inline vf load(const float* p) {
  vf v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, vf v) { std::memcpy(p, &v, sizeof v); }

/// Every lane = x, as one broadcast. (Not vf{} + x: 0 + -0 is +0.)
template <std::size_t... L>
inline vf splat(float x, std::index_sequence<L...>) {
  return vf{((void)L, x)...};
}
inline vf splat(float x) {
  return splat(x, std::make_index_sequence<kLanes>{});
}

/// a * b rounded on its own. The empty asm hides the product from the
/// compiler, so it cannot contract the caller's following add into an
/// FMA.
inline vf mul_rounded(vf a, vf b) {
  vf p = a * b;
  asm("" : "+v"(p));
  return p;
}

/// C(R, V*kLanes) += A(R, depth) . B(depth, V*kLanes), where A(r, kk) is
/// a[r * ars + kk * aks]: the tile is loaded once, accumulated in
/// registers over the whole depth and stored once.
template <std::size_t R, std::size_t V>
inline void micro(std::size_t depth, const float* a, std::size_t ars,
                  std::size_t aks, const float* b, std::size_t ldb, float* c,
                  std::size_t ldc) {
  vf acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
      acc[r][v] = load(c + r * ldc + v * kLanes);
  for (std::size_t kk = 0; kk < depth; ++kk) {
    vf bv[V];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
      bv[v] = load(b + kk * ldb + v * kLanes);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const vf ar = splat(a[r * ars + kk * aks]);
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v)
      store(c + r * ldc + v * kLanes, acc[r][v]);
}

/// dst[0, cols) = src[0, cols) for cols < kLanes, in at most log2(kLanes)
/// fixed-size moves: a copy of runtime length would be a library call
/// per short row.
inline void copy_short(float* dst, const float* src, std::size_t cols) {
  std::size_t j = 0;
#pragma GCC unroll 8
  for (std::size_t w = kLanes / 2; w > 0; w /= 2)
    if (cols & w) {
      std::memcpy(dst + j, src + j, w * sizeof(float));
      j += w;
    }
}

/// Tail columns (cols < kLanes): micro<R, 1> over zero-padded stack
/// copies of them, C's R rows and B one depth chunk at a time. Each real
/// element takes the same fused, depth-ordered update as in a full tile;
/// the padding lanes compute on zeros and are dropped.
template <std::size_t R>
void micro_tail(std::size_t cols, std::size_t depth, const float* a,
                std::size_t ars, std::size_t aks, const float* b,
                std::size_t ldb, float* c, std::size_t ldc) {
  float ct[R * kLanes] = {};
  float bt[kTailDepth * kLanes] = {};
  for (std::size_t r = 0; r < R; ++r)
    copy_short(ct + r * kLanes, c + r * ldc, cols);
  for (std::size_t k0 = 0; k0 < depth; k0 += kTailDepth) {
    const std::size_t kc = std::min(kTailDepth, depth - k0);
    for (std::size_t kk = 0; kk < kc; ++kk)
      copy_short(bt + kk * kLanes, b + (k0 + kk) * ldb, cols);
    micro<R, 1>(kc, a + k0 * aks, ars, aks, bt, kLanes, ct, kLanes);
  }
  for (std::size_t r = 0; r < R; ++r)
    copy_short(c + r * ldc, ct + r * kLanes, cols);
}

/// R rows of C, columns [0, n): V-vector tiles, then one-vector tiles,
/// then one padded tile for the tail columns.
template <std::size_t R, std::size_t V>
void band(std::size_t depth, std::size_t n, const float* a, std::size_t ars,
          std::size_t aks, const float* b, std::size_t ldb, float* c,
          std::size_t ldc) {
  std::size_t j = 0;
  for (; j + V * kLanes <= n; j += V * kLanes)
    micro<R, V>(depth, a, ars, aks, b + j, ldb, c + j, ldc);
  for (; j + kLanes <= n; j += kLanes)
    micro<R, 1>(depth, a, ars, aks, b + j, ldb, c + j, ldc);
  if (j < n) micro_tail<R>(n - j, depth, a, ars, aks, b + j, ldb, c + j, ldc);
}

void gemm_nn_impl(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b, float* c) {
  // Packing B costs one read + write + re-read of every panel; it pays
  // only when the panel is reused by many row tiles. Skinny products
  // (the decode-ahead batch: m = K) stream B directly instead.
  const bool pack = m >= kPackRows;
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
      for (std::size_t i0 = 0; i0 < m; i0 += kNnRows) {
        const float* ablk = a + i0 * k + k0;
        float* cblk = c + i0 * n + j0;
        if (m - i0 >= kNnRows) {
          band<kNnRows, kNnVecs>(kb, nb, ablk, k, 1, bsrc, ldb, cblk, n);
          continue;
        }
        for (std::size_t r = 0; r < m - i0; ++r)
          band<1, kNnVecs>(kb, nb, ablk + r * k, k, 1, bsrc, ldb,
                           cblk + r * n, n);
      }
    }
  }
}

/// R rows of gemm_nt_acc's running sums s (kLanes outputs each) over the
/// depth range [u0, u1) of one transposed chunk bt, whose first depth is
/// t0. Unfused: s = s + round(a * b); fused: s = fma(a, b, s).
template <std::size_t R, bool kFused>
inline void rows_nt(std::size_t u0, std::size_t u1, std::size_t t0,
                    const float* a, std::size_t lda, const vf* bt, vf* s) {
  vf acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) acc[r] = s[r];
  for (std::size_t u = u0; u < u1; ++u) {
    const vf bv = bt[u - t0];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const vf ar = splat(a[r * lda + u]);
      if constexpr (kFused)
        acc[r] += ar * bv;
      else
        acc[r] += mul_rounded(ar, bv);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) s[r] = acc[r];
}

template <std::size_t R>
void rows_nt_split(std::size_t u0, std::size_t u1, std::size_t fused_from,
                   std::size_t t0, const float* a, std::size_t lda,
                   const vf* bt, vf* s) {
  const std::size_t mid = std::clamp(fused_from, u0, u1);
  if (u0 < mid) rows_nt<R, false>(u0, mid, t0, a, lda, bt, s);
  if (mid < u1) rows_nt<R, true>(mid, u1, t0, a, lda, bt, s);
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_impl(m, k, n, a, b, c);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c) {
  // The micro kernels load C tiles into their accumulators before the
  // depth loop, so skipping the zero fill accumulates on top of C.
  gemm_nn_impl(m, k, n, a, b, c);
}

void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c) {
  // Depths from here on are fused; see the order contract in gemm.hpp.
  const std::size_t fused_from =
      t / 16 * 16 + (t % 16 >= 8 ? std::size_t{8} : std::size_t{0});
  for (std::size_t i0 = 0; i0 < m; i0 += kNtRows) {
    const std::size_t mb = std::min(kNtRows, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
      const std::size_t lanes = std::min(kLanes, n - j0);
      vf sums[kNtRows];
      vf bt[kNtDepth];  // B rows j0.. transposed: bt[u][lane] = B[j0+lane][u]
      std::fill(sums, sums + mb, vf{});
      if (lanes < kLanes) std::fill(bt, bt + kNtDepth, vf{});
      for (std::size_t t0 = 0; t0 < t; t0 += kNtDepth) {
        const std::size_t tc = std::min(kNtDepth, t - t0);
        for (std::size_t l = 0; l < lanes; ++l) {
          const float* brow = b + (j0 + l) * t + t0;
          for (std::size_t u = 0; u < tc; ++u) bt[u][l] = brow[u];
        }
        const float* ablk = a + i0 * t;
        std::size_t i = 0;
        for (; i + 4 <= mb; i += 4)
          rows_nt_split<4>(t0, t0 + tc, fused_from, t0, ablk + i * t, t, bt,
                           sums + i);
        for (; i < mb; ++i)
          rows_nt_split<1>(t0, t0 + tc, fused_from, t0, ablk + i * t, t, bt,
                           sums + i);
      }
      for (std::size_t i = 0; i < mb; ++i) {
        float* crow = c + (i0 + i) * n + j0;
        for (std::size_t l = 0; l < lanes; ++l) crow[l] = crow[l] + sums[i][l];
      }
    }
  }
}

void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c) {
  // Column panels outermost keep a p x kTnPanel slice of B cache-resident
  // across every row tile.
  for (std::size_t j0 = 0; j0 < n; j0 += kTnPanel) {
    const std::size_t j1 = std::min(n, j0 + kTnPanel);
    for (std::size_t i0 = 0; i0 < m; i0 += kTnRows) {
      const std::size_t rows = std::min(kTnRows, m - i0);
      // A(p, m)^T: row r of the tile is column i0 + r of A.
      if (rows == kTnRows) {
        band<kTnRows, kTnVecs>(p, j1 - j0, a + i0, 1, m, b + j0, n,
                               c + i0 * n + j0, n);
      } else {
        for (std::size_t r = 0; r < rows; ++r)
          band<1, kTnVecs>(p, j1 - j0, a + i0 + r, 1, m, b + j0, n,
                           c + (i0 + r) * n + j0, n);
      }
    }
  }
}

}  // namespace dt::tensor
