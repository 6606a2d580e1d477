// Blocked single-precision GEMM kernels behind the VAE's Linear layers.
//
// Three variants cover the forward pass and both backward contractions of
// Y = A.B without materialising any transpose:
//
//   gemm_nn      C  = A(m,k) . B(k,n)            forward
//   gemm_nt_acc  C += A(m,t) . B(n,t)^T          dA += dY . B^T
//   gemm_tn_acc  C += A(p,m)^T . B(p,n)          dB += A^T . dY
//
// Per-element order contract. Trained weights -- and through them every
// trajectory, checkpoint and bit-exact resume -- depend on each rounding,
// so every kernel computes each C element in one fixed order, whatever
// its tiling. "fma" below is a*b + c as the compiler
// contracts it: one fused step in optimised builds for FMA targets.
//
//   gemm_nn / gemm_nn_acc  c = C (0 for gemm_nn); c = fma(a[i][k], b[k][j], c)
//                          for k in order.
//   gemm_tn_acc            c = C; c = fma(a[t][i], b[t][j], c) for t in order.
//   gemm_nt_acc            s = 0; s = s + round(a[i][u] * b[j][u]) for u in
//                          order, each product rounded on its own; the last
//                          t % 8 terms instead take s = fma(a, b, s); then
//                          c = c + s.
//
// The gemm_nt_acc split is the order GCC gave the scalar dot product this
// kernel replaced in AVX-512 builds (a 16- then 8-wide in-order reduction
// of rounded products, scalar FMAs for the tail). It is kept, on every
// target, so training results stay the same bit for bit.
// tests/test_gemm.cpp pins all three contracts against explicit-order
// references.
//
// Design (see DESIGN.md "Kernel layer"):
//  * Tiles are written in GCC vector extensions (one native SIMD register
//    per value), so their accumulators stay in vector registers across a
//    tile's whole depth loop: gemm_nn 8 x 32 tiles and gemm_tn_acc 4 x 64
//    tiles held over all p batch rows (AVX-512; smaller on narrower
//    targets). Columns past the last whole register take one-register
//    tiles over zero-padded stack copies of B and C, so they run in
//    vector registers too, in the same order.
//  * gemm_nt_acc vectorises across outputs: 16 rows of B are transposed
//    in depth chunks into a stack buffer, and each lane accumulates one
//    output over four rows of A per pass. All workspace is on the stack.
//  * Cache blocking over (k, n) in gemm_nn with an optional packed-B
//    panel: the panel is copied into a contiguous kc x nc buffer once per
//    block and streamed by every row tile (skipped for skinny A, where
//    the pack traffic would exceed the reuse).
//  * Single-threaded: REWL runs one walker per thread, so a walker's
//    GEMMs never fork a team of their own.
//
// All matrices are dense row-major, no aliasing between C and A/B.
#pragma once

#include <cstddef>

namespace dt::tensor {

/// C(m,n) = A(m,k) . B(k,n). C is overwritten.
void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c);

/// C(m,n) += A(m,k) . B(k,n): like gemm_nn but C's initial contents are
/// kept (caller must have initialised them). Lets a fused linear layer
/// pre-fill C with the bias instead of paying a separate add pass.
void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c);

/// C(m,n) += A(m,t) . B(n,t)^T, i.e. C[i][j] += sum_t A[i][t] * B[j][t].
void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c);

/// C(m,n) += A(p,m)^T . B(p,n), i.e. C[i][j] += sum_t A[t][i] * B[t][j].
void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c);

}  // namespace dt::tensor
