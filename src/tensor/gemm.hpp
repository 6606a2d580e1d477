// Blocked single-precision GEMM kernels backing tensor::matmul.
//
// Three variants cover the forward pass and both backward contractions of
// Y = A.B without materialising any transpose:
//
//   gemm_nn      C  = A(m,k) . B(k,n)            forward
//   gemm_nt_acc  C += A(m,t) . B(n,t)^T          dA += dY . B^T
//   gemm_tn_acc  C += A(p,m)^T . B(p,n)          dB += A^T . dY
//
// Design (see DESIGN.md "Proposal fast path"):
//  * Register blocking: 4-row x 32-column micro-tiles accumulated in
//    locals so the compiler keeps them in vector registers.
//  * Cache blocking over (k, n) with an optional packed-B panel: the
//    panel is copied into a contiguous kc x nc buffer once per block and
//    streamed by every row micro-tile (skipped for skinny A, where the
//    pack traffic would exceed the reuse).
//  * OpenMP above a FLOP threshold, parallelised over ROW TILES ONLY --
//    the k reduction is never split, so every C element is accumulated
//    in exactly the same order on any thread count. Serial and parallel
//    paths are bitwise identical by construction (pinned in test_gemm).
//
// All matrices are dense row-major, no aliasing between C and A/B.
#pragma once

#include <cstddef>

namespace dt::tensor {

enum class GemmMode {
  kAuto,      ///< parallel iff the FLOP count clears the threshold
  kSerial,    ///< force the single-threaded path
  kParallel,  ///< force the OpenMP path (still bitwise == serial)
};

/// 2*m*k*n FLOPs at or above which kAuto picks the OpenMP path.
inline constexpr std::size_t kGemmParallelFlops = std::size_t{1} << 22;

/// C(m,n) = A(m,k) . B(k,n). C is overwritten.
void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(m,k) . B(k,n): like gemm_nn but C's initial contents are
/// kept (caller must have initialised them). Lets a fused linear layer
/// pre-fill C with the bias instead of paying a separate add pass.
void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(m,t) . B(n,t)^T, i.e. C[i][j] += sum_t A[i][t] * B[j][t].
void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(p,m)^T . B(p,n), i.e. C[i][j] += sum_t A[t][i] * B[t][j].
void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

}  // namespace dt::tensor
