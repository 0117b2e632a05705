// Single-precision general matrix multiply, the compute core of conv2d and
// fully connected layers.
//
// C[M,N] = alpha * op(A) * op(B) + beta * C
//
// Row-major layout throughout; op() is an optional transpose. The kernel is
// cache-blocked and parallelised over 64-row blocks of C via the global
// thread pool. Narrow products (N < 16 <= M with B not transposed, e.g. a
// conv with a 2x2 output map) run transposed — C^T = op(B)^T * op(A)^T — so
// the panel kernel's 16-column register tile spans M instead of N. Each
// element keeps the same k-ordered multiply-add chain, so both orientations
// give bit-identical results on every kernel backend.
#pragma once

#include <cstdint>

namespace fitact {

/// Column width of the panel kernel's register tile. Products narrower than
/// this (n < kSgemmTileN <= m) run transposed; convolutions whose per-sample
/// output map is narrower run batch-wide (autograd/op_kernels.h).
inline constexpr std::int64_t kSgemmTileN = 16;

/// Plain row-major SGEMM. lda/ldb/ldc are leading dimensions (row strides).
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// Reference (naive triple loop) implementation used in tests to validate
/// the blocked kernel.
void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c, std::int64_t ldc);

}  // namespace fitact
