#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/kernels/kernels.h"
#include "util/thread_pool.h"

namespace fitact {
namespace {

// Block sizes sized for ~32 KiB L1 / 512 KiB L2 per core.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = 256;

// Products narrower than the panel's register tile (n < kTileN <= m) run in
// the transposed orientation; see sgemm_narrow.
constexpr std::int64_t kTileN = kSgemmTileN;

inline float load(const float* p, std::int64_t ld, std::int64_t r,
                  std::int64_t c, bool trans) noexcept {
  return trans ? p[c * ld + r] : p[r * ld + c];
}

/// Constant-size pack buffer (kBlockM x kBlockK floats), reused across calls
/// on each thread: GEMM sits on the zero-allocation planned-serving path
/// (nn/plan.h), so the buffer must not be a fresh vector per call.
float* pack_buffer() {
  thread_local std::vector<float> buf(
      static_cast<std::size_t>(kBlockM * kBlockK));
  return buf.data();
}

/// C += alpha * op(A) * B for n < kTileN <= m, computed as
/// C^T += B^T * (alpha * op(A))^T so the panel kernel's rows are the n
/// columns of C and its long dimension is m. Per 64-column block of C^T:
/// the tile is seeded from C (already beta-scaled), B^T's n rows are packed
/// as the panel, alpha * op(A)^T is staged as the streamed operand, and the
/// tile is written back. Only the multiplicands swap sides, and alpha stays
/// on op(A), so each element keeps the same k-ordered multiply-add chain as
/// the row-panel path: results are bit-identical on every backend.
void sgemm_narrow(bool trans_a, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb,
                  float* c, std::int64_t ldc) {
  const std::int64_t col_blocks = (m + kBlockM - 1) / kBlockM;
  ut::parallel_for(0, static_cast<std::size_t>(col_blocks), [&](std::size_t bb,
                                                                std::size_t be) {
    float* at = pack_buffer();
    float bt[kTileN * kBlockK] = {};
    float ct[kTileN * kBlockM] = {};
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * kBlockM;
      const std::int64_t mb = std::min<std::int64_t>(kBlockM, m - i0);
      for (std::int64_t i = 0; i < mb; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          ct[j * mb + i] = c[(i0 + i) * ldc + j];
        }
      }
      for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t kb = std::min<std::int64_t>(kBlockK, k - k0);
        for (std::int64_t p = 0; p < kb; ++p) {
          for (std::int64_t j = 0; j < n; ++j) {
            bt[j * kb + p] = b[(k0 + p) * ldb + j];
          }
        }
        // Stage alpha * op(A)[i0:i0+mb, k0:k0+kb]^T row-major (kb x mb),
        // writing it in order: without trans_a the mb source rows are read
        // side by side, one cache line each.
        for (std::int64_t p = 0; p < kb; ++p) {
          float* dst = at + p * mb;
          if (!trans_a) {
            const float* src = a + i0 * lda + k0 + p;
            for (std::int64_t i = 0; i < mb; ++i) dst[i] = alpha * src[i * lda];
          } else {
            const float* src = a + (k0 + p) * lda + i0;
            for (std::int64_t i = 0; i < mb; ++i) dst[i] = alpha * src[i];
          }
        }
        kern::gemm_panel(n, mb, kb, 1.0f, bt, at, mb, ct, mb);
      }
      for (std::int64_t i = 0; i < mb; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          c[(i0 + i) * ldc + j] = ct[j * mb + i];
        }
      }
    }
  });
}

}  // namespace

void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(load(a, lda, i, p, trans_a)) *
               static_cast<double>(load(b, ldb, p, j, trans_b));
      }
      float& out = c[i * ldc + j];
      out = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * out);
    }
  }
}

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;

  // Scale / clear C once up front, then accumulate.
  if (beta == 0.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::fill_n(c + i * ldc, static_cast<std::size_t>(n), 0.0f);
    }
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  if (k <= 0 || alpha == 0.0f) return;

  // When B must be transposed, fall back to a simple blocked loop (this path
  // is only used for small matrices in backward passes).
  if (trans_b) {
    ut::parallel_for(0, static_cast<std::size_t>(m), [&](std::size_t ib,
                                                         std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          double acc = 0.0;
          for (std::int64_t p = 0; p < k; ++p) {
            acc += static_cast<double>(
                       load(a, lda, static_cast<std::int64_t>(i), p, trans_a)) *
                   static_cast<double>(b[j * ldb + p]);
          }
          c[static_cast<std::int64_t>(i) * ldc + j] +=
              alpha * static_cast<float>(acc);
        }
      }
    });
    return;
  }

  if (n < kTileN && m >= kTileN) {
    sgemm_narrow(trans_a, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }

  // Main path: pack A row panels, stream B (row-major, no transpose).
  const std::int64_t row_blocks = (m + kBlockM - 1) / kBlockM;
  ut::parallel_for(0, static_cast<std::size_t>(row_blocks), [&](std::size_t bb,
                                                                std::size_t be) {
    float* apack = pack_buffer();
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * kBlockM;
      const std::int64_t mb = std::min<std::int64_t>(kBlockM, m - i0);
      for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t kb = std::min<std::int64_t>(kBlockK, k - k0);
        // Pack op(A)[i0:i0+mb, k0:k0+kb] row-major into apack.
        for (std::int64_t i = 0; i < mb; ++i) {
          float* dst = apack + i * kb;
          if (!trans_a) {
            const float* src = a + (i0 + i) * lda + k0;
            std::copy_n(src, static_cast<std::size_t>(kb), dst);
          } else {
            for (std::int64_t p = 0; p < kb; ++p) {
              dst[p] = a[(k0 + p) * lda + (i0 + i)];
            }
          }
        }
        for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
          const std::int64_t nb = std::min<std::int64_t>(kBlockN, n - j0);
          // Runtime-dispatched panel microkernel (AVX2/FMA or scalar; see
          // tensor/kernels/kernels.h for the cross-backend contract).
          kern::gemm_panel(mb, nb, kb, alpha, apack, b + k0 * ldb + j0, ldb,
                           c + i0 * ldc + j0, ldc);
        }
      }
    }
  });
}

}  // namespace fitact
