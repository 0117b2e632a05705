// AVX2/FMA backend. This translation unit is the only place in the tree
// allowed to include <immintrin.h> (scripts/lint.sh enforces the boundary):
// it is compiled with -mavx2 -mfma while the rest of the library keeps the
// portable baseline ISA, and dispatch.cpp only installs this table after a
// runtime cpuid check — so the binary stays runnable on any x86-64 host.
//
// Semantics: the elementwise kernels reproduce the scalar backend
// bit-exactly (identical branch structure via ordered-quiet compares and
// blends, so NaN/Inf/-0.0 behave the same; fitrelu runs the scalar
// backend's expf steps lane for lane in double); gemm_panel accumulates
// with FMA in 16-column register tiles, which changes rounding relative to
// scalar — cross-backend GEMM agreement is to forward-error bounds only
// (gemm_fuzz_test's per-element tolerance).
#include "tensor/kernels/kernel_table.h"

#if defined(FITACT_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>

namespace fitact::kern {
namespace {

// ---- GEMM panel ------------------------------------------------------------

/// Full 4-row x 16-column register tile: C tile is held in 8 ymm
/// accumulators across the whole kb loop, so C traffic is one load + one
/// store per element instead of one per k step.
inline void tile4x16(std::int64_t kb, float alpha, const float* ap,
                     std::int64_t ap_stride, const float* b, std::int64_t ldb,
                     float* c, std::int64_t ldc) noexcept {
  __m256 acc00 = _mm256_loadu_ps(c + 0 * ldc);
  __m256 acc01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 acc10 = _mm256_loadu_ps(c + 1 * ldc);
  __m256 acc11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 acc20 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 acc30 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 acc31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    const __m256 a0 = _mm256_set1_ps(alpha * ap[0 * ap_stride + p]);
    const __m256 a1 = _mm256_set1_ps(alpha * ap[1 * ap_stride + p]);
    const __m256 a2 = _mm256_set1_ps(alpha * ap[2 * ap_stride + p]);
    const __m256 a3 = _mm256_set1_ps(alpha * ap[3 * ap_stride + p]);
    acc00 = _mm256_fmadd_ps(a0, b0, acc00);
    acc01 = _mm256_fmadd_ps(a0, b1, acc01);
    acc10 = _mm256_fmadd_ps(a1, b0, acc10);
    acc11 = _mm256_fmadd_ps(a1, b1, acc11);
    acc20 = _mm256_fmadd_ps(a2, b0, acc20);
    acc21 = _mm256_fmadd_ps(a2, b1, acc21);
    acc30 = _mm256_fmadd_ps(a3, b0, acc30);
    acc31 = _mm256_fmadd_ps(a3, b1, acc31);
  }
  _mm256_storeu_ps(c + 0 * ldc, acc00);
  _mm256_storeu_ps(c + 0 * ldc + 8, acc01);
  _mm256_storeu_ps(c + 1 * ldc, acc10);
  _mm256_storeu_ps(c + 1 * ldc + 8, acc11);
  _mm256_storeu_ps(c + 2 * ldc, acc20);
  _mm256_storeu_ps(c + 2 * ldc + 8, acc21);
  _mm256_storeu_ps(c + 3 * ldc, acc30);
  _mm256_storeu_ps(c + 3 * ldc + 8, acc31);
}

/// Single-row edge tile: 8-wide vector loop with a scalar tail. Handles the
/// bottom rows (mb % 4) and, with nb < 16, the right edge columns. The tail
/// is an explicit fma, so every column gets the same single-rounding step
/// as the vector lanes whatever the compiler's contraction setting — the
/// narrow-product orientation in tensor/gemm.cpp relies on that to stay
/// bit-identical to the row-panel path.
inline void tile1xN(std::int64_t nb, std::int64_t kb, float alpha,
                    const float* arow, const float* b, std::int64_t ldb,
                    float* c) noexcept {
  for (std::int64_t p = 0; p < kb; ++p) {
    const float aval = alpha * arow[p];
    const __m256 av = _mm256_set1_ps(aval);
    const float* brow = b + p * ldb;
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      _mm256_storeu_ps(
          c + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j),
                                 _mm256_loadu_ps(c + j)));
    }
    for (; j < nb; ++j) c[j] = std::fma(aval, brow[j], c[j]);
  }
}

void avx2_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                     float alpha, const float* ap, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc) noexcept {
  const std::int64_t mb4 = mb & ~std::int64_t{3};
  const std::int64_t nb16 = nb & ~std::int64_t{15};
  for (std::int64_t i = 0; i < mb4; i += 4) {
    for (std::int64_t j = 0; j < nb16; j += 16) {
      tile4x16(kb, alpha, ap + i * kb, kb, b + j, ldb, c + i * ldc + j, ldc);
    }
    if (nb16 < nb) {
      for (std::int64_t r = 0; r < 4; ++r) {
        tile1xN(nb - nb16, kb, alpha, ap + (i + r) * kb, b + nb16, ldb,
                c + (i + r) * ldc + nb16);
      }
    }
  }
  for (std::int64_t i = mb4; i < mb; ++i) {
    tile1xN(nb, kb, alpha, ap + i * kb, b, ldb, c + i * ldc);
  }
}

// ---- elementwise -----------------------------------------------------------

void avx2_relu(const float* x, float* o, std::int64_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  // maxps(x, 0) returns the second operand when x is NaN — the same 0 the
  // scalar branch (x > 0 ? x : 0) produces.
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void avx2_add(const float* a, const float* b, float* o,
              std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void avx2_bias_add_row(float* row, const float* bias, std::int64_t n) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i),
                                            _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) row[i] += bias[i];
}

void avx2_bias_add_const(float* row, float value, std::int64_t n) noexcept {
  const __m256 v = _mm256_set1_ps(value);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i), v));
  }
  for (; i < n; ++i) row[i] += value;
}

// ---- bounded activations ---------------------------------------------------

/// Vector core of one clip step: mirrors the scalar branch cascade
///   x <= 0 -> 0;  x <= b -> x;  else -> over (0 or b)
/// with ordered-quiet compares, so NaN (both compares false) maps to `over`
/// exactly as in the scalar backend.
inline __m256 clip8(__m256 x, __m256 b, __m256 over, __m256 zero) noexcept {
  const __m256 le0 = _mm256_cmp_ps(x, zero, _CMP_LE_OQ);
  const __m256 leb = _mm256_cmp_ps(x, b, _CMP_LE_OQ);
  __m256 r = _mm256_blendv_ps(over, x, leb);  // x <= b ? x : over
  r = _mm256_blendv_ps(r, zero, le0);         // x <= 0 ? 0 : r
  return r;
}

/// events += popcount(!(x <= b)) for one vector — _CMP_NLE_UQ is true for
/// NaN, matching the scalar `!(x <= b)` tally.
inline std::uint64_t count8(__m256 x, __m256 b) noexcept {
  return static_cast<std::uint64_t>(__builtin_popcount(static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_cmp_ps(x, b, _CMP_NLE_UQ)))));
}

inline std::uint64_t clip_span_const(const float* x, float bound,
                                     bool saturate, float* o, std::int64_t n,
                                     bool count) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 bv = _mm256_set1_ps(bound);
  const __m256 over = saturate ? bv : zero;
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    if (count) events += count8(xv, bv);
    _mm256_storeu_ps(o + i, clip8(xv, bv, over, zero));
  }
  const float over_s = saturate ? bound : 0.0f;
  for (; i < n; ++i) {
    const float xi = x[i];
    if (count) events += !(xi <= bound);
    o[i] = xi <= 0.0f ? 0.0f : (xi <= bound ? xi : over_s);
  }
  return events;
}

inline std::uint64_t clip_span_rowwise(const float* x, const float* bound,
                                       bool saturate, float* o,
                                       std::int64_t n, bool count) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 bv = _mm256_loadu_ps(bound + i);
    if (count) events += count8(xv, bv);
    _mm256_storeu_ps(o + i, clip8(xv, bv, saturate ? bv : zero, zero));
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    const float bi = bound[i];
    if (count) events += !(xi <= bi);
    o[i] = xi <= 0.0f ? 0.0f : (xi <= bi ? xi : (saturate ? bi : 0.0f));
  }
  return events;
}

std::uint64_t avx2_clipped_relu(const float* x, const float* bound,
                                std::int64_t bound_numel, std::int64_t feat,
                                std::int64_t hw, bool saturate, float* o,
                                std::int64_t n, bool count) noexcept {
  return over_bound_spans(
      bound, bound_numel, feat, hw, n,
      [&](std::int64_t off, std::int64_t len, const float* b) {
        return clip_span_const(x + off, *b, saturate, o + off, len, count);
      },
      [&](std::int64_t off, std::int64_t len, const float* row) {
        return clip_span_rowwise(x + off, row, saturate, o + off, len, count);
      });
}

inline std::uint64_t count_span_const(const float* x, float bound,
                                      std::int64_t n) noexcept {
  const __m256 bv = _mm256_set1_ps(bound);
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) events += count8(_mm256_loadu_ps(x + i), bv);
  for (; i < n; ++i) events += !(x[i] <= bound);
  return events;
}

inline std::uint64_t count_span_rowwise(const float* x, const float* bound,
                                        std::int64_t n) noexcept {
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    events += count8(_mm256_loadu_ps(x + i), _mm256_loadu_ps(bound + i));
  }
  for (; i < n; ++i) events += !(x[i] <= bound[i]);
  return events;
}

std::uint64_t avx2_count_over_bound(const float* x, const float* bound,
                                    std::int64_t bound_numel,
                                    std::int64_t feat, std::int64_t hw,
                                    std::int64_t n) noexcept {
  return over_bound_spans(
      bound, bound_numel, feat, hw, n,
      [x](std::int64_t off, std::int64_t len, const float* b) {
        return count_span_const(x + off, *b, len);
      },
      [x](std::int64_t off, std::int64_t len, const float* row) {
        return count_span_rowwise(x + off, row, len);
      });
}

// ---- FitReLU ---------------------------------------------------------------

/// table_expf's double-precision steps (kernels_scalar.cpp) on 4 lanes, for
/// arguments that take its main path. The explicit fmadd/fmsub are the
/// scalar form's std::fma calls; the other steps are the same single IEEE
/// operations, so each lane is bit-identical to the scalar result.
inline __m256d expf_steps4(__m256d xd) noexcept {
  const __m256d inv_ln2n = _mm256_set1_pd(kExpfInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpfShift);
  __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i entry = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExpfTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s = _mm256_castsi256_pd(
      _mm256_add_epi64(entry, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpfC0), r,
                                    _mm256_set1_pd(kExpfC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpfC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_mul_pd(y, s);
}

/// table_expf on 8 lanes whose arguments are <= 0 or NaN (fitrelu's
/// -|t|), so the overflow branch never applies: each half runs in double,
/// then the underflow (-> 0, including -inf) and NaN (-> a + a) cases are
/// blended over the main-path result.
inline __m256 exp8_nonpositive(__m256 a) noexcept {
  const __m128 lo = _mm256_cvtpd_ps(
      expf_steps4(_mm256_cvtps_pd(_mm256_castps256_ps128(a))));
  const __m128 hi = _mm256_cvtpd_ps(
      expf_steps4(_mm256_cvtps_pd(_mm256_extractf128_ps(a, 1))));
  __m256 e = _mm256_set_m128(hi, lo);
  e = _mm256_blendv_ps(
      e, _mm256_setzero_ps(),
      _mm256_cmp_ps(a, _mm256_set1_ps(kExpfUnderflow), _CMP_LT_OQ));
  return _mm256_blendv_ps(e, _mm256_add_ps(a, a),
                          _mm256_cmp_ps(a, a, _CMP_UNORD_Q));
}

/// The scalar backend's fitrelu1 on 8 lanes: x <= 0 -> 0, else
/// x * ((t >= 0 ? 1 : e) / (1 + e)) with t = k * (l - x), e = exp(-|t|).
inline __m256 fitrelu8(__m256 x, __m256 l, __m256 k) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = _mm256_mul_ps(k, _mm256_sub_ps(l, x));
  const __m256 e = exp8_nonpositive(_mm256_or_ps(t, _mm256_set1_ps(-0.0f)));
  const __m256 num =
      _mm256_blendv_ps(e, one, _mm256_cmp_ps(t, zero, _CMP_GE_OQ));
  const __m256 y =
      _mm256_mul_ps(x, _mm256_div_ps(num, _mm256_add_ps(one, e)));
  return _mm256_blendv_ps(y, zero, _mm256_cmp_ps(x, zero, _CMP_LE_OQ));
}

/// One span of n elements under one bound (*l) or, when kRowwise, the bound
/// row l[0, n). The n % 8 tail runs the same vector steps on masked loads:
/// lanes past n are neither stored nor counted.
template <bool kRowwise>
std::uint64_t fitrelu_span(const float* x, const float* l, float k, float* o,
                           std::int64_t n, bool count) noexcept {
  const __m256 kv = _mm256_set1_ps(k);
  const __m256 lc = _mm256_set1_ps(*l);
  std::uint64_t events = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 lv = kRowwise ? _mm256_loadu_ps(l + i) : lc;
    if (count) events += count8(xv, lv);
    _mm256_storeu_ps(o + i, fitrelu8(xv, lv, kv));
  }
  if (i < n) {
    const __m256i live =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 xv = _mm256_maskload_ps(x + i, live);
    const __m256 lv = kRowwise ? _mm256_maskload_ps(l + i, live) : lc;
    if (count) {
      const int over = _mm256_movemask_ps(_mm256_cmp_ps(xv, lv, _CMP_NLE_UQ)) &
                       _mm256_movemask_ps(_mm256_castsi256_ps(live));
      events += static_cast<std::uint64_t>(
          __builtin_popcount(static_cast<unsigned>(over)));
    }
    _mm256_maskstore_ps(o + i, live, fitrelu8(xv, lv, kv));
  }
  return events;
}

std::uint64_t avx2_fitrelu(const float* x, const float* lambda,
                           std::int64_t lambda_numel, std::int64_t feat,
                           std::int64_t hw, float k, float* o, std::int64_t n,
                           bool count) noexcept {
  return over_bound_spans(
      lambda, lambda_numel, feat, hw, n,
      [&](std::int64_t off, std::int64_t len, const float* b) {
        return fitrelu_span<false>(x + off, b, k, o + off, len, count);
      },
      [&](std::int64_t off, std::int64_t len, const float* row) {
        return fitrelu_span<true>(x + off, row, k, o + off, len, count);
      });
}

}  // namespace

const KernelTable& avx2_table() noexcept {
  static constexpr KernelTable kTable = {
      avx2_gemm_panel,    avx2_relu,
      avx2_add,           avx2_bias_add_row,
      avx2_bias_add_const, avx2_clipped_relu,
      avx2_count_over_bound,
      avx2_fitrelu,
      avx2_gemm_i8_dot,
      avx2_gemm_i8u8_dot,
      avx2_quantize_i8,
      avx2_dequant_i32,
      avx2_dequant_i32_row,
  };
  return kTable;
}

}  // namespace fitact::kern

#endif  // FITACT_HAVE_AVX2_KERNELS
