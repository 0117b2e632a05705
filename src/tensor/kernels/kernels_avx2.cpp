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

#include <algorithm>
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

// ---- direct convolution ----------------------------------------------------
//
// avx2_conv_direct computes register tiles of up to 4 output channels x 16
// output positions (positions q0..q0+15 of the flattened [oh, ow] map, as
// two 8-lane halves). A position's top-left tap sits at padded offset
// (q / ow) * wp + q % ow, and tap (c, i, j) adds c * hp * wp + i * wp + j.
// Lanes of one output row read consecutive floats; every row boundary a
// half crosses shifts the lanes after it by wp - ow (= kw - 1). A Half
// builds one half's operand vector for a tap from those row segments and
// stores its results.

/// All 8 lanes in one row segment (or kw == 1, where rows never shift).
struct HalfOneRow {
  const float* src;
  [[nodiscard]] __m256 load(std::int64_t tap) const noexcept {
    return _mm256_loadu_ps(src + tap);
  }
  void store(float* dst, __m256 v) const noexcept { _mm256_storeu_ps(dst, v); }
};

/// 8 lanes as two whole rows of a 4-wide map: two 128-bit loads, one
/// padded row apart.
struct HalfRowPair {
  const float* src;
  std::int64_t wp;
  [[nodiscard]] __m256 load(std::int64_t tap) const noexcept {
    return _mm256_loadu2_m128(src + wp + tap, src + tap);
  }
  void store(float* dst, __m256 v) const noexcept { _mm256_storeu_ps(dst, v); }
};

/// Any half, including the map's last partial one: each row segment is a
/// masked load of its own lanes, ORed into the rest (masked-off lanes read
/// as +0 bits, so every live lane keeps its exact value). Lanes past the
/// map's end are neither read nor stored.
struct HalfAnyRows {
  const float* src[8];
  __m256i lanes[8];
  int segments = 0;
  __m256i live;
  [[nodiscard]] __m256 load(std::int64_t tap) const noexcept {
    __m256 v = _mm256_maskload_ps(src[0] + tap, lanes[0]);
    for (int s = 1; s < segments; ++s) {
      v = _mm256_or_ps(v, _mm256_maskload_ps(src[s] + tap, lanes[s]));
    }
    return v;
  }
  void store(float* dst, __m256 v) const noexcept {
    _mm256_maskstore_ps(dst, live, v);
  }
};

/// Lanes [begin, end) of an 8-lane mask.
inline __m256i lane_range(std::int64_t begin, std::int64_t end) noexcept {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_andnot_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(begin)), iota),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(end)), iota));
}

/// The half whose lane 0 is position q, with `live` (0..8) lanes on the map.
inline HalfAnyRows any_rows(const float* xp, std::int64_t wp, std::int64_t ow,
                            std::int64_t q, std::int64_t live) noexcept {
  HalfAnyRows h;
  h.live = lane_range(0, live);
  for (std::int64_t l = 0; l < live;) {
    const std::int64_t ox = (q + l) % ow;
    const std::int64_t len = std::min(live - l, ow - ox);
    // Lane l' of this segment reads src + l' (its padded offset).
    h.src[h.segments] = xp + ((q + l) / ow) * wp + ox - l;
    h.lanes[h.segments] = lane_range(l, l + len);
    ++h.segments;
    l += len;
  }
  if (h.segments == 0) {  // a dead half: read and store nothing
    h.src[0] = xp;
    h.lanes[0] = _mm256_setzero_si256();
    h.segments = 1;
  }
  return h;
}

/// One sample's direct convolution: the shape, and the sweep over register
/// tiles of up to 4 output channels x 16 positions.
struct DirectConv {
  std::int64_t in_c, kh, kw, wp, ow, ohw, plane, taps, shift;
  const float* xp;
  const float* w;
  float* out;

  /// Output channels o..o+kRows-1 over the tile's two halves, starting at
  /// +0 and taking one fma per tap in (c, i, j) order: per element, exactly
  /// tile4x16's (or tile1xN's) chain over the im2col matrix. Common kernel
  /// sizes get constant tap loops.
  template <int kRows, class Half>
  void tile(std::int64_t o, std::int64_t q0, const Half& lo,
            const Half& hi) const noexcept {
    __m256 acc[kRows][2];
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
    const float* wt = w + o * taps;
    const auto tap = [&](std::int64_t off) {
      const __m256 b0 = lo.load(off);
      const __m256 b1 = hi.load(off);
#pragma GCC unroll 4
      for (int r = 0; r < kRows; ++r) {
        const __m256 a = _mm256_broadcast_ss(wt + r * taps);
        acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
      }
      ++wt;
    };
    if (kh == 1 && kw == 1) {
      for (std::int64_t c = 0; c < in_c; ++c) tap(c * plane);
    } else if (kh == 3 && kw == 3) {
      for (std::int64_t c = 0; c < in_c; ++c) {
#pragma GCC unroll 3
        for (int i = 0; i < 3; ++i) {
          const std::int64_t row = c * plane + i * wp;
          tap(row);
          tap(row + 1);
          tap(row + 2);
        }
      }
    } else {
      for (std::int64_t c = 0; c < in_c; ++c) {
        for (std::int64_t i = 0; i < kh; ++i) {
          for (std::int64_t j = 0; j < kw; ++j) tap(c * plane + i * wp + j);
        }
      }
    }
    float* const dst = out + o * ohw + q0;
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      lo.store(dst + r * ohw, acc[r][0]);
      hi.store(dst + r * ohw + 8, acc[r][1]);
    }
  }

  [[nodiscard]] const float* src_of(std::int64_t q) const noexcept {
    return xp + (q / ow) * wp + q % ow;
  }

  /// Output channels o..o+kRows-1 over the whole map, tile by tile, each
  /// with the cheapest loaders that fit it.
  template <int kRows>
  void block(std::int64_t o) const noexcept {
    for (std::int64_t q0 = 0; q0 < ohw; q0 += 16) {
      const std::int64_t live = std::min<std::int64_t>(16, ohw - q0);
      const std::int64_t ox0 = q0 % ow;
      const std::int64_t ox1 = (q0 + 8) % ow;
      if (live == 16 && (shift == 0 || (ox0 + 8 <= ow && ox1 + 8 <= ow))) {
        tile<kRows>(o, q0, HalfOneRow{src_of(q0)}, HalfOneRow{src_of(q0 + 8)});
      } else if (live == 16 && ow == 4) {
        tile<kRows>(o, q0, HalfRowPair{src_of(q0), wp},
                    HalfRowPair{src_of(q0 + 8), wp});
      } else {
        tile<kRows>(o, q0,
                    any_rows(xp, wp, ow, q0, std::min<std::int64_t>(live, 8)),
                    any_rows(xp, wp, ow, q0 + 8,
                             std::max<std::int64_t>(live - 8, 0)));
      }
    }
  }
};

void avx2_conv_direct(std::int64_t out_c, std::int64_t in_c, std::int64_t hp,
                      std::int64_t wp, std::int64_t kh, std::int64_t kw,
                      const float* xp, const float* w, float* out) noexcept {
  const std::int64_t ow = wp - kw + 1;
  const DirectConv conv{.in_c = in_c,
                        .kh = kh,
                        .kw = kw,
                        .wp = wp,
                        .ow = ow,
                        .ohw = (hp - kh + 1) * ow,
                        .plane = hp * wp,
                        .taps = in_c * kh * kw,
                        .shift = wp - ow,
                        .xp = xp,
                        .w = w,
                        .out = out};
  // Channel blocks outermost, so each block's output planes fill in order.
  std::int64_t o = 0;
  for (; o + 4 <= out_c; o += 4) conv.block<4>(o);
  switch (out_c - o) {
    case 3:
      conv.block<3>(o);
      break;
    case 2:
      conv.block<2>(o);
      break;
    case 1:
      conv.block<1>(o);
      break;
    default:
      break;
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
/// That is exactly x where t >= kFitReluUnitT, so a vector whose every lane
/// has x <= 0 or t >= kFitReluUnitT (NaN fails both) skips the exp halves
/// and the divide.
inline __m256 fitrelu8(__m256 x, __m256 l, __m256 k) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 t = _mm256_mul_ps(k, _mm256_sub_ps(l, x));
  const __m256 nonpos = _mm256_cmp_ps(x, zero, _CMP_LE_OQ);
  const __m256 unit =
      _mm256_cmp_ps(t, _mm256_set1_ps(kFitReluUnitT), _CMP_GE_OQ);
  if (_mm256_movemask_ps(_mm256_or_ps(nonpos, unit)) == 0xff) {
    return _mm256_blendv_ps(x, zero, nonpos);
  }
  const __m256 e = exp8_nonpositive(_mm256_or_ps(t, _mm256_set1_ps(-0.0f)));
  const __m256 num =
      _mm256_blendv_ps(e, one, _mm256_cmp_ps(t, zero, _CMP_GE_OQ));
  const __m256 y =
      _mm256_mul_ps(x, _mm256_div_ps(num, _mm256_add_ps(one, e)));
  return _mm256_blendv_ps(y, zero, nonpos);
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
      avx2_gemm_panel,    avx2_conv_direct,
      avx2_relu,
      avx2_add,           avx2_bias_add_row,
      avx2_bias_add_const, avx2_clipped_relu,
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
