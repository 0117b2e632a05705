// AVX-512F bodies for the avx2 tier's two fp32 FMA slots, gemm_panel and
// conv_direct. Only compiled when the toolchain can target AVX-512F
// (FITACT_HAVE_AVX512F_KERNELS); dispatch.cpp swaps them into the avx2
// table only after cpuid confirms the host executes AVX-512F. There is no
// separate public backend: like the VNNI int8 GEMM, the avx2 tier upgrades
// two slots. The file name keeps the kernels_avx2* prefix so
// scripts/lint.sh's <immintrin.h> allowlist covers it.
//
// Bit identity with the AVX2 bodies (kernels_avx2.cpp) is the contract: a
// register tile only decides which lanes an element's chain runs in, never
// the chain. Every output element starts from C's value (gemm_panel) or +0
// (conv_direct), takes its terms in k order, or (c, i, j) tap order, one
// fma per term, tile edges included, and multiplies border zeros like any
// other operand. The lanes are 16 wide instead of 8, and the tiles hold
// more of them; nothing else differs. Built with -ffp-contract=off like the
// AVX2 TU, so the only fused steps are the ones spelled out here.
#include "tensor/kernels/kernel_table.h"

#if defined(FITACT_HAVE_AVX512F_KERNELS)

#include <immintrin.h>

#include <algorithm>

namespace fitact::kern {
namespace {

/// Lanes [0, n) of a 16-lane mask, n in [0, 16].
inline __mmask16 first_lanes(std::int64_t n) noexcept {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// ---- GEMM panel ------------------------------------------------------------

/// kRows rows x kCols 16-column vectors of C, held in zmm accumulators
/// across the whole kb loop. m0 and m1 select the live columns of the two
/// vectors: masked-off lanes are neither loaded nor stored, and their
/// accumulators take sums nobody reads. Each live element runs the AVX2
/// body's chain: C's value, then fma(alpha * a[p], b[p], acc) for p in
/// order. With alpha == 1 (kUnit) the broadcast skips the multiply, which
/// changes no bit: 1 * x == x for every x but a NaN's payload.
template <int kRows, int kCols, bool kUnit>
void panel_tile(std::int64_t kb, float alpha, const float* ap,
                std::int64_t ap_stride, const float* b, std::int64_t ldb,
                float* c, std::int64_t ldc, __mmask16 m0,
                __mmask16 m1) noexcept {
  const __mmask16 mask[2] = {m0, m1};
  __m512 acc[kRows][kCols];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kCols; ++v) {
      acc[r][v] = _mm512_maskz_loadu_ps(mask[v], c + r * ldc + 16 * v);
    }
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    __m512 bv[kCols];
#pragma GCC unroll 2
    for (int v = 0; v < kCols; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(mask[v], b + p * ldb + 16 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const float a = ap[r * ap_stride + p];
      const __m512 av = _mm512_set1_ps(kUnit ? a : alpha * a);
#pragma GCC unroll 2
      for (int v = 0; v < kCols; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kCols; ++v) {
      _mm512_mask_storeu_ps(c + r * ldc + 16 * v, mask[v], acc[r][v]);
    }
  }
}

/// kRows rows across all nb columns: 32-column tiles, then one tile of the
/// 1..31 columns left, one or two vectors wide.
template <int kRows, bool kUnit>
void panel_rows(std::int64_t nb, std::int64_t kb, float alpha,
                const float* ap, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc) noexcept {
  constexpr __mmask16 kAll = 0xFFFF;
  std::int64_t j = 0;
  for (; j + 32 <= nb; j += 32) {
    panel_tile<kRows, 2, kUnit>(kb, alpha, ap, kb, b + j, ldb, c + j, ldc,
                                kAll, kAll);
  }
  const std::int64_t rest = nb - j;
  if (rest > 16) {
    panel_tile<kRows, 2, kUnit>(kb, alpha, ap, kb, b + j, ldb, c + j, ldc,
                                kAll, first_lanes(rest - 16));
  } else if (rest > 0) {
    panel_tile<kRows, 1, kUnit>(kb, alpha, ap, kb, b + j, ldb, c + j, ldc,
                                first_lanes(rest), 0);
  }
}

/// 8-row x 32-column tiles; the mb % 8 rows left run as one narrower band.
template <bool kUnit>
void panel(std::int64_t mb, std::int64_t nb, std::int64_t kb, float alpha,
           const float* ap, const float* b, std::int64_t ldb, float* c,
           std::int64_t ldc) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= mb; i += 8) {
    panel_rows<8, kUnit>(nb, kb, alpha, ap + i * kb, b, ldb, c + i * ldc, ldc);
  }
  const float* const ar = ap + i * kb;
  float* const cr = c + i * ldc;
  switch (mb - i) {
    case 7: panel_rows<7, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 6: panel_rows<6, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 5: panel_rows<5, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 4: panel_rows<4, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 3: panel_rows<3, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 2: panel_rows<2, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    case 1: panel_rows<1, kUnit>(nb, kb, alpha, ar, b, ldb, cr, ldc); break;
    default: break;
  }
}

// ---- direct convolution ----------------------------------------------------
//
// Register tiles of up to kRows output channels x kVecs vectors, a vector
// being 16 consecutive positions q..q+15 of the flattened [oh, ow] map. A
// position's top-left tap sits at padded offset (q / ow) * wp + q % ow, and
// tap (c, i, j) adds c * hp * wp + i * wp + j. Lanes of one output row read
// consecutive floats; each row boundary a vector crosses shifts the lanes
// after it by wp - ow (= kw - 1). A Vec builds one vector's operand for a
// tap from those offsets and stores its results; Kind names the cheapest
// Vec that fits a vector.

/// All 16 lanes on one padded row segment (ow a multiple of 16, or kw == 1,
/// where rows never shift): one load.
struct VecRow {
  const float* src;
  [[nodiscard]] __m512 load(std::int64_t tap) const noexcept {
    return _mm512_loadu_ps(src + tap);
  }
  void store(float* dst, __m512 v) const noexcept { _mm512_storeu_ps(dst, v); }
};

/// Lanes 0-7 on one row segment and lanes 8-15 on another (8-wide maps):
/// two 256-bit loads and an insert.
struct VecHalves {
  const float* lo;
  const float* hi;
  [[nodiscard]] __m512 load(std::int64_t tap) const noexcept {
    const __m512d v = _mm512_castps_pd(
        _mm512_castps256_ps512(_mm256_loadu_ps(lo + tap)));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        v, _mm256_castps_pd(_mm256_loadu_ps(hi + tap)), 1));
  }
  void store(float* dst, __m512 v) const noexcept { _mm512_storeu_ps(dst, v); }
};

/// 16 lanes over several rows whose offsets span 17 to 32 floats (four
/// 4-wide rows span 22 for a 3x3 kernel): two loads that together cover
/// the span, the second one ending on its last float, and one permute that
/// picks each lane's float. Both loads stay inside the span, so nothing
/// past the vector's last position is read.
struct VecSpan {
  const float* src;
  std::int64_t hi;  ///< second load's offset: span - 16
  __m512i pick;     ///< lane l: its offset if < 16, else 16 + offset - hi
  [[nodiscard]] __m512 load(std::int64_t tap) const noexcept {
    return _mm512_permutex2var_ps(_mm512_loadu_ps(src + tap), pick,
                                  _mm512_loadu_ps(src + hi + tap));
  }
  void store(float* dst, __m512 v) const noexcept { _mm512_storeu_ps(dst, v); }
};

/// Any lanes, including the map's last partial vector and spans over 32
/// floats (maps one to three positions wide): a masked gather. Lanes past
/// the map's end are neither read nor stored.
struct VecGather {
  const float* src;
  __m512i offsets;
  __mmask16 live;
  [[nodiscard]] __m512 load(std::int64_t tap) const noexcept {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), live, offsets,
                                    src + tap, 4);
  }
  void store(float* dst, __m512 v) const noexcept {
    _mm512_mask_storeu_ps(dst, live, v);
  }
};

enum class Kind { row, halves, span, gather };

/// One sample's direct convolution: the shape, and the sweep over register
/// tiles.
struct DirectConv {
  std::int64_t in_c, kh, kw, wp, ow, ohw, plane, taps;
  const float* xp;
  const float* w;
  float* out;

  /// Output channels o..o+kRows-1 over kVecs vectors from position q0,
  /// starting at +0 and taking one fma per tap in (c, i, j) order: per
  /// element, exactly the AVX2 body's chain. Common kernel sizes get
  /// constant tap loops.
  template <int kRows, int kVecs, class Vec>
  void tile(std::int64_t o, std::int64_t q0,
            const Vec (&vec)[kVecs]) const noexcept {
    __m512 acc[kRows][kVecs];
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm512_setzero_ps();
    }
    const float* wt = w + o * taps;
    // Inlined at each of the three call sites below: out of line, the
    // accumulators would round-trip through memory on every tap.
    const auto tap = [&](std::int64_t off) __attribute__((always_inline)) {
      __m512 x[kVecs];
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) x[v] = vec[v].load(off);
#pragma GCC unroll 16
      for (int r = 0; r < kRows; ++r) {
        const __m512 a = _mm512_set1_ps(wt[r * taps]);
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm512_fmadd_ps(a, x[v], acc[r][v]);
        }
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
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        vec[v].store(dst + r * ohw + 16 * v, acc[r][v]);
      }
    }
  }

  [[nodiscard]] std::int64_t offset_of(std::int64_t q) const noexcept {
    return (q / ow) * wp + q % ow;
  }

  /// The loader the vector of positions q..q+live-1 needs.
  [[nodiscard]] Kind kind_of(std::int64_t q, std::int64_t live) const noexcept {
    if (live < 16) return Kind::gather;
    const std::int64_t span = offset_of(q + 15) - offset_of(q) + 1;
    if (span == 16) return Kind::row;
    if (q % ow + 8 <= ow && (q + 8) % ow + 8 <= ow) return Kind::halves;
    return span <= 32 ? Kind::span : Kind::gather;
  }

  [[nodiscard]] VecRow row(std::int64_t q) const noexcept {
    return {xp + offset_of(q)};
  }
  [[nodiscard]] VecHalves halves(std::int64_t q) const noexcept {
    return {xp + offset_of(q), xp + offset_of(q + 8)};
  }
  [[nodiscard]] VecSpan span(std::int64_t q) const noexcept {
    const std::int64_t base = offset_of(q);
    const std::int64_t hi = offset_of(q + 15) - base + 1 - 16;
    alignas(64) int pick[16];
    for (std::int64_t l = 0; l < 16; ++l) {
      const std::int64_t off = offset_of(q + l) - base;
      pick[l] = static_cast<int>(off < 16 ? off : 16 + off - hi);
    }
    return {xp + base, hi, _mm512_load_si512(pick)};
  }
  [[nodiscard]] VecGather gather(std::int64_t q,
                                 std::int64_t live) const noexcept {
    alignas(64) int off[16] = {};
    const std::int64_t base = offset_of(q);
    for (std::int64_t l = 0; l < live; ++l) {
      off[l] = static_cast<int>(offset_of(q + l) - base);
    }
    return {xp + base, _mm512_load_si512(off), first_lanes(live)};
  }

  /// Output channels o..o+kRows-1 over the whole map. Two vectors of one
  /// kind share a tile when kRows <= 8, so every tile holds at most 16
  /// accumulators.
  template <int kRows>
  void block(std::int64_t o) const noexcept {
    for (std::int64_t q = 0; q < ohw;) {
      const std::int64_t live = std::min<std::int64_t>(16, ohw - q);
      const Kind kind = kind_of(q, live);
      if constexpr (kRows <= 8) {
        if (kind != Kind::gather && q + 32 <= ohw &&
            kind_of(q + 16, 16) == kind) {
          if (kind == Kind::row) {
            tile<kRows, 2>(o, q, {row(q), row(q + 16)});
          } else if (kind == Kind::halves) {
            tile<kRows, 2>(o, q, {halves(q), halves(q + 16)});
          } else {
            tile<kRows, 2>(o, q, {span(q), span(q + 16)});
          }
          q += 32;
          continue;
        }
      }
      switch (kind) {
        case Kind::row: tile<kRows, 1>(o, q, {row(q)}); break;
        case Kind::halves: tile<kRows, 1>(o, q, {halves(q)}); break;
        case Kind::span: tile<kRows, 1>(o, q, {span(q)}); break;
        case Kind::gather: tile<kRows, 1>(o, q, {gather(q, live)}); break;
      }
      q += 16;
    }
  }
};

}  // namespace

void avx2_avx512_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                            float alpha, const float* ap, const float* b,
                            std::int64_t ldb, float* c,
                            std::int64_t ldc) noexcept {
  if (alpha == 1.0f) {
    panel<true>(mb, nb, kb, alpha, ap, b, ldb, c, ldc);
  } else {
    panel<false>(mb, nb, kb, alpha, ap, b, ldb, c, ldc);
  }
}

void avx2_avx512_conv_direct(std::int64_t out_c, std::int64_t in_c,
                             std::int64_t hp, std::int64_t wp,
                             std::int64_t kh, std::int64_t kw, const float* xp,
                             const float* w, float* out) noexcept {
  const std::int64_t ow = wp - kw + 1;
  const DirectConv conv{.in_c = in_c,
                        .kh = kh,
                        .kw = kw,
                        .wp = wp,
                        .ow = ow,
                        .ohw = (hp - kh + 1) * ow,
                        .plane = hp * wp,
                        .taps = in_c * kh * kw,
                        .xp = xp,
                        .w = w,
                        .out = out};
  // Tiles of 8 channels x two vectors fill 16 accumulators. A map of one
  // vector (4x4) takes 16 channels instead, which also shares each
  // vector's permute among 16 FMAs. Channel blocks outermost, so each
  // block's output planes fill in order; the channels left over run as
  // blocks of 8, 4, 2 and 1.
  std::int64_t o = 0;
  if (conv.ohw < 32) {
    for (; o + 16 <= out_c; o += 16) conv.block<16>(o);
  }
  for (; o + 8 <= out_c; o += 8) conv.block<8>(o);
  if (o + 4 <= out_c) {
    conv.block<4>(o);
    o += 4;
  }
  if (o + 2 <= out_c) {
    conv.block<2>(o);
    o += 2;
  }
  if (o < out_c) conv.block<1>(o);
}

}  // namespace fitact::kern

#endif  // FITACT_HAVE_AVX512F_KERNELS
