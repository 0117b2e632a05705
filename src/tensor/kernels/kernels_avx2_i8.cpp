// AVX2 int8 kernels. Only compiled when the toolchain targets AVX2
// (FITACT_HAVE_AVX2_KERNELS); selected by dispatch.cpp only after cpuid.
// This TU and kernels_avx2.cpp are the only files allowed to include
// <immintrin.h> (scripts/lint.sh enforces it).
//
// Bit-identity with the scalar int8 TU is a hard contract (kernels.h):
//   * gemm_i8_dot widens both operands to int16 (_mm256_cvtepi8_epi16) and
//     accumulates _mm256_madd_epi16 pair-sums into int32 lanes. Every
//     product of two values in [-128, 127] is exact and integer addition is
//     order-independent, so accumulators match the scalar kernel bit-for-bit
//     for the full int8 range — including the -128 only bit flips produce.
//     (The maddubs unsigned*signed trick is deliberately avoided HERE: its
//     sign-transfer prepass wraps on a corrupted -128 and would break this.)
//   * gemm_i8u8_dot is where maddubs IS safe, with no prepass at all: the
//     caller guarantees one operand's bytes are genuine u8 in [0,127]
//     (FitAct's clamp makes post-activation values nonnegative), so each
//     maddubs int16 pair sum is bounded by 2*127*128 < 2^15 and cannot
//     saturate even against a fault-flipped -128 weight. Exact pairs + exact
//     int32 madd keep it bit-identical to the scalar/signed kernels.
//   * quantize_i8 mirrors the scalar clamp/round branches; NaN is masked to
//     0 explicitly because maxps/minps would otherwise leak it as -127.
//   * The dequantize kernels use mul-then-add (two IEEE roundings), never
//     FMA, matching scalar float(acc) * scale + bias exactly.
#if defined(FITACT_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "tensor/kernels/kernel_table.h"

namespace fitact::kern {
namespace {

inline std::int32_t hsum_epi32(__m256i v) noexcept {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// acc += dot of 32 int8 pairs, as 8 int32 partial sums.
inline __m256i dot32(__m256i acc, __m256i a, __m256i b) noexcept {
  const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a));
  const __m256i a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a, 1));
  const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
  const __m256i b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
  acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
}

/// Pre-widened operand half: madd the int16 halves of one 32-byte chunk.
inline __m256i dot32w(__m256i acc, __m256i a_lo, __m256i a_hi, __m256i b)
    noexcept {
  const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
  const __m256i b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
  acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
}

/// Transpose-reduce four int32x8 accumulators to their four lane sums.
/// Integer addition is associative, so any reduction order yields the same
/// bits as four independent hsum_epi32 calls — this one costs ~6 shuffles
/// for all four outputs instead of ~6 each.
inline __m128i hsum4_epi32(__m256i v0, __m256i v1, __m256i v2,
                           __m256i v3) noexcept {
  const __m256i s01 = _mm256_hadd_epi32(v0, v1);
  const __m256i s23 = _mm256_hadd_epi32(v2, v3);
  const __m256i s = _mm256_hadd_epi32(s01, s23);
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

inline __m256i loadu_256(const void* p) noexcept {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// acc += dot of 32 u8xs8 byte pairs. maddubs wants its unsigned operand
/// first; kAU says whether that is the GEMM's a or b. The int16 pair sums
/// are exact for u in [0,127] (see file comment), and madd against ones
/// widens them exactly to int32.
template <bool kAU>
inline __m256i dot32u(__m256i acc, __m256i av, __m256i bv,
                      __m256i ones) noexcept {
  const __m256i pair =
      kAU ? _mm256_maddubs_epi16(av, bv) : _mm256_maddubs_epi16(bv, av);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(pair, ones));
}

/// gemm_i8u8_dot body: the signed kernel's 2x4 tile with each widen+2*madd
/// dot replaced by one maddubs+madd — double the bytes per instruction.
template <bool kAU>
void gemm_i8u8_tile(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc) noexcept {
  const __m256i ones = _mm256_set1_epi16(1);
  const std::int64_t k32 = k & ~static_cast<std::int64_t>(31);
  std::int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const std::int8_t* arow0 = a + i * lda;
    const std::int8_t* arow1 = a + (i + 1) * lda;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + (j + 0) * ldb;
      const std::int8_t* b1 = b + (j + 1) * ldb;
      const std::int8_t* b2 = b + (j + 2) * ldb;
      const std::int8_t* b3 = b + (j + 3) * ldb;
      __m256i acc00 = _mm256_setzero_si256();
      __m256i acc01 = _mm256_setzero_si256();
      __m256i acc02 = _mm256_setzero_si256();
      __m256i acc03 = _mm256_setzero_si256();
      __m256i acc10 = _mm256_setzero_si256();
      __m256i acc11 = _mm256_setzero_si256();
      __m256i acc12 = _mm256_setzero_si256();
      __m256i acc13 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i a0 = loadu_256(arow0 + p);
        const __m256i a1 = loadu_256(arow1 + p);
        const __m256i bv0 = loadu_256(b0 + p);
        acc00 = dot32u<kAU>(acc00, a0, bv0, ones);
        acc10 = dot32u<kAU>(acc10, a1, bv0, ones);
        const __m256i bv1 = loadu_256(b1 + p);
        acc01 = dot32u<kAU>(acc01, a0, bv1, ones);
        acc11 = dot32u<kAU>(acc11, a1, bv1, ones);
        const __m256i bv2 = loadu_256(b2 + p);
        acc02 = dot32u<kAU>(acc02, a0, bv2, ones);
        acc12 = dot32u<kAU>(acc12, a1, bv2, ones);
        const __m256i bv3 = loadu_256(b3 + p);
        acc03 = dot32u<kAU>(acc03, a0, bv3, ones);
        acc13 = dot32u<kAU>(acc13, a1, bv3, ones);
      }
      __m128i sums0 = hsum4_epi32(acc00, acc01, acc02, acc03);
      __m128i sums1 = hsum4_epi32(acc10, acc11, acc12, acc13);
      if (p < k) {
        alignas(16) std::int32_t t0[4];
        alignas(16) std::int32_t t1[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(t0), sums0);
        _mm_store_si128(reinterpret_cast<__m128i*>(t1), sums1);
        for (; p < k; ++p) {
          const std::int32_t a0v = arow0[p];
          const std::int32_t a1v = arow1[p];
          t0[0] += a0v * b0[p];
          t0[1] += a0v * b1[p];
          t0[2] += a0v * b2[p];
          t0[3] += a0v * b3[p];
          t1[0] += a1v * b0[p];
          t1[1] += a1v * b1[p];
          t1[2] += a1v * b2[p];
          t1[3] += a1v * b3[p];
        }
        sums0 = _mm_load_si128(reinterpret_cast<const __m128i*>(t0));
        sums1 = _mm_load_si128(reinterpret_cast<const __m128i*>(t1));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * ldc + j), sums0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + (i + 1) * ldc + j),
                       sums1);
    }
    for (; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i bv = loadu_256(brow + p);
        acc0 = dot32u<kAU>(acc0, loadu_256(arow0 + p), bv, ones);
        acc1 = dot32u<kAU>(acc1, loadu_256(arow1 + p), bv, ones);
      }
      std::int32_t s0 = hsum_epi32(acc0);
      std::int32_t s1 = hsum_epi32(acc1);
      for (; p < k; ++p) {
        const std::int32_t bv = brow[p];
        s0 += static_cast<std::int32_t>(arow0[p]) * bv;
        s1 += static_cast<std::int32_t>(arow1[p]) * bv;
      }
      c[i * ldc + j] = s0;
      c[(i + 1) * ldc + j] = s1;
    }
  }
  for (; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + (j + 0) * ldb;
      const std::int8_t* b1 = b + (j + 1) * ldb;
      const std::int8_t* b2 = b + (j + 2) * ldb;
      const std::int8_t* b3 = b + (j + 3) * ldb;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i av = loadu_256(arow + p);
        acc0 = dot32u<kAU>(acc0, av, loadu_256(b0 + p), ones);
        acc1 = dot32u<kAU>(acc1, av, loadu_256(b1 + p), ones);
        acc2 = dot32u<kAU>(acc2, av, loadu_256(b2 + p), ones);
        acc3 = dot32u<kAU>(acc3, av, loadu_256(b3 + p), ones);
      }
      __m128i sums = hsum4_epi32(acc0, acc1, acc2, acc3);
      if (p < k) {
        alignas(16) std::int32_t t[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(t), sums);
        for (; p < k; ++p) {
          const std::int32_t av = arow[p];
          t[0] += av * b0[p];
          t[1] += av * b1[p];
          t[2] += av * b2[p];
          t[3] += av * b3[p];
        }
        sums = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * ldc + j), sums);
    }
    for (; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      __m256i acc = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        acc = dot32u<kAU>(acc, loadu_256(arow + p), loadu_256(brow + p), ones);
      }
      std::int32_t s = hsum_epi32(acc);
      for (; p < k; ++p) {
        s += static_cast<std::int32_t>(arow[p]) *
             static_cast<std::int32_t>(brow[p]);
      }
      c[i * ldc + j] = s;
    }
  }
}

/// float(acc) * scale + bias with two roundings (no FMA — see file comment).
inline __m256 dequant8(__m256i acc, __m256 scale, __m256 bias) noexcept {
  return _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), scale), bias);
}

}  // namespace

void avx2_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda,
                      const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc) noexcept {
  const std::int64_t k32 = k & ~static_cast<std::int64_t>(31);
  // 2x4 register tile. The serving GEMMs are short-k (an im2row conv's k is
  // a few dozen to a few hundred), so per-output fixed costs — operand
  // widening and the horizontal reduction — dominate a naive dot loop. The
  // tile makes both amortized: each A chunk is widened once and reused by
  // four B columns, each B chunk is widened once and reused by two A rows,
  // and the eight accumulators reduce via two 4-way hadd transposes instead
  // of eight lane-by-lane sums. All-integer arithmetic keeps every tiling
  // choice bit-identical to the scalar kernel.
  std::int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const std::int8_t* arow0 = a + i * lda;
    const std::int8_t* arow1 = a + (i + 1) * lda;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + (j + 0) * ldb;
      const std::int8_t* b1 = b + (j + 1) * ldb;
      const std::int8_t* b2 = b + (j + 2) * ldb;
      const std::int8_t* b3 = b + (j + 3) * ldb;
      __m256i acc00 = _mm256_setzero_si256();
      __m256i acc01 = _mm256_setzero_si256();
      __m256i acc02 = _mm256_setzero_si256();
      __m256i acc03 = _mm256_setzero_si256();
      __m256i acc10 = _mm256_setzero_si256();
      __m256i acc11 = _mm256_setzero_si256();
      __m256i acc12 = _mm256_setzero_si256();
      __m256i acc13 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i a0 = loadu_256(arow0 + p);
        const __m256i a1 = loadu_256(arow1 + p);
        const __m256i a0_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a0));
        const __m256i a0_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a0, 1));
        const __m256i a1_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(a1));
        const __m256i a1_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(a1, 1));
        {
          const __m256i bv = loadu_256(b0 + p);
          const __m256i b_lo =
              _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
          const __m256i b_hi =
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
          acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(a0_lo, b_lo));
          acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(a0_hi, b_hi));
          acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(a1_lo, b_lo));
          acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(a1_hi, b_hi));
        }
        {
          const __m256i bv = loadu_256(b1 + p);
          const __m256i b_lo =
              _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
          const __m256i b_hi =
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
          acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(a0_lo, b_lo));
          acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(a0_hi, b_hi));
          acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(a1_lo, b_lo));
          acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(a1_hi, b_hi));
        }
        {
          const __m256i bv = loadu_256(b2 + p);
          const __m256i b_lo =
              _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
          const __m256i b_hi =
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
          acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(a0_lo, b_lo));
          acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(a0_hi, b_hi));
          acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(a1_lo, b_lo));
          acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(a1_hi, b_hi));
        }
        {
          const __m256i bv = loadu_256(b3 + p);
          const __m256i b_lo =
              _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
          const __m256i b_hi =
              _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
          acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(a0_lo, b_lo));
          acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(a0_hi, b_hi));
          acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(a1_lo, b_lo));
          acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(a1_hi, b_hi));
        }
      }
      __m128i sums0 = hsum4_epi32(acc00, acc01, acc02, acc03);
      __m128i sums1 = hsum4_epi32(acc10, acc11, acc12, acc13);
      if (p < k) {
        alignas(16) std::int32_t t0[4];
        alignas(16) std::int32_t t1[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(t0), sums0);
        _mm_store_si128(reinterpret_cast<__m128i*>(t1), sums1);
        for (; p < k; ++p) {
          const std::int32_t a0 = arow0[p];
          const std::int32_t a1 = arow1[p];
          t0[0] += a0 * b0[p];
          t0[1] += a0 * b1[p];
          t0[2] += a0 * b2[p];
          t0[3] += a0 * b3[p];
          t1[0] += a1 * b0[p];
          t1[1] += a1 * b1[p];
          t1[2] += a1 * b2[p];
          t1[3] += a1 * b3[p];
        }
        sums0 = _mm_load_si128(reinterpret_cast<const __m128i*>(t0));
        sums1 = _mm_load_si128(reinterpret_cast<const __m128i*>(t1));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * ldc + j), sums0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + (i + 1) * ldc + j),
                       sums1);
    }
    for (; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i bv = loadu_256(brow + p);
        const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        const __m256i b_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
        acc0 = dot32w(acc0, b_lo, b_hi, loadu_256(arow0 + p));
        acc1 = dot32w(acc1, b_lo, b_hi, loadu_256(arow1 + p));
      }
      std::int32_t s0 = hsum_epi32(acc0);
      std::int32_t s1 = hsum_epi32(acc1);
      for (; p < k; ++p) {
        const std::int32_t bv = brow[p];
        s0 += static_cast<std::int32_t>(arow0[p]) * bv;
        s1 += static_cast<std::int32_t>(arow1[p]) * bv;
      }
      c[i * ldc + j] = s0;
      c[(i + 1) * ldc + j] = s1;
    }
  }
  for (; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + (j + 0) * ldb;
      const std::int8_t* b1 = b + (j + 1) * ldb;
      const std::int8_t* b2 = b + (j + 2) * ldb;
      const std::int8_t* b3 = b + (j + 3) * ldb;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        const __m256i av = loadu_256(arow + p);
        const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
        const __m256i a_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
        acc0 = dot32w(acc0, a_lo, a_hi, loadu_256(b0 + p));
        acc1 = dot32w(acc1, a_lo, a_hi, loadu_256(b1 + p));
        acc2 = dot32w(acc2, a_lo, a_hi, loadu_256(b2 + p));
        acc3 = dot32w(acc3, a_lo, a_hi, loadu_256(b3 + p));
      }
      __m128i sums = hsum4_epi32(acc0, acc1, acc2, acc3);
      if (p < k) {
        alignas(16) std::int32_t t[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(t), sums);
        for (; p < k; ++p) {
          const std::int32_t av = arow[p];
          t[0] += av * b0[p];
          t[1] += av * b1[p];
          t[2] += av * b2[p];
          t[3] += av * b3[p];
        }
        sums = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * ldc + j), sums);
    }
    for (; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      __m256i acc = _mm256_setzero_si256();
      std::int64_t p = 0;
      for (; p < k32; p += 32) {
        acc = dot32(acc, loadu_256(arow + p), loadu_256(brow + p));
      }
      std::int32_t s = hsum_epi32(acc);
      for (; p < k; ++p) {
        s += static_cast<std::int32_t>(arow[p]) *
             static_cast<std::int32_t>(brow[p]);
      }
      c[i * ldc + j] = s;
    }
  }
}

void avx2_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc, bool a_unsigned) noexcept {
  if (a_unsigned) {
    gemm_i8u8_tile<true>(m, n, k, a, lda, b, ldb, c, ldc);
  } else {
    gemm_i8u8_tile<false>(m, n, k, a, lda, b, ldb, c, ldc);
  }
}

void avx2_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                      std::int64_t n) noexcept {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i vi[4];
    for (int r = 0; r < 4; ++r) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * r), inv);
      // maxps/minps return the second operand on NaN, which would turn NaN
      // into -127; mask NaN lanes back to 0 to match the scalar branch.
      const __m256 nan_mask = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
      v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
      vi[r] = _mm256_andnot_si256(_mm256_castps_si256(nan_mask),
                                  _mm256_cvtps_epi32(v));
    }
    // Pack 4 x i32x8 -> i8x32. packs interleaves 128-bit lanes; the final
    // permute restores element order. Saturation in packs is a no-op here —
    // every lane is already in [-127, 127].
    const __m256i ab = _mm256_packs_epi32(vi[0], vi[1]);
    const __m256i cd = _mm256_packs_epi32(vi[2], vi[3]);
    const __m256i abcd = _mm256_packs_epi16(ab, cd);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                        _mm256_permutevar8x32_epi32(abcd, order));
  }
  for (; i < n; ++i) {
    float r = x[i] * inv_scale;
    if (!(r == r)) {
      q[i] = 0;
      continue;
    }
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    q[i] = static_cast<std::int8_t>(std::lrintf(r));
  }
}

void avx2_dequant_i32(std::int32_t* acc, float scale, float bias,
                      std::int64_t n) noexcept {
  const __m256 sv = _mm256_set1_ps(scale);
  const __m256 bv = _mm256_set1_ps(bias);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(reinterpret_cast<float*>(acc + i),
                     dequant8(loadu_256(acc + i), sv, bv));
  }
  for (; i < n; ++i) {
    const float xi = static_cast<float>(acc[i]) * scale + bias;
    std::int32_t raw;
    __builtin_memcpy(&raw, &xi, sizeof(raw));
    acc[i] = raw;
  }
}

void avx2_dequant_i32_row(std::int32_t* acc, const float* scale,
                          const float* bias, std::int64_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 bv = bias != nullptr ? _mm256_loadu_ps(bias + i) : zero;
    _mm256_storeu_ps(reinterpret_cast<float*>(acc + i),
                     dequant8(loadu_256(acc + i), _mm256_loadu_ps(scale + i),
                              bv));
  }
  for (; i < n; ++i) {
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const float xi = static_cast<float>(acc[i]) * scale[i] + bi;
    std::int32_t raw;
    __builtin_memcpy(&raw, &xi, sizeof(raw));
    acc[i] = raw;
  }
}

}  // namespace fitact::kern

#endif  // FITACT_HAVE_AVX2_KERNELS
