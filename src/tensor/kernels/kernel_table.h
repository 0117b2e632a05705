// Internal to src/tensor/kernels/: the dispatch table one backend fills in,
// plus the declarations of each backend's implementations. Nothing outside
// this directory includes this header — callers go through kernels.h.
#pragma once

#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace fitact::kern {

struct KernelTable {
  // The two fp32 FMA slots. The avx2 tier fills them with the AVX-512F
  // bodies on hosts that execute AVX-512F (dispatch.cpp); every body of
  // the tier runs the same per-element fma chain (kernels.h).
  void (*gemm_panel)(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                     float alpha, const float* ap, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc) noexcept;
  void (*conv_direct)(std::int64_t out_c, std::int64_t in_c, std::int64_t hp,
                      std::int64_t wp, std::int64_t kh, std::int64_t kw,
                      const float* xp, const float* w, float* out) noexcept;
  void (*relu)(const float* x, float* o, std::int64_t n) noexcept;
  void (*add)(const float* a, const float* b, float* o,
              std::int64_t n) noexcept;
  void (*bias_add_row)(float* row, const float* bias, std::int64_t n) noexcept;
  void (*bias_add_const)(float* row, float value, std::int64_t n) noexcept;
  std::uint64_t (*clipped_relu)(const float* x, const float* bound,
                                std::int64_t bound_numel, std::int64_t feat,
                                std::int64_t hw, bool saturate, float* o,
                                std::int64_t n, bool count) noexcept;
  std::uint64_t (*fitrelu)(const float* x, const float* lambda,
                           std::int64_t lambda_numel, std::int64_t feat,
                           std::int64_t hw, float k, float* o, std::int64_t n,
                           bool count) noexcept;
  // Int8 quantized path (kernels_scalar_i8.cpp / kernels_avx2_i8.cpp). The
  // GEMM accumulates exactly in int32, so backends are bit-identical; the
  // dequantize kernels avoid FMA so the whole int8 path stays bit-identical
  // across backends too. Contracts in kernels.h.
  void (*gemm_i8_dot)(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda,
                      const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc) noexcept;
  // Same contract as gemm_i8_dot plus the caller's guarantee that every byte
  // of one operand (a when a_unsigned, else b) is in [0,127] — FitAct's
  // clamp makes post-activation values nonnegative, so their quantization
  // always lands there. The guarantee unlocks u8xs8
  // instructions (maddubs / vpdpbusd) whose int16 pair sums cannot saturate
  // when |u| <= 127; results stay bit-identical to gemm_i8_dot on the same
  // bytes.
  void (*gemm_i8u8_dot)(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb,
                        std::int32_t* c, std::int64_t ldc,
                        bool a_unsigned) noexcept;
  void (*quantize_i8)(const float* x, float inv_scale, std::int8_t* q,
                      std::int64_t n) noexcept;
  void (*dequant_i32)(std::int32_t* acc, float scale, float bias,
                      std::int64_t n) noexcept;
  void (*dequant_i32_row)(std::int32_t* acc, const float* scale,
                          const float* bias, std::int64_t n) noexcept;
};

/// Walks n elements laid out as per-sample rows of `feat` features (the last
/// row may be partial) in spans that share one bound rule, so the bound
/// index is resolved per span instead of per element: span_const(offset,
/// len, b) for spans under the single bound *b (bound_numel 1, or channel c
/// of an hw-long plane under per-channel bounds) and span_row(offset, len,
/// row) for per-neuron rows whose element j takes row[j]. This is
/// FeatureBroadcast's map (autograd/op_kernels.h). Returns the sum of the
/// span results (the clamp-event counts).
template <class SpanConst, class SpanRow>
inline std::uint64_t over_bound_spans(const float* bound,
                                      std::int64_t bound_numel,
                                      std::int64_t feat, std::int64_t hw,
                                      std::int64_t n, SpanConst span_const,
                                      SpanRow span_row) {
  if (bound_numel == 1) return span_const(0, n, bound);
  std::uint64_t events = 0;
  for (std::int64_t base = 0; base < n; base += feat) {
    const std::int64_t row = base + feat <= n ? feat : n - base;
    if (bound_numel == feat) {
      events += span_row(base, row, bound);
    } else {  // per-channel: bound index = fi / hw
      for (std::int64_t f = 0; f < row; f += hw) {
        const std::int64_t span = f + hw <= row ? hw : row - f;
        events += span_const(base + f, span, bound + f / hw);
      }
    }
  }
  return events;
}

// Data of glibc's table-driven expf (sysdeps/ieee754/flt-32/e_expf.c, since
// glibc 2.28), which both backends' fitrelu evaluate: exp(x) = 2^(k/N) *
// 2^(r/N) with N = 32, k = round(x * N/ln2) and r = x * N/ln2 - k, where
// 2^(k/N) comes from the table below (entry i holds the bits of 2^(i/N)
// minus i << 47, so adding k << 47 to entry k % N also applies 2^floor(k/N))
// and 2^(r/N) from a cubic in r. kExpfShift rounds k to nearest in the
// double adder. See scalar table_expf (kernels_scalar.cpp) for the steps.
inline constexpr std::uint64_t kExpfTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
inline constexpr double kExpfInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
inline constexpr double kExpfShift = 0x1.8p+52;
inline constexpr double kExpfC0 = 0x1.c6af84b912394p-20;  // cubic in r
inline constexpr double kExpfC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpfC2 = 0x1.62e42ff0c52d6p-6;
/// Below this, exp(x) rounds to 0 in float (x < ln 2^-150).
inline constexpr float kExpfUnderflow = -0x1.9fe368p6f;
/// Above this, exp(x) rounds to +inf in float (x > ln 2^128).
inline constexpr float kExpfOverflow = 0x1.62e42ep6f;

// Int8 backend implementations live in their own translation units
// (kernels_scalar_i8.cpp, kernels_avx2_i8.cpp) and are referenced cross-TU
// by the table initialisers in kernels_scalar.cpp / kernels_avx2.cpp, so —
// unlike the fp32 kernels — they need external linkage and declarations here.
void scalar_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc) noexcept;
void scalar_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc,
                          bool a_unsigned) noexcept;
void scalar_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                        std::int64_t n) noexcept;
void scalar_dequant_i32(std::int32_t* acc, float scale, float bias,
                        std::int64_t n) noexcept;
void scalar_dequant_i32_row(std::int32_t* acc, const float* scale,
                            const float* bias, std::int64_t n) noexcept;

#if defined(FITACT_HAVE_AVX2_KERNELS)
void avx2_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, std::int64_t lda,
                      const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                      std::int64_t ldc) noexcept;
void avx2_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc, bool a_unsigned) noexcept;
void avx2_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                      std::int64_t n) noexcept;
void avx2_dequant_i32(std::int32_t* acc, float scale, float bias,
                      std::int64_t n) noexcept;
void avx2_dequant_i32_row(std::int32_t* acc, const float* scale,
                          const float* bias, std::int64_t n) noexcept;
#endif

/// The portable reference backend (kernels_scalar.cpp). Always available;
/// also the semantics every vector backend must reproduce (bit-exactly for
/// the elementwise kernels, to forward-error bounds for gemm_panel).
[[nodiscard]] const KernelTable& scalar_table() noexcept;

// AVX-512 VNNI int8 GEMM (kernels_avx2_vnni_i8.cpp). Not a backend of its
// own: when the host also executes AVX-512 F/BW/VL/VNNI, dispatch.cpp serves
// the avx2 tier a table whose gemm_i8_dot points here instead. Bit-identical
// to the scalar GEMM like every int8 kernel (exact int32 accumulation).
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS)
void avx2_vnni_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                           const std::int8_t* a, std::int64_t lda,
                           const std::int8_t* b, std::int64_t ldb,
                           std::int32_t* c, std::int64_t ldc) noexcept;
void avx2_vnni_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                             const std::int8_t* a, std::int64_t lda,
                             const std::int8_t* b, std::int64_t ldb,
                             std::int32_t* c, std::int64_t ldc,
                             bool a_unsigned) noexcept;
#endif

// AVX-512F bodies of the two fp32 FMA slots (kernels_avx2_avx512.cpp). Not
// a backend of their own: when the host also executes AVX-512F, dispatch.cpp
// serves the avx2 tier a table whose gemm_panel and conv_direct point here.
// Each output element runs the AVX2 body's chain (C's value or +0, terms in
// k or (c, i, j) order, one fma each) in 16-lane tiles, so results are
// bit-identical to the AVX2 bodies.
#if defined(FITACT_HAVE_AVX512F_KERNELS)
void avx2_avx512_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                            float alpha, const float* ap, const float* b,
                            std::int64_t ldb, float* c,
                            std::int64_t ldc) noexcept;
void avx2_avx512_conv_direct(std::int64_t out_c, std::int64_t in_c,
                             std::int64_t hp, std::int64_t wp,
                             std::int64_t kh, std::int64_t kw, const float* xp,
                             const float* w, float* out) noexcept;
#endif

// The AVX2/FMA backend (kernels_avx2.cpp). Declared unconditionally;
// defined only when the build carries the AVX2 translation unit
// (FITACT_HAVE_AVX2_KERNELS), and dereferenced by dispatch.cpp only after
// a cpuid check says the host executes AVX2+FMA.
#if defined(FITACT_HAVE_AVX2_KERNELS)
[[nodiscard]] const KernelTable& avx2_table() noexcept;
#endif

}  // namespace fitact::kern
