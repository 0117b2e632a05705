// Portable int8 kernels — the reference semantics the AVX2 int8 TU must
// reproduce bit-for-bit (see the int8 section of kernels.h: exact int32
// GEMM accumulation, branch-identical quantization, FMA-free dequantize).
//
// The dequantize kernels run in place over a GEMM accumulator span that
// lives inside the plan's fp32 arena: each element is read once as int32 and
// rewritten as fp32. Both accesses go through std::memcpy so the
// read-int32/write-float pair in one loop body never relies on
// type-punned pointers.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_table.h"

namespace fitact::kern {
namespace {

inline std::int32_t load_i32(const std::int32_t* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_f32(std::int32_t* p, float v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

void scalar_gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                        std::int64_t ldc) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * ldb;
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(arow[p]) *
               static_cast<std::int32_t>(brow[p]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

void scalar_gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc,
                          bool a_unsigned) noexcept {
  // The unsigned operand's bytes are in [0,127] by contract, so reading
  // them as int8 (as the plain signed GEMM does) yields the same values —
  // the flag only matters to vector backends picking u8xs8 instructions.
  (void)a_unsigned;
  scalar_gemm_i8_dot(m, n, k, a, lda, b, ldb, c, ldc);
}

void scalar_quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                        std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    float r = x[i] * inv_scale;
    if (!(r == r)) {  // NaN
      q[i] = 0;
      continue;
    }
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    q[i] = static_cast<std::int8_t>(std::lrintf(r));
  }
}

void scalar_dequant_i32(std::int32_t* acc, float scale, float bias,
                        std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    store_f32(acc + i, static_cast<float>(load_i32(acc + i)) * scale + bias);
  }
}

void scalar_dequant_i32_row(std::int32_t* acc, const float* scale,
                            const float* bias, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    store_f32(acc + i, static_cast<float>(load_i32(acc + i)) * scale[i] + bi);
  }
}

}  // namespace fitact::kern
