// Portable scalar backend: the reference semantics for every dispatched
// kernel, and the fallback on hosts (or builds) without AVX2. The loops here
// came from tensor/gemm.cpp's original kernel_panel and the inline bodies
// that used to live in autograd/op_kernels.h — minus the value-dependent
// zero-skip the old GEMM panel carried, which silently dropped NaN/Inf
// propagation from B whenever the matching A element was zero (exactly the
// values injected hardware faults produce; gemm_fuzz_test now pins this).
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels.h"

namespace fitact::kern {

// glibc's expf (kExpfTable in kernel_table.h), step for step. The two
// products with 32/ln2 are fused into their adds, as glibc's FMA build
// contracts them, and the cubic is evaluated with the same three fmas; every
// other step is a single IEEE operation in double, so std::fma's exact
// rounding makes the result independent of the ISA this TU targets.
float table_expf(float x) noexcept {
  if (!(x >= kExpfUnderflow)) return std::isnan(x) ? x + x : 0.0f;
  if (x > kExpfOverflow) return std::numeric_limits<float>::infinity();
  const double xd = x;
  // k = round(x * 32/ln2): adding 1.5 * 2^52 leaves k in the low mantissa
  // bits; r = x * 32/ln2 - k lies in [-1/2, 1/2].
  double kd = std::fma(kExpfInvLn2N, xd, kExpfShift);
  const auto ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kExpfShift;
  const double r = std::fma(kExpfInvLn2N, xd, -kd);
  // s = 2^(k/32): table entry k % 32 with floor(k/32) added to its exponent.
  const double s = std::bit_cast<double>(kExpfTable[ki % 32] + (ki << 47));
  const double z = std::fma(kExpfC0, r, kExpfC1);
  const double r2 = r * r;
  double y = std::fma(kExpfC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

namespace {

void scalar_gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                       float alpha, const float* ap, const float* b,
                       std::int64_t ldb, float* c,
                       std::int64_t ldc) noexcept {
  for (std::int64_t i = 0; i < mb; ++i) {
    const float* arow = ap + i * kb;
    float* crow = c + i * ldc;
    for (std::int64_t p = 0; p < kb; ++p) {
      // No zero-skip on aval: 0 * NaN = NaN and 0 * Inf = NaN must reach C.
      const float aval = alpha * arow[p];
      const float* brow = b + p * ldb;
      std::int64_t j = 0;
      for (; j + 4 <= nb; j += 4) {
        crow[j + 0] += aval * brow[j + 0];
        crow[j + 1] += aval * brow[j + 1];
        crow[j + 2] += aval * brow[j + 2];
        crow[j + 3] += aval * brow[j + 3];
      }
      for (; j < nb; ++j) crow[j] += aval * brow[j];
    }
  }
}

/// Each output element starts at +0 and takes one unfused multiply-add per
/// tap in (c, i, j) order: the chain scalar_gemm_panel runs over the im2col
/// matrix. To keep the inner loop long on narrow maps, a band of output rows
/// accumulates as one contiguous span of the padded plane, row stride wp:
/// the kw - 1 slots between rows hold sums nobody reads, and the span ends
/// at the band's last output position, so no read leaves the sample. Four
/// output channels share each span's input loads.
void scalar_conv_direct(std::int64_t out_c, std::int64_t in_c,
                        std::int64_t hp, std::int64_t wp, std::int64_t kh,
                        std::int64_t kw, const float* xp, const float* w,
                        float* out) noexcept {
  constexpr std::int64_t kSpan = 256;
  constexpr std::int64_t kRows = 4;
  const std::int64_t oh = hp - kh + 1;
  const std::int64_t ow = wp - kw + 1;
  const std::int64_t taps = in_c * kh * kw;
  // Whole rows per band, or one row in kSpan-wide pieces when it is wider.
  const std::int64_t band_rows = ow <= kSpan ? (kSpan - ow) / wp + 1 : 1;
  float acc[kRows][kSpan];
  for (std::int64_t o = 0; o < out_c; o += kRows) {
    const std::int64_t rows_o = std::min(kRows, out_c - o);
    for (std::int64_t y0 = 0; y0 < oh; y0 += band_rows) {
      const std::int64_t rows = std::min(band_rows, oh - y0);
      for (std::int64_t x0 = 0; x0 < ow; x0 += kSpan) {
        const std::int64_t cols = std::min(kSpan, ow - x0);
        const std::int64_t span = (rows - 1) * wp + cols;
        for (std::int64_t r = 0; r < kRows; ++r) {
          std::fill_n(acc[r], span, 0.0f);
        }
        const float* wt = w + o * taps;
        for (std::int64_t c = 0; c < in_c; ++c) {
          for (std::int64_t i = 0; i < kh; ++i) {
            for (std::int64_t j = 0; j < kw; ++j, ++wt) {
              // No zero-skip on a weight or on the border zeros it meets:
              // 0 * Inf = NaN must reach the output. Rows past out_c take
              // weight 0 into sums nobody reads.
              float wv[kRows];
              for (std::int64_t r = 0; r < kRows; ++r) {
                wv[r] = r < rows_o ? wt[r * taps] : 0.0f;
              }
              const float* src = xp + (c * hp + y0 + i) * wp + x0 + j;
              for (std::int64_t v = 0; v < span; ++v) {
                acc[0][v] += wv[0] * src[v];
                acc[1][v] += wv[1] * src[v];
                acc[2][v] += wv[2] * src[v];
                acc[3][v] += wv[3] * src[v];
              }
            }
          }
        }
        for (std::int64_t r = 0; r < rows_o; ++r) {
          for (std::int64_t y = 0; y < rows; ++y) {
            std::copy_n(acc[r] + y * wp, cols,
                        out + ((o + r) * oh + y0 + y) * ow + x0);
          }
        }
      }
    }
  }
}

void scalar_relu(const float* x, float* o, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void scalar_add(const float* a, const float* b, float* o,
                std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void scalar_bias_add_row(float* row, const float* bias,
                         std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) row[i] += bias[i];
}

void scalar_bias_add_const(float* row, float value, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) row[i] += value;
}

/// One span of elements sharing a single broadcast bound. The event test
/// is !(x <= bound), not x > bound, so a NaN counts as a clamp event.
inline std::uint64_t clip_span_const(const float* x, float bound,
                                     bool saturate, float* o, std::int64_t n,
                                     bool count) noexcept {
  std::uint64_t events = 0;
  const float over = saturate ? bound : 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    if (count) events += !(xi <= bound);
    if (xi <= 0.0f) {
      o[i] = 0.0f;
    } else if (xi <= bound) {
      o[i] = xi;
    } else {
      o[i] = over;  // NaN lands here too: both ordered compares fail
    }
  }
  return events;
}

/// One span with an elementwise bound row (per-neuron granularity).
inline std::uint64_t clip_span_rowwise(const float* x, const float* bound,
                                       bool saturate, float* o,
                                       std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float bi = bound[i];
    if (count) events += !(xi <= bi);
    if (xi <= 0.0f) {
      o[i] = 0.0f;
    } else if (xi <= bi) {
      o[i] = xi;
    } else {
      o[i] = saturate ? bi : 0.0f;
    }
  }
  return events;
}

std::uint64_t scalar_clipped_relu(const float* x, const float* bound,
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

/// FitReLU of one element (paper Eq. 6): x * sigmoid(t), t = k * (l - x),
/// for x > 0, else 0. The sigmoid is 1 / (1 + e) for t >= 0 and e / (1 + e)
/// below, with e = exp(-|t|) in both cases: the same values
/// ag::stable_sigmoid computes, from one exp argument that is never
/// positive and one division. From t = kFitReluUnitT on that value is
/// exactly x, which is returned without the exp.
inline float fitrelu1(float x, float l, float k) noexcept {
  if (x <= 0.0f) return 0.0f;
  const float t = k * (l - x);
  if (t >= kFitReluUnitT) return x;
  const float e = table_expf(-std::fabs(t));
  return x * ((t >= 0.0f ? 1.0f : e) / (1.0f + e));
}

/// One span of fitrelu; element i's bound is l[i * l_step] (l_step 0: one
/// bound for the span, 1: a per-neuron row).
inline std::uint64_t fitrelu_span(const float* x, const float* l,
                                  std::int64_t l_step, float k, float* o,
                                  std::int64_t n, bool count) noexcept {
  std::uint64_t events = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float li = l[i * l_step];
    if (count) events += !(xi <= li);
    o[i] = fitrelu1(xi, li, k);
  }
  return events;
}

std::uint64_t scalar_fitrelu(const float* x, const float* lambda,
                             std::int64_t lambda_numel, std::int64_t feat,
                             std::int64_t hw, float k, float* o,
                             std::int64_t n, bool count) noexcept {
  return over_bound_spans(
      lambda, lambda_numel, feat, hw, n,
      [&](std::int64_t off, std::int64_t len, const float* b) {
        return fitrelu_span(x + off, b, 0, k, o + off, len, count);
      },
      [&](std::int64_t off, std::int64_t len, const float* row) {
        return fitrelu_span(x + off, row, 1, k, o + off, len, count);
      });
}

}  // namespace

const KernelTable& scalar_table() noexcept {
  static constexpr KernelTable kTable = {
      scalar_gemm_panel,    scalar_conv_direct,
      scalar_relu,
      scalar_add,           scalar_bias_add_row,
      scalar_bias_add_const, scalar_clipped_relu,
      scalar_fitrelu,
      scalar_gemm_i8_dot,
      scalar_gemm_i8u8_dot,
      scalar_quantize_i8,
      scalar_dequant_i32,
      scalar_dequant_i32_row,
  };
  return kTable;
}

}  // namespace fitact::kern
