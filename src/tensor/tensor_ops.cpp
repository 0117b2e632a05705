#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm.h"

namespace fitact {
namespace {
void check_same_numel(const Tensor& a, const Tensor& b, const char* op) {
  if (a.numel() != b.numel()) {
    throw std::invalid_argument(std::string(op) + ": numel mismatch " +
                                a.shape().str() + " vs " + b.shape().str());
  }
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "add");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] + pb[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] * s;
  return out;
}

void clamp_min_inplace(Tensor& a, float lo) {
  for (auto& v : a.span()) v = std::max(v, lo);
}

std::int64_t argmax_range(const Tensor& a, std::int64_t begin,
                          std::int64_t len) {
  if (len <= 0 || begin < 0 || begin + len > a.numel()) {
    throw std::out_of_range("argmax_range");
  }
  const float* p = a.data() + begin;
  std::int64_t best = 0;
  float best_v = p[0];
  for (std::int64_t i = 1; i < len; ++i) {
    if (p[i] > best_v) {
      best_v = p[i];
      best = i;
    }
  }
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  if (a.shape().rank() != 2) {
    throw std::invalid_argument("argmax_rows expects rank-2 tensor");
  }
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    out[static_cast<std::size_t>(r)] = argmax_range(a, r * cols, cols);
  }
  return out;
}

void im2col(const Conv2dGeometry& g, const float* image, float* col) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* chan = image + c * hw;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) {
            std::fill_n(dst + y * ow, static_cast<std::size_t>(ow), 0.0f);
            continue;
          }
          const float* src_row = chan + iy * g.in_w;
          const std::int64_t x0 = kw - g.padding;  // ix = x*stride + x0
          if (g.stride == 1) {
            // Contiguous copy of the valid middle, zero-fill the borders.
            // A tap whose columns all fall in the padding (a kernel wider
            // than the map) zero-fills the whole row and copies nothing.
            const std::int64_t x_lo =
                std::min(ow, std::max<std::int64_t>(0, -x0));
            const std::int64_t x_hi =
                std::max(x_lo, std::min<std::int64_t>(ow, g.in_w - x0));
            std::fill_n(dst + y * ow, static_cast<std::size_t>(x_lo), 0.0f);
            if (x_hi > x_lo) {
              std::memcpy(dst + y * ow + x_lo, src_row + x0 + x_lo,
                          static_cast<std::size_t>(x_hi - x_lo) *
                              sizeof(float));
            }
            std::fill_n(dst + y * ow + x_hi,
                        static_cast<std::size_t>(ow - x_hi), 0.0f);
          } else {
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t ix = x * g.stride + x0;
              dst[y * ow + x] =
                  (ix >= 0 && ix < g.in_w) ? src_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void im2col_batch(const Conv2dGeometry& g, std::int64_t batch,
                  const float* images, float* col) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  assert(ohw < kSgemmTileN);
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t in_stride = g.in_channels * hw;
  const std::int64_t n = batch * ohw;
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  // Per output position, the offset in its channel plane that tap (kh, kw)
  // reads, or -1 where the tap lies in the padding.
  std::int64_t src[kSgemmTileN - 1];
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t iy = y * g.stride + kh - g.padding;
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t ix = x * g.stride + kw - g.padding;
          src[y * ow + x] = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w
                                ? iy * g.in_w + ix
                                : -1;
        }
      }
      for (std::int64_t c = 0; c < g.in_channels; ++c) {
        const float* plane = images + c * hw;
        float* dst = col + (c * taps + kh * g.kernel_w + kw) * n;
        for (std::int64_t s = 0; s < batch; ++s) {
          for (std::int64_t p = 0; p < ohw; ++p) {
            dst[p] = src[p] < 0 ? 0.0f : plane[src[p]];
          }
          plane += in_stride;
          dst += ohw;
        }
      }
    }
  }
}

void col2im(const Conv2dGeometry& g, const float* col, float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* chan = image + c * hw;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst_row = chan + iy * g.in_w;
          const float* src_row = src + y * ow;
          const std::int64_t x0 = kw - g.padding;  // ix = x*stride + x0
          if (g.stride == 1) {
            // The valid columns, as im2col copies them; dst_row[x0 + x]
            // indexes from the row start, so no pointer before it is formed.
            const std::int64_t x_lo =
                std::min(ow, std::max<std::int64_t>(0, -x0));
            const std::int64_t x_hi = std::min<std::int64_t>(ow, g.in_w - x0);
            for (std::int64_t x = x_lo; x < x_hi; ++x) {
              dst_row[x0 + x] += src_row[x];
            }
          } else {
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t ix = x * g.stride + x0;
              if (ix >= 0 && ix < g.in_w) dst_row[ix] += src_row[x];
            }
          }
        }
      }
    }
  }
}

}  // namespace fitact
