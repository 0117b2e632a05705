// Non-differentiable tensor kernels: elementwise arithmetic, reductions,
// matmul wrapper, and the im2col/col2im transforms used by conv2d.
// Differentiable graph ops live in src/autograd/ops.h and call into these.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fitact {

// ---- elementwise (out-of-place) -------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor scale(const Tensor& a, float s);

// ---- elementwise (in-place) ------------------------------------------------
void add_inplace(Tensor& a, const Tensor& b);
void axpy_inplace(Tensor& y, float alpha, const Tensor& x);  // y += alpha*x
void scale_inplace(Tensor& a, float s);
void clamp_min_inplace(Tensor& a, float lo);

// ---- reductions ------------------------------------------------------------
[[nodiscard]] float sum(const Tensor& a);
[[nodiscard]] float mean(const Tensor& a);
[[nodiscard]] float max_value(const Tensor& a);
[[nodiscard]] float min_value(const Tensor& a);
/// Index of the maximum element in a flat range [begin, begin+len).
[[nodiscard]] std::int64_t argmax_range(const Tensor& a, std::int64_t begin,
                                        std::int64_t len);
/// Row-wise argmax of a [rows, cols] tensor.
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& a);

// ---- linear algebra --------------------------------------------------------
/// C = A[M,K] * B[K,N], row-major.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

// ---- conv support ----------------------------------------------------------
struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  [[nodiscard]] std::int64_t out_h() const noexcept {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const noexcept {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  /// Rows of the im2col matrix: C_in * kH * kW.
  [[nodiscard]] std::int64_t col_rows() const noexcept {
    return in_channels * kernel_h * kernel_w;
  }
  /// Columns of the im2col matrix: H_out * W_out.
  [[nodiscard]] std::int64_t col_cols() const noexcept {
    return out_h() * out_w();
  }
};

/// Expand one image [C,H,W] into the column matrix [C*kH*kW, Hout*Wout].
/// `image` points at C*H*W floats; `col` at col_rows() rows spaced `ld`
/// floats apart (ld >= col_cols(); a batch-wide conv lays its samples side
/// by side in one matrix).
void im2col(const Conv2dGeometry& g, const float* image, float* col,
            std::int64_t ld);

/// The same into a packed [col_rows(), col_cols()] matrix.
inline void im2col(const Conv2dGeometry& g, const float* image, float* col) {
  im2col(g, image, col, g.col_cols());
}

/// Scatter-accumulate a column matrix back into an image gradient buffer
/// (which must be zero-initialised by the caller).
void col2im(const Conv2dGeometry& g, const float* col, float* image);

}  // namespace fitact
