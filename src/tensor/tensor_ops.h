// Non-differentiable tensor kernels: elementwise arithmetic, argmax, and the
// im2col/col2im transforms used by conv2d.
// Differentiable graph ops live in src/autograd/ops.h and call into these.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fitact {

// ---- elementwise (out-of-place) -------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor scale(const Tensor& a, float s);

// ---- elementwise (in-place) ------------------------------------------------
void clamp_min_inplace(Tensor& a, float lo);

// ---- argmax ----------------------------------------------------------------
/// Index of the maximum element in a flat range [begin, begin+len).
[[nodiscard]] std::int64_t argmax_range(const Tensor& a, std::int64_t begin,
                                        std::int64_t len);
/// Row-wise argmax of a [rows, cols] tensor.
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& a);

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
/// `image` points at C*H*W floats; `col` at col_rows()*col_cols().
void im2col(const Conv2dGeometry& g, const float* image, float* col);

/// The batch-wide conv's column matrix: `batch` images [C,H,W], packed one
/// after another, side by side in one [C*kH*kW, batch*Hout*Wout] matrix,
/// whose columns [s*col_cols(), (s+1)*col_cols()) are sample s's im2col.
/// Only for output maps under kSgemmTileN (tensor/gemm.h) positions: each
/// tap's source offsets for the map sit in one stack table, and each matrix
/// row is written for the whole batch in one pass.
void im2col_batch(const Conv2dGeometry& g, std::int64_t batch,
                  const float* images, float* col);

/// Scatter-accumulate a column matrix back into an image gradient buffer
/// (which must be zero-initialised by the caller).
void col2im(const Conv2dGeometry& g, const float* col, float* image);

}  // namespace fitact
