// Forward compute kernels shared by the eager autograd ops (autograd/ops.cpp)
// and the recorded inference plans (nn/plan.cpp).
//
// The serving layer promises bit-identical per-request outputs no matter how
// a batch was assembled or executed (serve/server.h "output contract"), and
// the planned-execution path extends that promise to "no matter whether the
// lane ran eagerly or through its plan". The only way to keep two execution
// engines bit-identical under refactoring is for them to run the *same*
// arithmetic, so every forward inner loop lives here, inline, and both
// engines call it. Each kernel computes one sample row (or the whole batch)
// with a fixed per-element accumulation order independent of batch size and
// thread count.
//
// Kernels write through raw pointers (eager ops pass freshly allocated
// Tensors, plans pass arena offsets) and never allocate. A fused plan op is
// no kernel of its own: it runs the producer's kernel, then the bounded
// activation's kernel in place over the producer's output, so fused plans,
// unfused plans and eager forwards all execute one kernel sequence.
//
// The hot inner loops (ReLU, bound-clamp with event counting, FitReLU,
// elementwise add, bias adds, the GEMM behind linear/conv and the direct
// stride-1 convolution) dispatch through the runtime kernel layer
// (tensor/kernels/kernels.h): AVX2/FMA on hosts that have it, the portable
// scalar backend otherwise. Both engines dispatch to the same backend, so
// the plan-vs-eager output contract is unaffected by dispatch; forcing the
// scalar backend (FITACT_KERNELS=scalar) A/Bs the whole forward path on
// any host.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/shape.h"
#include "tensor/tensor_ops.h"

namespace fitact::ag {

/// What a bounded activation does with values above the bound.
enum class ClipMode {
  zero_above,  ///< x > bound -> 0        (Clip-Act / GBReLU, paper Eq. 4)
  saturate,    ///< x > bound -> bound    (Ranger-style range restriction)
};

inline float stable_sigmoid(float x) noexcept {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

/// Maps a per-sample flat feature index to a bound index for the three
/// supported bound extents (layer / channel / neuron).
struct FeatureBroadcast {
  std::int64_t feat = 0;      // features per sample
  std::int64_t hw = 1;        // spatial size (1 for FC)
  std::int64_t channels = 0;  // channel count (== feat for FC)

  static FeatureBroadcast of(const Shape& xs) {
    FeatureBroadcast fb;
    if (xs.rank() == 2) {
      fb.feat = xs[1];
      fb.hw = 1;
      fb.channels = xs[1];
    } else if (xs.rank() == 4) {
      fb.feat = xs[1] * xs[2] * xs[3];
      fb.hw = xs[2] * xs[3];
      fb.channels = xs[1];
    } else {
      throw std::invalid_argument(
          "bounded activation expects rank-2 or rank-4 input, got " +
          xs.str());
    }
    return fb;
  }

  void validate_bound(std::int64_t bound_numel) const {
    if (bound_numel != 1 && bound_numel != channels && bound_numel != feat) {
      throw std::invalid_argument(
          "bound numel " + std::to_string(bound_numel) +
          " incompatible with feature extent " + std::to_string(feat) +
          " (expect 1, C=" + std::to_string(channels) + " or " +
          std::to_string(feat) + ")");
    }
  }

  [[nodiscard]] std::int64_t map(std::int64_t fi,
                                 std::int64_t bound_numel) const noexcept {
    if (bound_numel == feat) return fi;
    if (bound_numel == 1) return 0;
    return fi / hw;  // per-channel
  }
};

// ---- elementwise -----------------------------------------------------------

inline void relu_forward(const float* x, float* o, std::int64_t n) noexcept {
  kern::relu(x, o, n);
}

inline void add_forward(const float* a, const float* b, float* o,
                        std::int64_t n) noexcept {
  kern::add(a, b, o, n);
}

/// Bounded ReLU over n contiguous elements (any number of batch rows).
/// When `count` is set, also returns the number of inputs above their bound
/// or NaN — the clamp-event statistic a plan's activation step deposits on
/// its BoundedActivation site for the serve-time fault detector — fused
/// into the same pass over the data. Counting never changes the computed
/// output; the eager ops never count.
inline std::uint64_t clipped_relu_forward(const float* x, const float* bound,
                                          std::int64_t bound_numel,
                                          const FeatureBroadcast& fb,
                                          ClipMode mode, float* o,
                                          std::int64_t n,
                                          bool count = false) noexcept {
  return kern::clipped_relu(x, bound, bound_numel, fb.feat, fb.hw,
                            mode == ClipMode::saturate, o, n, count);
}

/// Trainable FitReLU forward (paper Eq. 6): y = max(0, x*sigmoid(k*(l-x))).
/// Clamp counting fuses in exactly as for clipped_relu_forward. The
/// dispatched kernel's sigmoid gives stable_sigmoid's values (see
/// kern::fitrelu), which the backward pass keeps using.
inline std::uint64_t fitrelu_forward(const float* x, const float* lambda,
                                     std::int64_t lambda_numel,
                                     const FeatureBroadcast& fb, float k,
                                     float* o, std::int64_t n,
                                     bool count = false) noexcept {
  return kern::fitrelu(x, lambda, lambda_numel, fb.feat, fb.hw, k, o, n,
                       count);
}

// ---- linear algebra --------------------------------------------------------

/// y[B,O] = x[B,I] * w[O,I]^T + bias. The weight is transposed into
/// wt_scratch (I*O floats) on every call so the GEMM runs on its fast path
/// *and* live parameter faults injected into w since the last call are
/// honoured — plans must not cache derived weight state.
inline void linear_forward(std::int64_t batch, std::int64_t in,
                           std::int64_t out_f, const float* x, const float* w,
                           const float* bias_or_null, float* wt_scratch,
                           float* out) noexcept {
  for (std::int64_t o = 0; o < out_f; ++o) {
    for (std::int64_t i = 0; i < in; ++i) {
      wt_scratch[i * out_f + o] = w[o * in + i];
    }
  }
  sgemm(false, false, batch, out_f, in, 1.0f, x, in, wt_scratch, out_f, 0.0f,
        out, out_f);
  if (bias_or_null != nullptr) {
    for (std::int64_t r = 0; r < batch; ++r) {
      kern::bias_add_row(out + r * out_f, bias_or_null, out_f);
    }
  }
}

/// One sample of a conv2d forward: im2col into col_scratch
/// (col_rows()*col_cols() floats), one GEMM, bias row-add. conv2d_forward's
/// route for strided convs, and the reference its other routes must equal.
inline void conv2d_forward_sample(const Conv2dGeometry& geo, std::int64_t out_c,
                                  const float* x_sample, const float* w,
                                  const float* bias_or_null, float* col_scratch,
                                  float* out_sample) noexcept {
  const std::int64_t ckk = geo.col_rows();
  const std::int64_t ohw = geo.col_cols();
  im2col(geo, x_sample, col_scratch);
  sgemm(false, false, out_c, ohw, ckk, 1.0f, w, ckk, col_scratch, ohw, 0.0f,
        out_sample, ohw);
  if (bias_or_null != nullptr) {
    for (std::int64_t c = 0; c < out_c; ++c) {
      kern::bias_add_const(out_sample + c * ohw, bias_or_null[c], ohw);
    }
  }
}

/// The three ways conv2d_forward runs a conv, chosen from its geometry
/// alone (never from the batch, the backend or the values):
///   batch_wide — a per-sample output map under kSgemmTileN positions, too
///                narrow for sgemm's register tile: one GEMM over the
///                whole batch's column matrix (im2col_batch).
///   direct     — stride 1 otherwise: kern::conv_direct per sample, over a
///                zero-bordered copy of the sample (pad 0: the input
///                itself), with no im2col matrix.
///   im2col     — any other stride: conv2d_forward_sample per sample.
enum class ConvRoute { batch_wide, direct, im2col };

[[nodiscard]] inline ConvRoute conv2d_route(
    const Conv2dGeometry& geo) noexcept {
  if (geo.col_cols() < kSgemmTileN) return ConvRoute::batch_wide;
  return geo.stride == 1 ? ConvRoute::direct : ConvRoute::im2col;
}

/// Scratch floats conv2d_forward needs for `batch` samples: batch-wide the
/// whole batch's column matrix plus the GEMM product, direct one
/// zero-bordered input sample (none at pad 0), im2col one sample's matrix.
[[nodiscard]] inline std::int64_t conv2d_scratch_floats(
    const Conv2dGeometry& geo, std::int64_t out_c,
    std::int64_t batch) noexcept {
  const std::int64_t ohw = geo.col_cols();
  switch (conv2d_route(geo)) {
    case ConvRoute::batch_wide:
      return (geo.col_rows() + out_c) * batch * ohw;
    case ConvRoute::direct:
      return geo.padding == 0 ? 0
                              : geo.in_channels * (geo.in_h + 2 * geo.padding) *
                                    (geo.in_w + 2 * geo.padding);
    case ConvRoute::im2col:
      break;
  }
  return geo.col_rows() * ohw;
}

/// conv2d forward over `batch` NCHW samples, the one routine behind the
/// eager op and the plans' conv ops, by conv2d_route. Batch-wide, build
/// the whole batch's [C*k*k, batch*h*w] column matrix with im2col_batch
/// (each row in one pass over the batch; sample s's columns are its
/// im2col), run one GEMM, then scatter to NCHW and add the bias. Direct,
/// copy each sample into the scratch plane's interior (its zero border is
/// written once per call) and run kern::conv_direct, then add the bias.
/// Every route computes each output element as the same k-ordered
/// multiply-add chain (sgemm's per-element contract, which conv_direct
/// keeps), so the results are bit-identical to conv2d_forward_sample on
/// every backend and for any split of a batch across calls. The scratch
/// (conv2d_scratch_floats) may hold garbage on entry: every route writes
/// each scratch float before reading it, the direct route's zero border
/// included.
inline void conv2d_forward(const Conv2dGeometry& geo, std::int64_t out_c,
                           std::int64_t batch, const float* x, const float* w,
                           const float* bias_or_null, float* scratch,
                           float* out) noexcept {
  const std::int64_t ckk = geo.col_rows();
  const std::int64_t ohw = geo.col_cols();
  const std::int64_t in_stride = geo.in_channels * geo.in_h * geo.in_w;
  const std::int64_t out_stride = out_c * ohw;
  const ConvRoute route = conv2d_route(geo);
  if (route == ConvRoute::im2col) {
    for (std::int64_t s = 0; s < batch; ++s) {
      conv2d_forward_sample(geo, out_c, x + s * in_stride, w, bias_or_null,
                            scratch, out + s * out_stride);
    }
    return;
  }
  if (route == ConvRoute::direct) {
    const std::int64_t pad = geo.padding;
    const std::int64_t hp = geo.in_h + 2 * pad;
    const std::int64_t wp = geo.in_w + 2 * pad;
    if (pad > 0) std::fill_n(scratch, geo.in_channels * hp * wp, 0.0f);
    for (std::int64_t s = 0; s < batch; ++s) {
      const float* sample = x + s * in_stride;
      if (pad > 0) {
        for (std::int64_t c = 0; c < geo.in_channels; ++c) {
          for (std::int64_t y = 0; y < geo.in_h; ++y) {
            std::copy_n(sample + (c * geo.in_h + y) * geo.in_w, geo.in_w,
                        scratch + (c * hp + y + pad) * wp + pad);
          }
        }
        sample = scratch;
      }
      float* const o = out + s * out_stride;
      kern::conv_direct(out_c, geo.in_channels, hp, wp, geo.kernel_h,
                        geo.kernel_w, sample, w, o);
      if (bias_or_null != nullptr) {
        for (std::int64_t c = 0; c < out_c; ++c) {
          kern::bias_add_const(o + c * ohw, bias_or_null[c], ohw);
        }
      }
    }
    return;
  }
  const std::int64_t n = batch * ohw;
  float* const col = scratch;
  float* const product = scratch + ckk * n;
  im2col_batch(geo, batch, x, col);
  sgemm(false, false, out_c, n, ckk, 1.0f, w, ckk, col, n, 0.0f, product, n);
  for (std::int64_t s = 0; s < batch; ++s) {
    for (std::int64_t c = 0; c < out_c; ++c) {
      float* const o = out + s * out_stride + c * ohw;
      std::copy_n(product + c * n + s * ohw, ohw, o);
      if (bias_or_null != nullptr) {
        kern::bias_add_const(o, bias_or_null[c], ohw);
      }
    }
  }
}

// ---- normalisation / pooling ----------------------------------------------

/// One (sample, channel) plane of the batch-norm affine map. Training and
/// eval forwards differ only in where mu/invstd come from; both funnel here.
inline void bn_plane_forward(const float* x, float* o, std::int64_t hw,
                             float mu, float invstd, float gamma,
                             float beta) noexcept {
  for (std::int64_t i = 0; i < hw; ++i) {
    o[i] = (x[i] - mu) * invstd * gamma + beta;
  }
}

/// Eval-mode batch norm over [B,C,H,W] from running statistics.
inline void batch_norm2d_eval_forward(std::int64_t batch, std::int64_t ch,
                                      std::int64_t hw, const float* x,
                                      const float* gamma, const float* beta,
                                      const float* running_mean,
                                      const float* running_var, float eps,
                                      float* out) noexcept {
  const std::int64_t plane = ch * hw;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < ch; ++c) {
      const float mu = running_mean[c];
      const float is = 1.0f / std::sqrt(running_var[c] + eps);
      bn_plane_forward(x + b * plane + c * hw, out + b * plane + c * hw, hw,
                       mu, is, gamma[c], beta[c]);
    }
  }
}

/// Max pooling over [B,C,H,W]. indices_or_null, when given, receives the
/// flat input index of each output's argmax (the eager backward needs it;
/// plans pass nullptr).
inline void max_pool2d_forward(std::int64_t batch, std::int64_t ch,
                               std::int64_t h, std::int64_t w,
                               std::int64_t kernel, std::int64_t stride,
                               const float* x, float* out,
                               std::int64_t* indices_or_null) noexcept {
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  std::int64_t oi = 0;
  if (indices_or_null == nullptr) {
    // Inference path: no argmax to track, so the window max runs branch-free
    // (the ternary compiles to maxss; the argmax loop below mispredicts on
    // every new maximum). Selection is identical to the tracking loop,
    // including NaN handling — both keep the incumbent when the comparison
    // with a NaN is false.
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t c = 0; c < ch; ++c) {
        const float* plane = x + (b * ch + c) * h * w;
        for (std::int64_t y = 0; y < oh; ++y) {
          const float* win_row = plane + y * stride * w;
          for (std::int64_t xo = 0; xo < ow; ++xo, ++oi) {
            const float* win = win_row + xo * stride;
            float best = win[0];
            for (std::int64_t ky = 0; ky < kernel; ++ky) {
              const float* row = win + ky * w;
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                const float v = row[kx];
                best = best < v ? v : best;
              }
            }
            out[oi] = best;
          }
        }
      }
    }
    return;
  }
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < ch; ++c) {
      const float* plane = x + (b * ch + c) * h * w;
      const std::int64_t plane_off = (b * ch + c) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo, ++oi) {
          const std::int64_t y0 = y * stride;
          const std::int64_t x0 = xo * stride;
          float best = plane[y0 * w + x0];
          std::int64_t best_idx = y0 * w + x0;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t idx = (y0 + ky) * w + (x0 + kx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          if (indices_or_null != nullptr) {
            indices_or_null[oi] = plane_off + best_idx;
          }
        }
      }
    }
  }
}

/// [B,C,H,W] -> [B,C]; double-accumulated spatial mean.
inline void global_avg_pool_forward(std::int64_t batch, std::int64_t ch,
                                    std::int64_t hw, const float* x,
                                    float* out) noexcept {
  for (std::int64_t bc = 0; bc < batch * ch; ++bc) {
    double acc = 0.0;
    const float* plane = x + bc * hw;
    for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
    out[bc] = static_cast<float>(acc / static_cast<double>(hw));
  }
}

}  // namespace fitact::ag
