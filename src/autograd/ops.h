// Differentiable operations over Variables. Each op computes the forward
// value eagerly and, when gradients are being recorded, attaches a backward
// closure to the result.
//
// Activation-bound broadcasting: the bounded activations (clipped_relu,
// fitrelu) accept a bound tensor with one of three extents relative to an
// input of shape [B, C, H, W] (or [B, F] for fully connected):
//   numel == 1              one bound for the whole layer   (Clip-Act/Ranger)
//   numel == C              one bound per channel           (ablation)
//   numel == C*H*W (or F)   one bound per neuron            (FitAct)
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/op_kernels.h"
#include "autograd/variable.h"

namespace fitact::ag {

// ---- arithmetic ------------------------------------------------------------
[[nodiscard]] Variable add(const Variable& a, const Variable& b);
[[nodiscard]] Variable scale(const Variable& a, float s);

// ---- linear algebra --------------------------------------------------------
/// y[B,O] = x[B,I] * w[O,I]^T + bias[O]. bias may be undefined.
[[nodiscard]] Variable linear(const Variable& x, const Variable& w,
                              const Variable& bias);

// ---- convolution / pooling -------------------------------------------------
/// x[B,Cin,H,W], w[Cout,Cin,kH,kW], bias[Cout] (may be undefined).
[[nodiscard]] Variable conv2d(const Variable& x, const Variable& w,
                              const Variable& bias, std::int64_t stride,
                              std::int64_t padding);

[[nodiscard]] Variable max_pool2d(const Variable& x, std::int64_t kernel,
                                  std::int64_t stride);

/// [B,C,H,W] -> [B,C]; mean over the spatial extent.
[[nodiscard]] Variable global_avg_pool(const Variable& x);

/// [B, ...] -> [B, prod(...)] (shares storage).
[[nodiscard]] Variable flatten(const Variable& x);

// ---- normalisation ---------------------------------------------------------
/// Batch normalisation over [B,C,H,W] with per-channel affine parameters.
/// In training mode batch statistics are used and running stats updated in
/// place (biased variance); in eval mode running stats are used. Gradients
/// flow through both modes (eval mode is an affine map), which the FitAct
/// post-training stage relies on.
[[nodiscard]] Variable batch_norm2d(const Variable& x, const Variable& gamma,
                                    const Variable& beta, Tensor& running_mean,
                                    Tensor& running_var, bool training,
                                    float momentum, float eps);

// ---- activations -----------------------------------------------------------
[[nodiscard]] Variable relu(const Variable& x);

// ClipMode (what a bounded activation does above the bound) lives in
// autograd/op_kernels.h next to the kernels that implement it.

/// Non-trainable bounded ReLU with broadcastable bound (see file comment).
/// Implements both GBReLU (Clip-Act) and Ranger, and FitReLU-Naive when
/// given a per-neuron bound (paper Eq. 5).
[[nodiscard]] Variable clipped_relu(const Variable& x, const Tensor& bound,
                                    ClipMode mode);

/// Trainable FitReLU (paper Eq. 6, with the sign convention fixed so the
/// function bounds from above): y = max(0, x * sigmoid(k*(lambda - x))).
/// lambda is a trainable Variable with broadcastable extent; k controls the
/// steepness of the cut-off (larger k -> closer to FitReLU-Naive).
[[nodiscard]] Variable fitrelu(const Variable& x, const Variable& lambda,
                               float k);

// ---- losses / reductions ---------------------------------------------------
/// Mean cross-entropy of logits[B,K] against integer labels.
[[nodiscard]] Variable softmax_cross_entropy(
    const Variable& logits, const std::vector<std::int64_t>& labels);

/// Scalar sum of squared entries (the FitAct bound regulariser, Eq. 10).
[[nodiscard]] Variable sum_of_squares(const Variable& x);

}  // namespace fitact::ag
