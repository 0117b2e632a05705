// Unit tests for the autograd engine: graph mechanics, accumulation,
// NoGradGuard, and forward values / analytic gradients of each op on small
// known cases. Exhaustive numeric gradient checks live in gradcheck_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/op_kernels.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fitact {
namespace {

TEST(Variable, LeafBasics) {
  Variable v(Tensor::from_values({1.0f, 2.0f}), true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.numel(), 2);
  EXPECT_FALSE(v.has_grad());
  v.ensure_grad();
  EXPECT_TRUE(v.has_grad());
  EXPECT_EQ(v.grad()[0], 0.0f);
}

TEST(Variable, BackwardThroughAdd) {
  Variable a(Tensor::from_values({1.0f, 2.0f}), true);
  Variable b(Tensor::from_values({3.0f, 4.0f}), true);
  Variable c = ag::add(a, b);
  EXPECT_FLOAT_EQ(c.value()[0], 4.0f);
  c.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 1.0f);
}

TEST(Variable, GradAccumulatesAcrossUses) {
  // y = x + x  => dy/dx = 2.
  Variable x(Tensor::from_values({5.0f}), true);
  Variable y = ag::add(x, x);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Variable, DiamondGraphAccumulates) {
  // z = 3x + 2x: both paths from x meet at the add, dz/dx = 5.
  Variable x(Tensor::from_values({3.0f}), true);
  Variable a = ag::scale(x, 3.0f);
  Variable b = ag::scale(x, 2.0f);
  Variable z = ag::add(a, b);
  z.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

TEST(Variable, BackwardTwiceAccumulates) {
  Variable x(Tensor::from_values({2.0f}), true);
  Variable y = ag::scale(x, 3.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  Variable y2 = ag::scale(x, 3.0f);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);  // accumulated, matching torch semantics
}

TEST(Variable, NoGradParentSkipsAccumulation) {
  Variable a(Tensor::from_values({1.0f}), true);
  Variable b(Tensor::from_values({2.0f}), false);
  Variable c = ag::add(a, b);
  c.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FALSE(b.has_grad());
}

TEST(NoGradGuard, DisablesGraphConstruction) {
  Variable a(Tensor::from_values({1.0f}), true);
  {
    const NoGradGuard guard;
    Variable b = ag::scale(a, 2.0f);
    EXPECT_FALSE(b.requires_grad());
    EXPECT_TRUE(grad_enabled() == false);
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(NoGradGuard, Nests) {
  const NoGradGuard g1;
  {
    const NoGradGuard g2;
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_FALSE(grad_enabled());
}

TEST(Ops, ReluForwardAndMask) {
  Variable x(Tensor::from_values({-1.0f, 0.0f, 2.0f}), true);
  Variable y = ag::relu(x);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[2], 2.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 0.0f);  // relu'(0) = 0 by convention
  EXPECT_FLOAT_EQ(x.grad()[2], 1.0f);
}

TEST(Ops, ClippedReluZeroAboveSemantics) {
  // Clip-Act / GBReLU (paper Eq. 4): x > bound -> 0.
  Variable x(Tensor::zeros(Shape{1, 4}), true);
  x.value()[0] = -1.0f;
  x.value()[1] = 0.5f;
  x.value()[2] = 1.0f;
  x.value()[3] = 3.0f;
  const Tensor bound = Tensor::scalar(1.0f);
  Variable y = ag::clipped_relu(x, bound, ag::ClipMode::zero_above);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 0.5f);
  EXPECT_FLOAT_EQ(y.value()[2], 1.0f);
  EXPECT_FLOAT_EQ(y.value()[3], 0.0f);  // squashed to zero, not clamped
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[3], 0.0f);
}

TEST(Ops, ClippedReluSaturateSemantics) {
  // Ranger: x > bound -> bound (value still propagates).
  Variable x(Tensor::zeros(Shape{1, 2}), true);
  x.value()[0] = 0.5f;
  x.value()[1] = 9.0f;
  const Tensor bound = Tensor::scalar(2.0f);
  Variable y = ag::clipped_relu(x, bound, ag::ClipMode::saturate);
  EXPECT_FLOAT_EQ(y.value()[0], 0.5f);
  EXPECT_FLOAT_EQ(y.value()[1], 2.0f);
}

TEST(Ops, ClippedReluPerChannelBound) {
  // x: [1, 2, 1, 2]; channel bounds {1, 10}.
  Variable x(Tensor::zeros(Shape{1, 2, 1, 2}), true);
  x.value()[0] = 5.0f;  // c0
  x.value()[1] = 0.5f;  // c0
  x.value()[2] = 5.0f;  // c1
  x.value()[3] = 0.5f;  // c1
  const Tensor bound = Tensor::from_values({1.0f, 10.0f});
  Variable y = ag::clipped_relu(x, bound, ag::ClipMode::zero_above);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);  // over c0 bound
  EXPECT_FLOAT_EQ(y.value()[1], 0.5f);
  EXPECT_FLOAT_EQ(y.value()[2], 5.0f);  // under c1 bound
  EXPECT_FLOAT_EQ(y.value()[3], 0.5f);
}

TEST(Ops, ClippedReluPerNeuronBound) {
  // FitReLU-Naive (paper Eq. 5): per-neuron bound.
  Variable x(Tensor::zeros(Shape{2, 3}), true);  // batch of 2
  for (std::int64_t i = 0; i < 6; ++i) x.value()[i] = 2.0f;
  const Tensor bound = Tensor::from_values({1.0f, 3.0f, 2.0f});
  Variable y = ag::clipped_relu(x, bound, ag::ClipMode::zero_above);
  // Both batch rows use the same per-neuron bounds.
  for (std::int64_t b = 0; b < 2; ++b) {
    EXPECT_FLOAT_EQ(y.value()[b * 3 + 0], 0.0f);  // 2 > 1
    EXPECT_FLOAT_EQ(y.value()[b * 3 + 1], 2.0f);  // 2 <= 3
    EXPECT_FLOAT_EQ(y.value()[b * 3 + 2], 2.0f);  // 2 <= 2 (boundary passes)
  }
}

TEST(Ops, ClippedReluRejectsBadBoundExtent) {
  Variable x(Tensor::zeros(Shape{1, 4}), true);
  const Tensor bound = Tensor::zeros(Shape{3});
  EXPECT_THROW(ag::clipped_relu(x, bound, ag::ClipMode::zero_above),
               std::invalid_argument);
}

TEST(Ops, FitReluBehavesLikeIdentityWellBelowBound) {
  Variable x(Tensor::from_values({1.0f}).reshape(Shape{1, 1}), true);
  Variable lambda(Tensor::from_values({10.0f}), false);
  Variable y = ag::fitrelu(x, lambda, 8.0f);
  EXPECT_NEAR(y.value()[0], 1.0f, 1e-5f);
}

TEST(Ops, FitReluSquashesWellAboveBound) {
  Variable x(Tensor::from_values({10.0f}).reshape(Shape{1, 1}), true);
  Variable lambda(Tensor::from_values({1.0f}), false);
  Variable y = ag::fitrelu(x, lambda, 8.0f);
  EXPECT_NEAR(y.value()[0], 0.0f, 1e-4f);
}

TEST(Ops, FitReluHalfValueAtBound) {
  // At x == lambda the sigmoid gate is exactly 1/2.
  Variable x(Tensor::from_values({2.0f}).reshape(Shape{1, 1}), true);
  Variable lambda(Tensor::from_values({2.0f}), false);
  Variable y = ag::fitrelu(x, lambda, 4.0f);
  EXPECT_NEAR(y.value()[0], 1.0f, 1e-5f);
}

TEST(Ops, FitReluZeroForNegativeInput) {
  Variable x(Tensor::from_values({-3.0f}).reshape(Shape{1, 1}), true);
  Variable lambda(Tensor::from_values({2.0f}), true);
  Variable y = ag::fitrelu(x, lambda, 8.0f);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(lambda.grad()[0], 0.0f);
}

TEST(Ops, FitReluLambdaGradientIsPositiveNearCutoff) {
  // Raising the bound lets more signal through: d y / d lambda > 0 near x.
  Variable x(Tensor::from_values({2.0f}).reshape(Shape{1, 1}), true);
  Variable lambda(Tensor::from_values({2.0f}), true);
  Variable y = ag::fitrelu(x, lambda, 4.0f);
  y.backward();
  EXPECT_GT(lambda.grad()[0], 0.0f);
}

TEST(Ops, FitReluLambdaGradAccumulatesOverBatch) {
  Variable x(Tensor::full(Shape{4, 1}, 2.0f), true);
  Variable lambda(Tensor::from_values({2.0f}), true);
  Variable y = ag::fitrelu(x, lambda, 4.0f);
  y.backward();
  // Four identical samples -> 4x the single-sample gradient.
  Variable x1(Tensor::full(Shape{1, 1}, 2.0f), true);
  Variable l1(Tensor::from_values({2.0f}), true);
  Variable y1 = ag::fitrelu(x1, l1, 4.0f);
  y1.backward();
  EXPECT_NEAR(lambda.grad()[0], 4.0f * l1.grad()[0], 1e-5f);
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  Variable logits(Tensor::zeros(Shape{2, 4}), true);
  const std::vector<std::int64_t> labels{0, 3};
  Variable loss = ag::softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(loss.value().item(), std::log(4.0f), 1e-5f);
  loss.backward();
  // d loss / d logit = (p - onehot)/B, with p = 1/4 for every class.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t c = 0; c < 4; ++c) {
      const float onehot =
          c == labels[static_cast<std::size_t>(b)] ? 1.0f : 0.0f;
      EXPECT_NEAR(logits.grad()[b * 4 + c], (0.25f - onehot) / 2.0f, 1e-6f)
          << "row " << b << " class " << c;
    }
  }
}

TEST(Ops, SoftmaxCrossEntropyRejectsBadLabels) {
  Variable logits(Tensor::zeros(Shape{1, 3}), true);
  EXPECT_THROW(ag::softmax_cross_entropy(logits, {5}), std::out_of_range);
  EXPECT_THROW(ag::softmax_cross_entropy(logits, {0, 1}),
               std::invalid_argument);
}

TEST(Ops, SumOfSquares) {
  Variable x(Tensor::from_values({1.0f, -2.0f, 3.0f}), true);
  Variable y = ag::sum_of_squares(x);
  EXPECT_FLOAT_EQ(y.value().item(), 14.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -4.0f);
}

TEST(Ops, FlattenPreservesDataAndGrad) {
  Variable x(Tensor::zeros(Shape{2, 2, 2, 2}), true);
  for (std::int64_t i = 0; i < 16; ++i) x.value()[i] = static_cast<float>(i);
  Variable y = ag::flatten(x);
  EXPECT_EQ(y.shape(), Shape({2, 8}));
  EXPECT_FLOAT_EQ(y.value()[5], 5.0f);
  Variable s = ag::sum_of_squares(y);
  s.backward();
  EXPECT_FLOAT_EQ(x.grad()[3], 6.0f);
}

TEST(Ops, MaxPoolForwardAndRouting) {
  Variable x(Tensor::zeros(Shape{1, 1, 2, 2}), true);
  x.value()[0] = 1.0f;
  x.value()[1] = 5.0f;
  x.value()[2] = 3.0f;
  x.value()[3] = 2.0f;
  Variable y = ag::max_pool2d(x, 2, 2);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y.value()[0], 5.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 1.0f);  // routed to the argmax only
}

TEST(Ops, MaxPoolWithoutGradSelectsTheGradPathsValues) {
  // Six 2x2 windows of a 4x6 map, each listed (0,0), (0,1), (1,0), (1,1),
  // and the window position the gradient must reach: a leading NaN, a
  // trailing NaN, signed zeros in both orders, a tied maximum and an
  // all-equal window.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float windows[6][4] = {{nan, 1.0f, 2.0f, 0.0f},
                               {1.0f, nan, 3.0f, 2.0f},
                               {-0.0f, 0.0f, -1.0f, -2.0f},
                               {0.0f, -0.0f, -3.0f, -0.0f},
                               {4.0f, 7.0f, 7.0f, 1.0f},
                               {-5.0f, -5.0f, -5.0f, -5.0f}};
  const int first_max[6] = {0, 2, 0, 0, 1, 0};
  const auto at = [](int window, int k) {
    return (window / 3 * 2 + k / 2) * 6 + window % 3 * 2 + k % 2;
  };
  Variable x(Tensor::zeros(Shape{1, 1, 4, 6}), true);
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 4; ++k) x.value()[at(i, k)] = windows[i][k];
  }
  const auto bits_equal = [](const Variable& a, const Variable& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.value().data(), b.value().data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
  };

  Variable with_grad = ag::max_pool2d(x, 2, 2);
  ASSERT_TRUE(with_grad.requires_grad());
  Variable no_grad;
  {
    const NoGradGuard guard;
    no_grad = ag::max_pool2d(x, 2, 2);
  }
  const Variable constant_input =
      ag::max_pool2d(Variable(x.value(), false), 2, 2);
  EXPECT_FALSE(no_grad.requires_grad());
  EXPECT_FALSE(constant_input.requires_grad());
  EXPECT_TRUE(bits_equal(no_grad, with_grad));
  EXPECT_TRUE(bits_equal(constant_input, with_grad));
  EXPECT_TRUE(std::isnan(with_grad.value()[0]));
  EXPECT_EQ(with_grad.value()[1], 3.0f);
  EXPECT_TRUE(std::signbit(with_grad.value()[2]));
  EXPECT_FALSE(std::signbit(with_grad.value()[3]));
  EXPECT_EQ(with_grad.value()[4], 7.0f);

  with_grad.backward();
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(x.grad()[at(i, k)], k == first_max[i] ? 1.0f : 0.0f)
          << "window " << i << ", position " << k;
    }
  }
}

TEST(Ops, GlobalAvgPool) {
  Variable x(Tensor::zeros(Shape{1, 2, 2, 2}), true);
  for (std::int64_t i = 0; i < 4; ++i) x.value()[i] = 2.0f;       // c0
  for (std::int64_t i = 4; i < 8; ++i) x.value()[i] = 6.0f;       // c1
  Variable y = ag::global_avg_pool(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 6.0f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.25f);
}

TEST(Ops, LinearForwardKnownValues) {
  Variable x(Tensor::from_values({1.0f, 2.0f}).reshape(Shape{1, 2}), false);
  Variable w(Tensor::from_values({3.0f, 4.0f, 5.0f, 6.0f}).reshape(Shape{2, 2}),
             true);
  Variable b(Tensor::from_values({0.5f, -0.5f}), true);
  Variable y = ag::linear(x, w, b);
  // y0 = 1*3 + 2*4 + 0.5 = 11.5 ; y1 = 1*5 + 2*6 - 0.5 = 16.5
  EXPECT_FLOAT_EQ(y.value()[0], 11.5f);
  EXPECT_FLOAT_EQ(y.value()[1], 16.5f);
  y.backward();
  // dW = g^T x with g = ones: each row = x.
  EXPECT_FLOAT_EQ(w.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(w.grad()[1], 2.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
}

TEST(Ops, Conv2dMatchesManualSingleKernel) {
  // 1 input channel, 1 output channel, 2x2 kernel of ones over 3x3 input:
  // each output = sum of the 2x2 window.
  Variable x(Tensor::zeros(Shape{1, 1, 3, 3}), false);
  for (std::int64_t i = 0; i < 9; ++i) x.value()[i] = static_cast<float>(i);
  Variable w(Tensor::ones(Shape{1, 1, 2, 2}), true);
  Variable y = ag::conv2d(x, w, Variable(), 1, 0);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f + 1 + 3 + 4);
  EXPECT_FLOAT_EQ(y.value()[1], 1.0f + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y.value()[2], 3.0f + 4 + 6 + 7);
  EXPECT_FLOAT_EQ(y.value()[3], 4.0f + 5 + 7 + 8);
}

TEST(Ops, Conv2dBiasBroadcasts) {
  Variable x(Tensor::ones(Shape{1, 1, 2, 2}), false);
  Variable w(Tensor::ones(Shape{2, 1, 1, 1}), false);
  Variable b(Tensor::from_values({10.0f, 20.0f}), false);
  Variable y = ag::conv2d(x, w, b, 1, 0);
  EXPECT_FLOAT_EQ(y.value()[0], 11.0f);
  EXPECT_FLOAT_EQ(y.value()[4], 21.0f);
}

/// Index of the first element whose bits differ between got and want (a
/// NaN matches any NaN: the payload is not part of the kernel contract),
/// or -1 when all n match.
std::int64_t first_mismatch(const float* got, const float* want,
                            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const bool both_nan = std::isnan(got[i]) && std::isnan(want[i]);
    if (!both_nan && std::memcmp(got + i, want + i, sizeof(float)) != 0) {
      return i;
    }
  }
  return -1;
}

/// Runs x through conv2d_forward (one call over the batch) and through the
/// eager op, pooled and inline, and expects each to equal
/// conv2d_forward_sample, the per-sample im2col + sgemm reference, bit for
/// bit. Returns the reference output.
std::vector<float> expect_conv_matches_reference(const Conv2dGeometry& geo,
                                                 const Tensor& x,
                                                 const Tensor& w,
                                                 const Tensor* bias,
                                                 const std::string& context) {
  const std::int64_t batch = x.shape()[0];
  const std::int64_t out_c = w.shape()[0];
  const std::int64_t in_stride = geo.in_channels * geo.in_h * geo.in_w;
  const std::int64_t out_stride = out_c * geo.col_cols();
  const float* pb = bias != nullptr ? bias->data() : nullptr;

  std::vector<float> expected(static_cast<std::size_t>(batch * out_stride));
  std::vector<float> col(
      static_cast<std::size_t>(geo.col_rows() * geo.col_cols()));
  for (std::int64_t s = 0; s < batch; ++s) {
    ag::conv2d_forward_sample(geo, out_c, x.data() + s * in_stride, w.data(),
                              pb, col.data(), expected.data() + s * out_stride);
  }
  const auto n = static_cast<std::int64_t>(expected.size());

  std::vector<float> actual(expected.size());
  // NaN-filled, as an uninitialised buffer may be: a route that relies on
  // zeroed scratch leaves NaN in the output.
  std::vector<float> scratch(
      static_cast<std::size_t>(ag::conv2d_scratch_floats(geo, out_c, batch)),
      std::numeric_limits<float>::quiet_NaN());
  ag::conv2d_forward(geo, out_c, batch, x.data(), w.data(), pb, scratch.data(),
                     actual.data());
  EXPECT_EQ(first_mismatch(actual.data(), expected.data(), n), -1) << context;

  const NoGradGuard no_grad;
  const auto eager = [&] {
    return ag::conv2d(Variable(x), Variable(w),
                      bias != nullptr ? Variable(*bias) : Variable(),
                      geo.stride, geo.padding);
  };
  EXPECT_EQ(first_mismatch(eager().value().data(), expected.data(), n), -1)
      << "eager " << context;
  // Under inline kernels (campaign lanes) the eager op runs the whole batch
  // in one conv2d_forward call rather than one pool task per sample.
  const ut::InlineKernelScope inline_kernels;
  EXPECT_EQ(first_mismatch(eager().value().data(), expected.data(), n), -1)
      << "inline eager " << context;
  return expected;
}

// conv2d_forward picks one of three routes from the geometry: maps
// narrower than sgemm's register tile run batch-wide (one im2col matrix and
// one GEMM for the whole batch), other stride-1 convs run kern::conv_direct
// per sample over a zero-bordered copy, and strided convs run
// conv2d_forward_sample. Every output must equal that per-sample routine's
// bit for bit on both kernel backends, and the eager op, which splits the
// batch over the thread pool, must agree.
TEST(Ops, Conv2dBatchWideMatchesPerSampleBitForBit) {
  std::vector<kern::Backend> backends{kern::Backend::scalar};
  if (kern::avx2_supported()) backends.push_back(kern::Backend::avx2);
  ut::Rng rng(17);
  for (const kern::Backend backend : backends) {
    const kern::BackendGuard guard(backend);
    const std::string be = kern::backend_name(backend);
    // Batch-wide boundary. Channel counts straddle the tile (so the
    // per-sample GEMM runs both its narrow and its row-panel orientation)
    // and C*k*k straddles sgemm's K block. Kernels 1, 3 and 5 at the
    // padding that keeps the map (kernel 5 on maps of one or two rows has
    // whole taps in the padding); maps 1x1 to 4x4 and 3x5, the widest one
    // that runs batch-wide. Every third case puts a NaN and an Inf on
    // border taps of the first and last sample and an Inf on a weight that
    // meets the padding.
    int special_cycle = 0;
    for (const auto& [kernel, pad] :
         {std::pair<std::int64_t, std::int64_t>{3, 1}, {1, 0}, {5, 2}}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const auto& [oh, ow] :  // output map
             {std::pair<std::int64_t, std::int64_t>{1, 1},
              {2, 2},
              {3, 3},
              {4, 4},
              {3, 5}}) {
          for (const std::int64_t batch : {1, 3, 64}) {
            for (const bool with_bias : {false, true}) {
              for (const auto& [in_c, out_c] :
                   {std::pair<std::int64_t, std::int64_t>{3, 20}, {32, 6}}) {
                Conv2dGeometry geo;
                geo.in_channels = in_c;
                geo.in_h = stride * (oh - 1) + 1;
                geo.in_w = stride * (ow - 1) + 1;
                geo.kernel_h = geo.kernel_w = kernel;
                geo.stride = stride;
                geo.padding = pad;
                ASSERT_EQ(geo.out_h(), oh);
                ASSERT_EQ(geo.out_w(), ow);
                EXPECT_EQ(ag::conv2d_route(geo),
                          oh * ow < 16  ? ag::ConvRoute::batch_wide
                          : stride == 1 ? ag::ConvRoute::direct
                                        : ag::ConvRoute::im2col);
                Tensor x = Tensor::randn(
                    Shape{batch, in_c, geo.in_h, geo.in_w}, rng);
                Tensor w =
                    Tensor::randn(Shape{out_c, in_c, kernel, kernel}, rng);
                const Tensor b = Tensor::randn(Shape{out_c}, rng);
                const bool specials = ++special_cycle % 3 == 0;
                if (specials) {
                  x.data()[0] = std::nanf("");
                  x.data()[x.numel() - 1] =
                      std::numeric_limits<float>::infinity();
                  w.data()[0] = std::numeric_limits<float>::infinity();
                }
                (void)expect_conv_matches_reference(
                    geo, x, w, with_bias ? &b : nullptr,
                    be + " k" + std::to_string(kernel) + " stride " +
                        std::to_string(stride) + " map " +
                        std::to_string(oh) + "x" + std::to_string(ow) +
                        " batch " + std::to_string(batch) + " channels " +
                        std::to_string(in_c) + "->" + std::to_string(out_c) +
                        (with_bias ? " bias" : "") +
                        (specials ? " NaN/Inf" : ""));
              }
            }
          }
        }
      }
    }
    // Direct route. Map sides the 16-position tile does not divide (and
    // whose rows cross its 8-lane halves), out_c around the 4-channel tile,
    // pad 0 read in place; batch and bias alternate across the matrix.
    int cycle = 0;
    for (const auto& [kernel, pad] :
         {std::pair<std::int64_t, std::int64_t>{1, 0}, {3, 1}, {5, 2}}) {
      for (const std::int64_t side : {4, 5, 7, 8, 16, 32}) {
        for (const std::int64_t out_c : {3, 4, 13}) {
          for (const std::int64_t in_c : {1, 3, 32}) {
            const std::int64_t batch = cycle % 2 == 0 ? 1 : 3;
            const bool with_bias = cycle / 2 % 2 == 1;
            ++cycle;
            Conv2dGeometry geo;
            geo.in_channels = in_c;
            geo.in_h = geo.in_w = side;
            geo.kernel_h = geo.kernel_w = kernel;
            geo.padding = pad;
            ASSERT_EQ(geo.out_h(), side);
            ASSERT_EQ(ag::conv2d_route(geo), ag::ConvRoute::direct);
            const Tensor x =
                Tensor::randn(Shape{batch, in_c, side, side}, rng);
            const Tensor w =
                Tensor::randn(Shape{out_c, in_c, kernel, kernel}, rng);
            const Tensor b = Tensor::randn(Shape{out_c}, rng);
            (void)expect_conv_matches_reference(
                geo, x, w, with_bias ? &b : nullptr,
                be + " direct k" + std::to_string(kernel) + " map " +
                    std::to_string(side) + " batch " + std::to_string(batch) +
                    " channels " + std::to_string(in_c) + "->" +
                    std::to_string(out_c) + (with_bias ? " bias" : ""));
          }
        }
      }
    }
    // Special values on the direct route: a NaN and an Inf in the input and
    // an Inf weight on tap (0, 0), which meets a border zero along the
    // output's first row and column. Inf * 0 = NaN there: padding taps are
    // multiplied, never skipped. Side 7 splits tiles across rows; side 16
    // puts a whole tile on the first row, where that tap reads only zeros.
    for (const std::int64_t side : {7, 16}) {
      Conv2dGeometry geo;
      geo.in_channels = 3;
      geo.in_h = geo.in_w = side;
      geo.kernel_h = geo.kernel_w = 3;
      geo.padding = 1;
      const std::int64_t hw = side * side;
      Tensor x = Tensor::randn(Shape{2, 3, side, side}, rng);
      Tensor w = Tensor::randn(Shape{5, 3, 3, 3}, rng);
      const Tensor b = Tensor::randn(Shape{5}, rng);
      const float inf = std::numeric_limits<float>::infinity();
      x.data()[(0 * 3 + 1) * hw + 2 * side + 3] = std::nanf("");
      x.data()[(1 * 3 + 2) * hw + 4 * side + 5] = inf;
      w.data()[(2 * 3 + 1) * 9] = inf;
      const std::string context =
          be + " direct special values map " + std::to_string(side);
      const std::vector<float> out =
          expect_conv_matches_reference(geo, x, w, &b, context);
      for (std::int64_t s = 0; s < 2; ++s) {
        const float* plane = out.data() + (s * 5 + 2) * hw;
        for (std::int64_t i = 0; i < side; ++i) {
          EXPECT_TRUE(std::isnan(plane[i])) << context << " row 0 col " << i;
          EXPECT_TRUE(std::isnan(plane[i * side]))
              << context << " col 0 row " << i;
        }
      }
    }
  }
}

/// col2im as one loop over every element, the form each geometry ran
/// before the stride-1 spans: every image element receives its adds in
/// (c, kh, kw, y, x) order.
void col2im_per_element(const Conv2dGeometry& g, const float* col,
                        float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* chan = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.padding;
            if (ix >= 0 && ix < g.in_w) {
              chan[iy * g.in_w + ix] += col[(row * oh + y) * ow + x];
            }
          }
        }
      }
    }
  }
}

/// The backward geometries: stride 1 and 2, pad 0 to 2 (kernel 3 at pad 2
/// and kernel 5 at pad 2 on a 2x2 map have taps wholly in the padding),
/// on 2x2 maps, whose dcol GEMM runs sgemm_narrow, and 32x32 maps.
std::vector<Conv2dGeometry> backward_geometries() {
  std::vector<Conv2dGeometry> geos;
  for (const std::int64_t side : {2, 32}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const auto& [kernel, pad] :
           {std::pair<std::int64_t, std::int64_t>{3, 0}, {3, 1}, {3, 2},
            {5, 2}, {1, 0}}) {
        Conv2dGeometry geo;
        geo.in_channels = 4;
        geo.in_h = geo.in_w = side;
        geo.kernel_h = geo.kernel_w = kernel;
        geo.stride = stride;
        geo.padding = pad;
        if (side + 2 * pad >= kernel) geos.push_back(geo);
      }
    }
  }
  return geos;
}

std::string geometry_name(const Conv2dGeometry& geo) {
  std::ostringstream name;
  name << "k" << geo.kernel_h << " stride " << geo.stride << " pad "
       << geo.padding << " map " << geo.in_h;
  return name.str();
}

TEST(Ops, Col2imStrideOneSpansMatchThePerElementLoop) {
  ut::Rng rng(29);
  for (const Conv2dGeometry& geo : backward_geometries()) {
    const Tensor col =
        Tensor::randn(Shape{geo.col_rows(), geo.col_cols()}, rng);
    // Adds land on a nonzero image, as dX accumulates onto its buffer.
    const Tensor image =
        Tensor::randn(Shape{geo.in_channels, geo.in_h, geo.in_w}, rng);
    Tensor got = image.clone();
    Tensor want = image.clone();
    col2im(geo, col.data(), got.data());
    col2im_per_element(geo, col.data(), want.data());
    EXPECT_EQ(first_mismatch(got.data(), want.data(), got.numel()), -1)
        << geometry_name(geo);
  }
}

// The conv backward runs dX over samples on the pool and dW and db after
// it. Each must equal one serial pass over the samples, bit for bit: per
// sample, dcol = W^T g_b by sgemm and its per-element col2im into the
// sample's dX slice, then dW += g_b colT and db += the sample's row sums.
// The weights are frozen (post-training: dX only) or trainable (stage-1
// training), and the op runs on the pool and inline.
TEST(Ops, Conv2dBackwardMatchesTheSerialPerSampleLoopBitForBit) {
  std::vector<kern::Backend> backends{kern::Backend::scalar};
  if (kern::avx2_supported()) backends.push_back(kern::Backend::avx2);
  ut::Rng rng(31);
  constexpr std::int64_t out_c = 6;
  for (const kern::Backend backend : backends) {
    const kern::BackendGuard guard(backend);
    for (const Conv2dGeometry& geo : backward_geometries()) {
      const std::int64_t ckk = geo.col_rows();
      const std::int64_t ohw = geo.col_cols();
      const std::int64_t in_stride = geo.in_channels * geo.in_h * geo.in_w;
      for (const std::int64_t batch : {1, 3, 32}) {
        const Tensor x = Tensor::randn(
            Shape{batch, geo.in_channels, geo.in_h, geo.in_w}, rng);
        const Tensor w = Tensor::randn(
            Shape{out_c, geo.in_channels, geo.kernel_h, geo.kernel_w}, rng);
        const Tensor b = Tensor::randn(Shape{out_c}, rng);
        const Tensor g =
            Tensor::randn(Shape{batch, out_c, geo.out_h(), geo.out_w()}, rng);

        std::vector<float> dx(static_cast<std::size_t>(x.numel()), 0.0f);
        std::vector<float> dw(static_cast<std::size_t>(w.numel()), 0.0f);
        std::vector<float> db(static_cast<std::size_t>(out_c), 0.0f);
        std::vector<float> buf(static_cast<std::size_t>(ckk * ohw));
        std::vector<float> colt(buf.size());
        for (std::int64_t s = 0; s < batch; ++s) {
          const float* gs = g.data() + s * out_c * ohw;
          sgemm(true, false, ckk, ohw, out_c, 1.0f, w.data(), ckk, gs, ohw,
                0.0f, buf.data(), ohw);
          col2im_per_element(geo, buf.data(), dx.data() + s * in_stride);
          im2col(geo, x.data() + s * in_stride, buf.data());
          for (std::int64_t r = 0; r < ckk; ++r) {
            for (std::int64_t c = 0; c < ohw; ++c) {
              colt[static_cast<std::size_t>(c * ckk + r)] =
                  buf[static_cast<std::size_t>(r * ohw + c)];
            }
          }
          sgemm(false, false, out_c, ckk, ohw, 1.0f, gs, ohw, colt.data(),
                ckk, 1.0f, dw.data(), ckk);
          for (std::int64_t c = 0; c < out_c; ++c) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < ohw; ++i) acc += gs[c * ohw + i];
            db[static_cast<std::size_t>(c)] += static_cast<float>(acc);
          }
        }

        for (const bool trainable : {false, true}) {
          for (const bool inline_kernels : {false, true}) {
            const std::string context =
                std::string(kern::backend_name(backend)) + " " +
                geometry_name(geo) + " batch " + std::to_string(batch) +
                (trainable ? " trainable" : " frozen") +
                (inline_kernels ? " inline" : " pool");
            Variable xv(x, true);
            Variable wv(w, trainable);
            Variable bv(b, trainable);
            Variable y = ag::conv2d(xv, wv, bv, geo.stride, geo.padding);
            {
              std::optional<ut::InlineKernelScope> scope;
              if (inline_kernels) scope.emplace();
              y.backward(g);
            }
            EXPECT_EQ(first_mismatch(xv.grad().data(), dx.data(), x.numel()),
                      -1)
                << "dX " << context;
            if (trainable) {
              EXPECT_EQ(
                  first_mismatch(wv.grad().data(), dw.data(), w.numel()), -1)
                  << "dW " << context;
              EXPECT_EQ(first_mismatch(bv.grad().data(), db.data(), out_c),
                        -1)
                  << "db " << context;
            } else {
              EXPECT_FALSE(wv.has_grad()) << context;
              EXPECT_FALSE(bv.has_grad()) << context;
            }
          }
        }
      }
    }
  }
}

/// The FitReLU backward as one serial pass over the elements: bound index
/// by i % feat, and stable_sigmoid's exp for every x > 0.
void fitrelu_backward_serial(const Tensor& x, const Tensor& lambda, float k,
                             const Tensor& g, float* dx, float* dl) {
  const ag::FeatureBroadcast fb = ag::FeatureBroadcast::of(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float xi = x[i];
    if (xi <= 0.0f) continue;
    const std::int64_t li = fb.map(i % fb.feat, lambda.numel());
    const float s = ag::stable_sigmoid(k * (lambda[li] - xi));
    const float ds = s * (1.0f - s);
    dx[i] += g[i] * (s - k * xi * ds);
    dl[li] += g[i] * (k * xi * ds);
  }
}

// The FitReLU backward walks bound-index ranges on the pool and takes s = 1
// without the exp from t = kFitReluUnitT on. dx and dlambda must equal the
// serial formula bit for bit at every bound extent, rank 2 and rank 4, on
// the pool and inline: with t on and either side of 17, x = +-0, NaN and
// +-Inf in x, lambda, k and g, and k * x overflowing while t stays finite
// (k = 3e38 on x just below its bound), where the formula's 0 * Inf makes
// dx and dlambda NaN. The last bound's terms are all skipped at k = 8: it
// stays +0. The forward, split over sample rows, must equal one
// fitrelu_forward call over the batch.
TEST(Ops, FitReluBackwardMatchesTheSerialFormulaBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float below17 = std::nextafter(17.0f, 0.0f);
  const float above17 = std::nextafter(17.0f, inf);
  std::vector<kern::Backend> backends{kern::Backend::scalar};
  if (kern::avx2_supported()) backends.push_back(kern::Backend::avx2);
  ut::Rng rng(37);
  for (const Shape& shape : {Shape{7, 40}, Shape{5, 6, 3, 4}}) {
    const ag::FeatureBroadcast fb = ag::FeatureBroadcast::of(shape);
    std::vector<std::int64_t> extents{1, fb.channels};  // layer, channel
    if (fb.feat != fb.channels) extents.push_back(fb.feat);  // neuron
    for (const std::int64_t ln : extents) {
      const std::int64_t last = ln - 1;
      // Finite bounds come from a set on which lambda - t / 8 is exact, so
      // k = 8 hits the planted t exactly; bounds 1..3 are NaN and +-Inf.
      Tensor lambda(Shape{ln});
      for (std::int64_t j = 0; j < ln; ++j) {
        lambda.data()[j] = 2.5f + 0.5f * static_cast<float>(j % 4);
      }
      if (ln > 3) {
        lambda.data()[1] = nan;
        lambda.data()[2] = inf;
        lambda.data()[3] = -inf;
      }
      for (const float lambda0 : {3.0f, nan, inf, -inf}) {
        if (ln > 1 && lambda0 != 3.0f) continue;
        lambda.data()[0] = lambda0;
        Tensor x(shape);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          const std::int64_t j = fb.map(i % fb.feat, ln);
          const float l = lambda[j];
          float v = rng.normal(0.0f, 2.0f);
          if (ln > 1 && j == last) {
            v = 0.25f;  // t = 8 * (l - 0.25) >= 18
          } else if (std::isfinite(l)) {
            switch (i % 6) {
              case 0: v = l - below17 / 8.0f; break;
              case 1: v = l - 17.0f / 8.0f; break;
              case 2: v = l - above17 / 8.0f; break;
              case 3: v = l - 0x1p-21f; break;  // just below the bound
              default: break;
            }
            if (i % 6 < 3) {
              const float t = 8.0f * (l - v);
              ASSERT_EQ(t, i % 6 == 0 ? below17 : i % 6 == 1 ? 17.0f : above17);
            }
          }
          x.data()[i] = v;
        }
        x.data()[1] = nan;
        x.data()[2] = inf;
        x.data()[3] = -inf;
        x.data()[4] = 0.0f;
        x.data()[5] = -0.0f;
        Tensor g = Tensor::randn(shape, rng);
        g.data()[7] = nan;
        g.data()[8] = inf;
        g.data()[9] = -inf;
        for (const float k : {8.0f, 0.5f, 3e38f, nan, inf, -inf}) {
          std::vector<float> dx(static_cast<std::size_t>(x.numel()), 0.0f);
          std::vector<float> dl(static_cast<std::size_t>(ln), 0.0f);
          fitrelu_backward_serial(x, lambda, k, g, dx.data(), dl.data());
          if (k == 8.0f && ln > 1) {
            ASSERT_EQ(dl.back(), 0.0f);
            ASSERT_FALSE(std::signbit(dl.back()));
          }
          for (const kern::Backend backend : backends) {
            const kern::BackendGuard guard(backend);
            std::vector<float> fwd(static_cast<std::size_t>(x.numel()));
            (void)ag::fitrelu_forward(x.data(), lambda.data(), ln, fb, k,
                                      fwd.data(), x.numel());
            for (const bool inline_kernels : {false, true}) {
              std::ostringstream context;
              context << kern::backend_name(backend) << " " << shape.str()
                      << " bounds " << ln << " lambda0 " << lambda0 << " k "
                      << k << (inline_kernels ? " inline" : " pool");
              std::optional<ut::InlineKernelScope> scope;
              if (inline_kernels) scope.emplace();
              Variable xv(x, true);
              Variable lv(lambda, true);
              Variable y = ag::fitrelu(xv, lv, k);
              EXPECT_EQ(first_mismatch(y.value().data(), fwd.data(),
                                       x.numel()),
                        -1)
                  << "forward " << context.str();
              y.backward(g);
              EXPECT_EQ(
                  first_mismatch(xv.grad().data(), dx.data(), x.numel()), -1)
                  << "dx " << context.str();
              EXPECT_EQ(first_mismatch(lv.grad().data(), dl.data(), ln), -1)
                  << "dlambda " << context.str();
            }
          }
        }
      }
    }
  }
}

TEST(Ops, BatchNormTrainingNormalises) {
  ut::Rng rng(3);
  Variable x(Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f), false);
  Variable gamma(Tensor::ones(Shape{2}), true);
  Variable beta(Tensor::zeros(Shape{2}), true);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::ones(Shape{2});
  Variable y =
      ag::batch_norm2d(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f);
  // Output channel statistics ~ N(0, 1).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sum2 = 0.0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const float v = y.value()[b * 32 + c * 16 + i];
        sum += v;
        sum2 += static_cast<double>(v) * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sum2 / n, 1.0, 1e-3);
  }
  // Running stats moved from their init toward batch stats.
  EXPECT_NE(rm[0], 0.0f);
}

TEST(Ops, BatchNormEvalUsesRunningStats) {
  Variable x(Tensor::full(Shape{1, 1, 1, 2}, 4.0f), false);
  Variable gamma(Tensor::ones(Shape{1}), false);
  Variable beta(Tensor::zeros(Shape{1}), false);
  Tensor rm = Tensor::full(Shape{1}, 2.0f);
  Tensor rv = Tensor::full(Shape{1}, 4.0f);
  Variable y = ag::batch_norm2d(x, gamma, beta, rm, rv, false, 0.1f, 0.0f);
  EXPECT_NEAR(y.value()[0], (4.0f - 2.0f) / 2.0f, 1e-5f);
  // Eval mode must not touch running stats.
  EXPECT_FLOAT_EQ(rm[0], 2.0f);
  EXPECT_FLOAT_EQ(rv[0], 4.0f);
}

}  // namespace
}  // namespace fitact
