// Unit tests for src/tensor: Shape, Tensor storage semantics, elementwise
// ops, reductions, and the im2col/col2im pair.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fitact {
namespace {

TEST(Shape, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, EqualityAndString) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(Shape({1, 2}).str(), "[1, 2]");
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({-1, 2}), std::invalid_argument);
  EXPECT_THROW((void)Shape({2}).dim(5), std::out_of_range);
}

TEST(Shape, EmptyShapeNumelIsOne) {
  const Shape s;
  EXPECT_EQ(s.numel(), 1);
  EXPECT_TRUE(s.empty());
}

TEST(Tensor, ZerosOnesFull) {
  const Tensor z = Tensor::zeros(Shape{2, 2});
  const Tensor o = Tensor::ones(Shape{2, 2});
  const Tensor f = Tensor::full(Shape{2, 2}, 3.5f);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(z[i], 0.0f);
    EXPECT_EQ(o[i], 1.0f);
    EXPECT_EQ(f[i], 3.5f);
  }
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::zeros(Shape{4});
  Tensor shared = a;      // shares
  Tensor deep = a.clone();  // independent
  a[0] = 9.0f;
  EXPECT_EQ(shared[0], 9.0f);
  EXPECT_EQ(deep[0], 0.0f);
}

TEST(Tensor, ReshapeSharesStorageAndChecksNumel) {
  Tensor a = Tensor::zeros(Shape{2, 6});
  Tensor b = a.reshape(Shape{3, 4});
  b[0] = 5.0f;
  EXPECT_EQ(a[0], 5.0f);
  EXPECT_THROW(a.reshape(Shape{5}), std::invalid_argument);
}

TEST(Tensor, AtBoundsChecking) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  a.at({1, 2}) = 7.0f;
  EXPECT_EQ(a[5], 7.0f);
  EXPECT_THROW((void)a.at({2, 0}), std::out_of_range);
  EXPECT_THROW((void)a.at({0}), std::invalid_argument);
}

TEST(Tensor, ItemRequiresSingleElement) {
  EXPECT_EQ(Tensor::scalar(2.5f).item(), 2.5f);
  EXPECT_THROW((void)Tensor::zeros(Shape{2}).item(), std::logic_error);
}

TEST(Tensor, RandnStatistics) {
  ut::Rng rng(5);
  const Tensor t = Tensor::randn(Shape{10000}, rng, 2.0f);
  double sum = 0.0;
  double sum2 = 0.0;
  for (const float v : t.span()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double mean = sum / 10000.0;
  const double var = sum2 / 10000.0 - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(TensorOps, ElementwiseAddScale) {
  const Tensor a = Tensor::from_values({1.0f, 2.0f, 3.0f});
  const Tensor b = Tensor::from_values({4.0f, 5.0f, 6.0f});
  const Tensor s = add(a, b);
  const Tensor sc = scale(a, 2.0f);
  EXPECT_EQ(s[1], 7.0f);
  EXPECT_EQ(sc[2], 6.0f);
}

TEST(TensorOps, MismatchThrows) {
  const Tensor a = Tensor::zeros(Shape{3});
  const Tensor b = Tensor::zeros(Shape{4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(TensorOps, ClampMinInplace) {
  Tensor c = Tensor::from_values({-1.0f, 3.0f});
  clamp_min_inplace(c, 0.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 3.0f);
}

TEST(TensorOps, ArgmaxRows) {
  Tensor a = Tensor::zeros(Shape{2, 3});
  a.at({0, 1}) = 5.0f;
  a.at({1, 2}) = 2.0f;
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 2);
}

TEST(TensorOps, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1, no padding: col equals the image.
  Conv2dGeometry g;
  g.in_channels = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel_h = 1;
  g.kernel_w = 1;
  Tensor img = Tensor::zeros(Shape{2, 3, 3});
  for (std::int64_t i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col[i], static_cast<float>(i));
  }
}

TEST(TensorOps, Im2colPaddingProducesZeroBorder) {
  Conv2dGeometry g;
  g.in_channels = 1;
  g.in_h = 2;
  g.in_w = 2;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.padding = 1;
  const Tensor img = Tensor::ones(Shape{1, 2, 2});
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // kernel position (0,0) looking at output (0,0) reads input (-1,-1) -> 0.
  EXPECT_EQ(col[0], 0.0f);
  // centre kernel position (1,1) at output (0,0) reads input (0,0) -> 1.
  const std::int64_t centre_row = 4;  // kh=1, kw=1
  EXPECT_EQ(col[static_cast<std::size_t>(centre_row * g.col_cols())], 1.0f);
}

TEST(TensorOps, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
  Conv2dGeometry g;
  g.in_channels = 3;
  g.in_h = 6;
  g.in_w = 5;
  g.kernel_h = 3;
  g.kernel_w = 2;
  g.stride = 2;
  g.padding = 1;
  ut::Rng rng(99);
  const Tensor x = Tensor::randn(Shape{3, 6, 5}, rng);
  const std::int64_t cols = g.col_rows() * g.col_cols();
  Tensor y = Tensor::randn(Shape{cols}, rng);
  std::vector<float> colx(static_cast<std::size_t>(cols));
  im2col(g, x.data(), colx.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols; ++i) {
    lhs += static_cast<double>(colx[static_cast<std::size_t>(i)]) * y[i];
  }
  Tensor xadj = Tensor::zeros(x.shape());
  col2im(g, y.data(), xadj.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * xadj[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-4);
}

TEST(TensorOps, ConvGeometryOutputSizes) {
  Conv2dGeometry g;
  g.in_channels = 1;
  g.in_h = 32;
  g.in_w = 32;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.padding = 1;
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 16);
}

}  // namespace
}  // namespace fitact
