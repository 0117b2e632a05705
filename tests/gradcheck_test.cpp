// Numerical gradient checks: every differentiable op is validated against a
// central-difference approximation on randomised inputs. This is the
// strongest correctness guarantee for the training substrate that both the
// conventional and the FitAct post-training stages rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "util/rng.h"

namespace fitact {
namespace {

/// Checks d scalar_fn / d input at `x` against central differences.
/// scalar_fn must rebuild the graph from the passed variable on every call.
void expect_gradcheck(const std::function<Variable(Variable&)>& scalar_fn,
                      Tensor x0, float eps = 1e-3f, float tol = 2e-2f) {
  Variable x(x0.clone(), true);
  Variable y = scalar_fn(x);
  ASSERT_EQ(y.numel(), 1) << "gradcheck requires scalar output";
  y.backward();
  const Tensor analytic = x.grad().clone();

  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    Tensor xp = x0.clone();
    xp[i] += eps;
    Variable vp(xp, false);
    const float fp = scalar_fn(vp).value().item();
    Tensor xm = x0.clone();
    xm[i] -= eps;
    Variable vm(xm, false);
    const float fm = scalar_fn(vm).value().item();
    const float numeric = (fp - fm) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tol * (1.0f + std::abs(numeric)))
        << "element " << i;
  }
}

TEST(GradCheck, Scale) {
  ut::Rng rng(2);
  expect_gradcheck(
      [&](Variable& v) { return ag::sum_of_squares(ag::scale(v, -1.7f)); },
      Tensor::randn(Shape{5}, rng));
}

TEST(GradCheck, LinearWeight) {
  ut::Rng rng(5);
  const Tensor x = Tensor::randn(Shape{3, 4}, rng);
  const Tensor bias = Tensor::randn(Shape{2}, rng);
  expect_gradcheck(
      [&](Variable& w) {
        Variable vx(x, false);
        Variable vb(bias, false);
        return ag::sum_of_squares(ag::linear(vx, w, vb));
      },
      Tensor::randn(Shape{2, 4}, rng));
}

TEST(GradCheck, LinearInput) {
  ut::Rng rng(6);
  const Tensor w = Tensor::randn(Shape{2, 4}, rng);
  expect_gradcheck(
      [&](Variable& x) {
        Variable vw(w, false);
        return ag::sum_of_squares(ag::linear(x, vw, Variable()));
      },
      Tensor::randn(Shape{3, 4}, rng));
}

TEST(GradCheck, LinearBias) {
  ut::Rng rng(7);
  const Tensor x = Tensor::randn(Shape{3, 4}, rng);
  const Tensor w = Tensor::randn(Shape{2, 4}, rng);
  expect_gradcheck(
      [&](Variable& b) {
        Variable vx(x, false);
        Variable vw(w, false);
        return ag::sum_of_squares(ag::linear(vx, vw, b));
      },
      Tensor::randn(Shape{2}, rng));
}

TEST(GradCheck, Conv2dWeight) {
  ut::Rng rng(8);
  const Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  expect_gradcheck(
      [&](Variable& w) {
        Variable vx(x, false);
        return ag::sum_of_squares(ag::conv2d(vx, w, Variable(), 1, 1));
      },
      Tensor::randn(Shape{3, 2, 3, 3}, rng));
}

TEST(GradCheck, Conv2dInput) {
  ut::Rng rng(9);
  const Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  expect_gradcheck(
      [&](Variable& x) {
        Variable vw(w, false);
        return ag::sum_of_squares(ag::conv2d(x, vw, Variable(), 1, 1));
      },
      Tensor::randn(Shape{1, 2, 4, 4}, rng));
}

TEST(GradCheck, Conv2dStridedInput) {
  ut::Rng rng(10);
  const Tensor w = Tensor::randn(Shape{2, 1, 3, 3}, rng);
  expect_gradcheck(
      [&](Variable& x) {
        Variable vw(w, false);
        return ag::sum_of_squares(ag::conv2d(x, vw, Variable(), 2, 1));
      },
      Tensor::randn(Shape{1, 1, 6, 6}, rng));
}

TEST(GradCheck, Conv2dBias) {
  ut::Rng rng(11);
  const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  const Tensor w = Tensor::randn(Shape{2, 1, 3, 3}, rng);
  expect_gradcheck(
      [&](Variable& b) {
        Variable vx(x, false);
        Variable vw(w, false);
        return ag::sum_of_squares(ag::conv2d(vx, vw, b, 1, 0));
      },
      Tensor::randn(Shape{2}, rng));
}

TEST(GradCheck, ReluAwayFromKink) {
  ut::Rng rng(12);
  // Keep values away from 0 where relu is non-differentiable.
  Tensor x = Tensor::randn(Shape{8}, rng);
  for (auto& v : x.span()) {
    if (std::abs(v) < 0.2f) v += (v >= 0 ? 0.4f : -0.4f);
  }
  expect_gradcheck(
      [&](Variable& v) { return ag::sum_of_squares(ag::relu(v)); }, x);
}

TEST(GradCheck, FitReluWrtInput) {
  ut::Rng rng(13);
  Tensor x = Tensor::rand_uniform(Shape{2, 6}, rng, 0.3f, 3.0f);
  const Tensor lambda = Tensor::rand_uniform(Shape{6}, rng, 0.5f, 2.5f);
  expect_gradcheck(
      [&](Variable& v) {
        Variable l(lambda, false);
        return ag::sum_of_squares(ag::fitrelu(v, l, 3.0f));
      },
      x);
}

TEST(GradCheck, FitReluWrtLambdaPerNeuron) {
  ut::Rng rng(14);
  const Tensor x = Tensor::rand_uniform(Shape{3, 5}, rng, 0.2f, 3.0f);
  expect_gradcheck(
      [&](Variable& l) {
        Variable vx(x, false);
        return ag::sum_of_squares(ag::fitrelu(vx, l, 3.0f));
      },
      Tensor::rand_uniform(Shape{5}, rng, 0.5f, 2.5f));
}

TEST(GradCheck, FitReluWrtLambdaPerChannel4d) {
  ut::Rng rng(15);
  const Tensor x = Tensor::rand_uniform(Shape{2, 3, 2, 2}, rng, 0.2f, 3.0f);
  expect_gradcheck(
      [&](Variable& l) {
        Variable vx(x, false);
        return ag::sum_of_squares(ag::fitrelu(vx, l, 3.0f));
      },
      Tensor::rand_uniform(Shape{3}, rng, 0.5f, 2.5f));
}

TEST(GradCheck, FitReluWrtLambdaPerLayer) {
  ut::Rng rng(16);
  const Tensor x = Tensor::rand_uniform(Shape{2, 4}, rng, 0.2f, 3.0f);
  expect_gradcheck(
      [&](Variable& l) {
        Variable vx(x, false);
        return ag::sum_of_squares(ag::fitrelu(vx, l, 3.0f));
      },
      Tensor::rand_uniform(Shape{1}, rng, 0.5f, 2.5f));
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  ut::Rng rng(17);
  expect_gradcheck(
      [&](Variable& v) { return ag::softmax_cross_entropy(v, {1, 0, 2}); },
      Tensor::randn(Shape{3, 4}, rng));
}

TEST(GradCheck, BatchNormTrainingInput) {
  ut::Rng rng(18);
  const Tensor gamma = Tensor::rand_uniform(Shape{2}, rng, 0.5f, 1.5f);
  const Tensor beta = Tensor::randn(Shape{2}, rng);
  expect_gradcheck(
      [&](Variable& x) {
        Variable vg(gamma, false);
        Variable vb(beta, false);
        Tensor rm = Tensor::zeros(Shape{2});
        Tensor rv = Tensor::ones(Shape{2});
        return ag::sum_of_squares(
            ag::batch_norm2d(x, vg, vb, rm, rv, true, 0.1f, 1e-5f));
      },
      Tensor::randn(Shape{3, 2, 2, 2}, rng), 1e-2f, 4e-2f);
}

TEST(GradCheck, BatchNormGamma) {
  ut::Rng rng(19);
  const Tensor x = Tensor::randn(Shape{3, 2, 2, 2}, rng);
  const Tensor beta = Tensor::randn(Shape{2}, rng);
  expect_gradcheck(
      [&](Variable& g) {
        Variable vx(x, false);
        Variable vb(beta, false);
        Tensor rm = Tensor::zeros(Shape{2});
        Tensor rv = Tensor::ones(Shape{2});
        return ag::sum_of_squares(
            ag::batch_norm2d(vx, g, vb, rm, rv, true, 0.1f, 1e-5f));
      },
      Tensor::rand_uniform(Shape{2}, rng, 0.5f, 1.5f));
}

TEST(GradCheck, BatchNormEvalInput) {
  ut::Rng rng(20);
  const Tensor gamma = Tensor::rand_uniform(Shape{2}, rng, 0.5f, 1.5f);
  const Tensor beta = Tensor::randn(Shape{2}, rng);
  Tensor rm = Tensor::randn(Shape{2}, rng);
  Tensor rv = Tensor::rand_uniform(Shape{2}, rng, 0.5f, 2.0f);
  expect_gradcheck(
      [&](Variable& x) {
        Variable vg(gamma, false);
        Variable vb(beta, false);
        Tensor rm_copy = rm.clone();
        Tensor rv_copy = rv.clone();
        return ag::sum_of_squares(
            ag::batch_norm2d(x, vg, vb, rm_copy, rv_copy, false, 0.1f, 1e-5f));
      },
      Tensor::randn(Shape{3, 2, 2, 2}, rng));
}

TEST(GradCheck, GlobalAvgPool) {
  ut::Rng rng(21);
  expect_gradcheck(
      [&](Variable& x) {
        return ag::sum_of_squares(ag::global_avg_pool(x));
      },
      Tensor::randn(Shape{2, 3, 3, 3}, rng));
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  ut::Rng rng(22);
  // Random continuous values: ties have measure ~0.
  expect_gradcheck(
      [&](Variable& x) {
        return ag::sum_of_squares(ag::max_pool2d(x, 2, 2));
      },
      Tensor::randn(Shape{1, 2, 4, 4}, rng));
}

TEST(GradCheck, CompositeNetworkSlice) {
  // conv -> relu -> pool -> flatten -> CE: a miniature of the real models.
  ut::Rng rng(23);
  const Tensor x = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  expect_gradcheck(
      [&](Variable& w) {
        Variable vx(x, false);
        Variable h = ag::conv2d(vx, w, Variable(), 1, 1);
        h = ag::relu(h);
        h = ag::max_pool2d(h, 2, 2);
        h = ag::flatten(h);
        return ag::softmax_cross_entropy(h, {1, 0});
      },
      Tensor::randn(Shape{2, 1, 3, 3}, rng), 1e-2f, 4e-2f);
}

}  // namespace
}  // namespace fitact
