// Unit tests for src/nn: module tree mechanics, layers, optimisers, and the
// checkpoint serializer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "autograd/ops.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace fitact::nn {
namespace {

TEST(Module, NamedParametersUseDottedPaths) {
  ut::Rng rng(1);
  Sequential net;
  net.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng));
  net.add(std::make_shared<Linear>(8, 2, true, rng));
  const auto params = net.named_parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "0.weight");
  EXPECT_EQ(params[1].name, "0.bias");
  EXPECT_EQ(params[2].name, "1.weight");
  EXPECT_EQ(params[3].name, "1.bias");
}

TEST(Module, ParameterCountMatches) {
  ut::Rng rng(2);
  Sequential net;
  net.add(std::make_shared<Linear>(10, 5, true, rng));
  EXPECT_EQ(net.parameter_count(), 10 * 5 + 5);
}

TEST(Module, SetTrainingPropagates) {
  ut::Rng rng(3);
  Sequential outer;
  auto inner = std::make_shared<Sequential>();
  inner->add(std::make_shared<BatchNorm2d>(2));
  outer.add(inner);
  outer.set_training(false);
  EXPECT_FALSE(inner->is_training());
  EXPECT_FALSE(inner->at(0)->is_training());
}

TEST(Module, ZeroGradClearsAllGrads) {
  ut::Rng rng(4);
  Linear lin(4, 2, true, rng);
  Variable x(Tensor::randn(Shape{1, 4}, rng), false);
  Variable y = ag::sum_of_squares(lin.forward(x));
  y.backward();
  bool any_nonzero = false;
  for (auto& p : lin.named_parameters()) {
    for (const float g : p.var.grad().span()) {
      if (g != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (auto& p : lin.named_parameters()) {
    for (const float g : p.var.grad().span()) EXPECT_EQ(g, 0.0f);
  }
}

TEST(Module, BuffersAreCollected) {
  BatchNorm2d bn(3);
  const auto buffers = bn.named_buffers();
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0].name, "running_mean");
  EXPECT_EQ(buffers[1].name, "running_var");
}

TEST(Layers, Conv2dOutputShape) {
  ut::Rng rng(5);
  Conv2d conv(3, 8, 3, 2, 1, true, rng);
  Variable x(Tensor::randn(Shape{2, 3, 32, 32}, rng), false);
  const Variable y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 16, 16}));
}

TEST(Layers, SequentialComposes) {
  ut::Rng rng(6);
  Sequential net;
  net.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng));
  net.add(std::make_shared<MaxPool2d>(2));
  net.add(std::make_shared<Flatten>());
  net.add(std::make_shared<Linear>(4 * 16 * 16, 10, true, rng));
  Variable x(Tensor::randn(Shape{2, 3, 32, 32}, rng), false);
  const Variable y = net.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(Layers, BatchNormTrainVsEvalDiffer) {
  ut::Rng rng(7);
  BatchNorm2d bn(2);
  Variable x(Tensor::randn(Shape{4, 2, 3, 3}, rng, 5.0f), false);
  bn.set_training(true);
  const Variable y_train = bn.forward(x);
  bn.set_training(false);
  const Variable y_eval = bn.forward(x);
  // Eval uses (partially updated) running stats -> different output.
  bool differs = false;
  for (std::int64_t i = 0; i < y_train.numel(); ++i) {
    if (std::abs(y_train.value()[i] - y_eval.value()[i]) > 1e-4f) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Optimizer, SgdStepsDownhillOnQuadratic) {
  // minimise f(w) = |w|^2; SGD must decrease it monotonically.
  Variable w(Tensor::from_values({3.0f, -2.0f}), true);
  Sgd sgd({w}, 0.1f, 0.0f, 0.0f);
  float prev = 13.0f;
  for (int i = 0; i < 20; ++i) {
    sgd.zero_grad();
    Variable loss = ag::sum_of_squares(w);
    loss.backward();
    sgd.step();
    const float now = ag::sum_of_squares(w).value().item();
    EXPECT_LT(now, prev);
    prev = now;
  }
  EXPECT_LT(prev, 0.1f);
}

TEST(Optimizer, SgdMomentumAcceleratesOverPlainSgd) {
  Variable w1(Tensor::from_values({4.0f}), true);
  Variable w2(Tensor::from_values({4.0f}), true);
  Sgd plain({w1}, 0.02f, 0.0f, 0.0f);
  Sgd heavy({w2}, 0.02f, 0.9f, 0.0f);
  for (int i = 0; i < 15; ++i) {
    plain.zero_grad();
    Variable l1 = ag::sum_of_squares(w1);
    l1.backward();
    plain.step();
    heavy.zero_grad();
    Variable l2 = ag::sum_of_squares(w2);
    l2.backward();
    heavy.step();
  }
  EXPECT_LT(std::abs(w2.value()[0]), std::abs(w1.value()[0]));
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Variable w(Tensor::from_values({1.0f}), true);
  Sgd sgd({w}, 0.1f, 0.0f, 0.5f);
  // No data gradient at all: decay alone must shrink the weight.
  w.ensure_grad();
  sgd.step();
  EXPECT_LT(w.value()[0], 1.0f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Variable w(Tensor::from_values({5.0f, -5.0f, 2.0f}), true);
  Adam adam({w}, 0.2f);
  for (int i = 0; i < 100; ++i) {
    adam.zero_grad();
    Variable loss = ag::sum_of_squares(w);
    loss.backward();
    adam.step();
  }
  for (const float v : w.value().span()) EXPECT_NEAR(v, 0.0f, 0.05f);
}

TEST(Optimizer, AdamSkipsParamsWithoutGrad) {
  Variable w(Tensor::from_values({1.0f}), true);
  Adam adam({w}, 0.5f);
  adam.step();  // no grad allocated yet: must be a no-op
  EXPECT_FLOAT_EQ(w.value()[0], 1.0f);
}

TEST(Serialize, RoundTripsParamsAndBuffers) {
  ut::Rng rng(8);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_ckpt_test.bin")
          .string();
  Sequential a;
  a.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng));
  a.add(std::make_shared<BatchNorm2d>(4));
  // Perturb a buffer to verify buffers round-trip too.
  a.named_buffers()[0].tensor.fill(0.25f);
  save_state(a, path);

  ut::Rng rng2(999);
  Sequential b;
  b.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng2));
  b.add(std::make_shared<BatchNorm2d>(4));
  ASSERT_TRUE(load_state(b, path));
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].var.numel(); ++j) {
      EXPECT_EQ(pa[i].var.value()[j], pb[i].var.value()[j]);
    }
  }
  EXPECT_EQ(b.named_buffers()[0].tensor[0], 0.25f);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileReturnsFalse) {
  ut::Rng rng(9);
  Linear lin(2, 2, true, rng);
  EXPECT_FALSE(load_state(lin, "/nonexistent/path/x.bin"));
}

TEST(Serialize, ShapeMismatchThrows) {
  ut::Rng rng(10);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_ckpt_mismatch.bin")
          .string();
  Linear small(2, 2, true, rng);
  save_state(small, path);
  Linear big(4, 4, true, rng);
  EXPECT_THROW(load_state(big, path), std::runtime_error);
  std::filesystem::remove(path);
}

// A checkpoint must cover every entry of the module. One that covers only
// part of it is refused, and the module keeps its values and its
// pending-init mark.
TEST(Serialize, PartialCheckpointThrowsAndLeavesTheModuleUntouched) {
  ut::Rng rng(11);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_ckpt_partial.bin")
          .string();
  Sequential conv_only;
  conv_only.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng));
  save_state(conv_only, path);

  Sequential conv_bn;
  conv_bn.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng));
  conv_bn.add(std::make_shared<BatchNorm2d>(4));
  const Tensor weight = conv_bn.named_parameters()[0].var.value();
  const Tensor before = weight.clone();
  EXPECT_THROW(load_state(conv_bn, path), std::runtime_error);
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    EXPECT_EQ(weight[i], before[i]) << "weight " << i;
  }

  Sequential deferred;
  deferred.add(std::make_shared<Conv2d>(3, 4, 3, 1, 1, true, rng,
                                        InitMode::deferred));
  deferred.add(std::make_shared<BatchNorm2d>(4));
  EXPECT_THROW(load_state(deferred, path), std::runtime_error);
  EXPECT_TRUE(deferred.subtree_pending_init());
  std::filesystem::remove(path);
}

// A name length no file can hold is refused as a malformed checkpoint
// before it sizes an allocation.
TEST(Serialize, OversizedNameLengthThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fitact_ckpt_name_len.bin")
          .string();
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint32_t header[2] = {0xF17AC701u, 1u};  // magic, version
    const std::uint64_t fields[2] = {
        1u, std::numeric_limits<std::uint64_t>::max()};  // count, name length
    os.write(reinterpret_cast<const char*>(header), sizeof(header));
    os.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  }
  ut::Rng rng(12);
  Linear lin(2, 2, true, rng);
  EXPECT_THROW(load_state(lin, path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fitact::nn
