// Tests for the stage-1 trainer's step schedule: gradient clipping and the
// per-epoch learning-rate decay.
#include <gtest/gtest.h>

#include "data/synthetic_cifar.h"
#include "eval/trainer.h"
#include "models/registry.h"
#include "nn/grad_util.h"

namespace fitact {
namespace {

TEST(GradUtil, NormOfKnownGradients) {
  Variable a(Tensor::from_values({3.0f}), true);
  Variable b(Tensor::from_values({4.0f}), true);
  a.ensure_grad();
  b.ensure_grad();
  a.grad()[0] = 3.0f;
  b.grad()[0] = 4.0f;
  std::vector<Variable> params{a, b};
  EXPECT_DOUBLE_EQ(nn::grad_norm(params), 5.0);
}

TEST(GradUtil, ClipScalesDownToMaxNorm) {
  Variable a(Tensor::from_values({0.0f}), true);
  a.ensure_grad();
  a.grad()[0] = 10.0f;
  std::vector<Variable> params{a};
  const double pre = nn::clip_grad_norm(params, 2.0);
  EXPECT_DOUBLE_EQ(pre, 10.0);
  EXPECT_NEAR(a.grad()[0], 2.0f, 1e-5f);
}

TEST(GradUtil, NoClipBelowThreshold) {
  Variable a(Tensor::from_values({0.0f}), true);
  a.ensure_grad();
  a.grad()[0] = 1.0f;
  std::vector<Variable> params{a};
  nn::clip_grad_norm(params, 5.0);
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
}

TEST(GradUtil, SkipsParamsWithoutGrad) {
  Variable a(Tensor::from_values({1.0f}), true);  // no grad allocated
  std::vector<Variable> params{a};
  EXPECT_DOUBLE_EQ(nn::grad_norm(params), 0.0);
  EXPECT_NO_THROW(nn::clip_grad_norm(params, 1.0));
}

TEST(TrainerExtras, ScheduleAndClippingTrainTheModel) {
  models::ModelConfig mc;
  mc.width_mult = 0.5f;
  mc.num_classes = 4;
  auto model = models::make_model("tinycnn", mc);
  data::SyntheticCifarConfig dc;
  dc.num_classes = 4;
  dc.size = 128;
  const data::SyntheticCifar train(dc);
  ev::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.lr = 0.05f;
  tc.lr_decay = 0.5f;
  tc.clip_norm = 5.0;
  const ev::TrainReport report = ev::train_classifier(*model, train, tc);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
}

}  // namespace
}  // namespace fitact
