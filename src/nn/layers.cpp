#include "nn/layers.h"

#include "autograd/ops.h"
#include "nn/init.h"
#include "nn/plan.h"

namespace fitact::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool bias, ut::Rng& rng, InitMode init)
    : out_c_(out_channels), stride_(stride), padding_(padding) {
  Tensor w(Shape{out_channels, in_channels, kernel, kernel});
  if (init == InitMode::random) {
    kaiming_normal(w, in_channels * kernel * kernel, rng);
  } else {
    mark_pending_init();
  }
  weight_ = register_parameter("weight", Variable(std::move(w), true));
  if (bias) {
    bias_ = register_parameter("bias",
                               Variable(Tensor::zeros(Shape{out_channels}),
                                        true));
  }
}

Variable Conv2d::forward(const Variable& x) {
  assert_initialized();
  return ag::conv2d(x, weight_, bias_, stride_, padding_);
}

PlanValueId Conv2d::record(PlanBuilder& builder, PlanValueId input) {
  assert_initialized();
  return builder.conv2d(weight_.value(),
                        bias_.defined() ? bias_.value() : Tensor(), stride_,
                        padding_, input);
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               ut::Rng& rng, InitMode init) {
  Tensor w(Shape{out_features, in_features});
  if (init == InitMode::random) {
    kaiming_uniform(w, in_features, rng);
  } else {
    mark_pending_init();
  }
  weight_ = register_parameter("weight", Variable(std::move(w), true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Variable(Tensor::zeros(Shape{out_features}), true));
  }
}

Variable Linear::forward(const Variable& x) {
  assert_initialized();
  return ag::linear(x, weight_, bias_);
}

PlanValueId Linear::record(PlanBuilder& builder, PlanValueId input) {
  assert_initialized();
  return builder.linear(weight_.value(),
                        bias_.defined() ? bias_.value() : Tensor(), input);
}

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : momentum_(momentum), eps_(eps) {
  gamma_ = register_parameter("weight",
                              Variable(Tensor::ones(Shape{channels}), true));
  beta_ = register_parameter("bias",
                             Variable(Tensor::zeros(Shape{channels}), true));
  running_mean_ = register_buffer("running_mean", Tensor::zeros(Shape{channels}));
  running_var_ = register_buffer("running_var", Tensor::ones(Shape{channels}));
}

Variable BatchNorm2d::forward(const Variable& x) {
  return ag::batch_norm2d(x, gamma_, beta_, running_mean_, running_var_,
                          is_training(), momentum_, eps_);
}

PlanValueId BatchNorm2d::record(PlanBuilder& builder, PlanValueId input) {
  if (is_training()) {
    builder.fail(
        "BatchNorm2d is in training mode; plans record the eval-mode affine "
        "map only — call set_training(false) before compiling a plan");
  }
  return builder.batch_norm2d(gamma_.value(), beta_.value(), running_mean_,
                              running_var_, eps_, input);
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {}

Variable MaxPool2d::forward(const Variable& x) {
  return ag::max_pool2d(x, kernel_, stride_);
}

PlanValueId MaxPool2d::record(PlanBuilder& builder, PlanValueId input) {
  return builder.max_pool2d(kernel_, stride_, input);
}

Variable GlobalAvgPool::forward(const Variable& x) {
  return ag::global_avg_pool(x);
}

PlanValueId GlobalAvgPool::record(PlanBuilder& builder, PlanValueId input) {
  return builder.global_avg_pool(input);
}

Variable Flatten::forward(const Variable& x) { return ag::flatten(x); }

PlanValueId Flatten::record(PlanBuilder& builder, PlanValueId input) {
  return builder.flatten(input);
}

Variable Sequential::forward(const Variable& x) {
  Variable h = x;
  for (auto& m : modules_) h = m->forward(h);
  return h;
}

PlanValueId Sequential::record(PlanBuilder& builder, PlanValueId input) {
  PlanValueId h = input;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    h = builder.record_child(std::to_string(i), *modules_[i], h);
  }
  return h;
}

}  // namespace fitact::nn
