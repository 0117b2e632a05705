// Standard layers. Activation layers live in src/core (they are the paper's
// subject); everything else a CIFAR-class CNN needs is here.
#pragma once

#include <memory>
#include <vector>

#include "nn/init.h"
#include "nn/module.h"
#include "util/rng.h"

namespace fitact::nn {

class Conv2d final : public Module {
 public:
  /// InitMode::deferred allocates the weight without the Kaiming fill (for
  /// replicas whose state is copied in right after construction).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool bias, ut::Rng& rng, InitMode init = InitMode::random);

  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;

  [[nodiscard]] std::int64_t out_channels() const noexcept { return out_c_; }

 private:
  std::int64_t out_c_;
  std::int64_t stride_;
  std::int64_t padding_;
  Variable weight_;
  Variable bias_;
};

class Linear final : public Module {
 public:
  /// InitMode::deferred allocates the weight without the Kaiming fill (for
  /// replicas whose state is copied in right after construction).
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         ut::Rng& rng, InitMode init = InitMode::random);

  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;

 private:
  Variable weight_;
  Variable bias_;
};

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Variable forward(const Variable& x) override;
  /// Records the eval-mode affine map; fails while in training mode (batch
  /// statistics depend on the batch, which a plan cannot represent).
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;

 private:
  float momentum_;
  float eps_;
  Variable gamma_;
  Variable beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = -1);

  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
};

class GlobalAvgPool final : public Module {
 public:
  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;
};

class Flatten final : public Module {
 public:
  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;
};

/// Ordered container; children named by index ("0", "1", ...).
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append a module; returns it for further wiring.
  template <typename M>
  std::shared_ptr<M> add(std::shared_ptr<M> m) {
    register_module(std::to_string(size_++), m);
    modules_.push_back(m);
    return m;
  }

  Variable forward(const Variable& x) override;
  PlanValueId record(PlanBuilder& builder, PlanValueId input) override;

  [[nodiscard]] std::size_t size() const noexcept { return modules_.size(); }
  [[nodiscard]] const std::shared_ptr<Module>& at(std::size_t i) const {
    return modules_.at(i);
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::shared_ptr<Module>> modules_;
};

}  // namespace fitact::nn
