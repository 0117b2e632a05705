// Shared configuration for the model zoo (paper Section VI-A1: AlexNet,
// VGG16, ResNet50 on CIFAR-10/CIFAR-100).
#pragma once

#include <cstdint>

#include "core/activation.h"

namespace fitact::models {

struct ModelConfig {
  std::int64_t num_classes = 10;
  /// Channel-width multiplier. 1.0 reproduces the paper-scale architecture;
  /// the bench harnesses default to smaller widths so the full suite runs
  /// on a small CPU container (see ev::ExperimentScale).
  float width_mult = 1.0f;
  /// Configuration applied to every activation site.
  core::ActivationConfig activation;
  /// Weight-initialisation seed.
  std::uint64_t seed = 42;
  /// Allocate parameters without the random init (nn::InitMode::deferred).
  /// For replicas whose state is immediately overwritten by nn::copy_state —
  /// e.g. campaign worker lanes — the Kaiming draws in make_model are pure
  /// waste. A skip-init model must not be evaluated before copy_state /
  /// load_state fills it (debug builds assert).
  bool skip_init = false;
};

/// Scaled channel count: round(c * width_mult), floored at 4.
[[nodiscard]] std::int64_t scaled(std::int64_t channels, float width_mult);

}  // namespace fitact::models
