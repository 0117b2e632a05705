// Weight initialisation schemes.
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

namespace fitact::nn {

/// How a layer fills its parameters at construction time.
///
/// `random` runs the usual scheme (Kaiming draws from the builder's RNG).
/// `deferred` allocates the parameter tensors but skips the random fill
/// entirely — the layer is marked pending-init and its values are
/// garbage until `copy_state`/`load_state` overwrites them. Used for
/// campaign worker replicas, whose parameters are copied from a source
/// model immediately after construction, so paying for a full random init
/// would be pure waste. Debug builds assert that a pending-init layer is
/// never forwarded.
enum class InitMode {
  random,
  deferred,
};

/// Kaiming/He normal init for ReLU-family networks: N(0, sqrt(2/fan_in)).
void kaiming_normal(Tensor& w, std::int64_t fan_in, ut::Rng& rng);

/// Kaiming uniform: U(-b, b) with b = sqrt(6/fan_in).
void kaiming_uniform(Tensor& w, std::int64_t fan_in, ut::Rng& rng);

}  // namespace fitact::nn
