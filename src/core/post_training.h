// FitAct stage 2: resilience post-training (paper Section V).
//
// With the model's weights Theta_A frozen, the per-neuron bounds Theta_R are
// minimised with ADAM under the loss
//
//     L(D; Theta_A, Theta_R) = L(D; Theta_A) + (zeta / N) * sum_i lambda_i^2
//                                                              (paper Eq. 10)
//
// subject to the clean-accuracy constraint
//
//     A(Theta_A) - A(Theta_A, Theta_R) < delta                 (paper Eq. 9)
//
// The trainer keeps the best feasible snapshot (lowest bound energy with the
// accuracy drop under delta) and restores it at the end; if no epoch
// produces a feasible snapshot the initial (profiled) bounds are restored.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation.h"
#include "data/dataset.h"

namespace fitact::core {

struct PostTrainConfig {
  std::int64_t epochs = 8;
  std::int64_t batch_size = 32;
  /// Cap on mini-batches per epoch (<=0: full epoch). Keeps the stage
  /// "lightweight" relative to conventional training, as in the paper.
  std::int64_t max_batches_per_epoch = 0;
  float lr = 0.05f;
  float zeta = 1.0f;    ///< bound-regulariser weight (paper Eq. 10)
  float delta = 0.02f;  ///< allowed clean-accuracy drop, fraction (Eq. 9)
  std::uint64_t seed = 7;
  /// Samples used for the per-epoch clean-accuracy constraint check.
  std::int64_t val_samples = 512;
};

struct PostTrainEpoch {
  double loss = 0.0;         ///< mean total loss over the epoch
  double ce_loss = 0.0;      ///< mean cross-entropy component
  double bound_energy = 0.0; ///< sum of lambda^2 after the epoch
  double val_accuracy = 0.0; ///< clean accuracy after the epoch
  bool feasible = false;     ///< accuracy drop < delta
};

struct PostTrainReport {
  double baseline_accuracy = 0.0;  ///< A(Theta_A): clean accuracy pre-switch
  double initial_accuracy = 0.0;   ///< accuracy right after bound seeding
  double final_accuracy = 0.0;     ///< accuracy with the restored snapshot
  double initial_bound_energy = 0.0;
  double final_bound_energy = 0.0;
  bool any_feasible = false;
  double wall_time_s = 0.0;
  std::vector<PostTrainEpoch> epochs;
};

/// Run resilience post-training over the fitrelu bounds of `model`.
/// `baseline_accuracy` is A(Theta_A), the clean accuracy of the model before
/// protection (the constraint reference in Eq. 9). The model must already be
/// protected with Scheme::fitrelu (see core/protection.h). Only the bounds
/// record gradients: every other parameter has requires_grad turned off for
/// the run, and its flag restored on return or throw.
PostTrainReport post_train_bounds(nn::Module& model,
                                  const data::Dataset& train,
                                  const data::Dataset& val,
                                  double baseline_accuracy,
                                  const PostTrainConfig& config = {});

}  // namespace fitact::core
