// Conventional (stage 1) training: learns the weights Theta_A for accuracy,
// with no resilience consideration — exactly the left half of the FitAct
// workflow (paper Fig. 4).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"

namespace fitact::ev {

struct TrainConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  /// Multiply lr by this factor at each epoch boundary (simple decay).
  float lr_decay = 0.85f;
  /// Global-norm gradient clipping; <= 0 disables.
  double clip_norm = 0.0;
  std::uint64_t seed = 3;
};

struct TrainReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;  ///< train-batch accuracy
  double wall_time_s = 0.0;
};

/// SGD-with-momentum training of all model parameters.
TrainReport train_classifier(nn::Module& model, const data::Dataset& train,
                             const TrainConfig& config = {});

}  // namespace fitact::ev
