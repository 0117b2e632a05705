// Top-1 accuracy evaluation (the paper's metric throughout).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace fitact::ev {

struct EvalConfig {
  std::int64_t batch_size = 64;
  /// Cap on evaluated samples (<=0: the whole dataset). Fault campaigns use
  /// a fixed subset so every trial sees identical inputs.
  std::int64_t max_samples = 0;
};

/// An evaluation subset materialised once: images [N, 3, 32, 32] and their
/// labels. Fault campaigns evaluate the same subset on every trial, so they
/// build it once and share it read-only across lanes (eval/clean_prefix.h)
/// instead of regenerating it from the dataset per trial.
struct EvalBatch {
  Tensor images;
  std::vector<std::int64_t> labels;
};

/// The samples evaluate_accuracy(model, dataset, config) evaluates: the
/// first config.max_samples of the dataset (all of it when <= 0).
[[nodiscard]] EvalBatch materialize_eval_batch(const data::Dataset& dataset,
                                               const EvalConfig& config);

/// Top-1 accuracy in [0,1]. Puts the model in eval mode; no gradients.
[[nodiscard]] double evaluate_accuracy(nn::Module& model,
                                       const data::Dataset& dataset,
                                       const EvalConfig& config = {});

/// Rows of `logits` [N, classes] whose argmax equals labels[row]: the count
/// behind evaluate_accuracy and the campaign evaluation (eval/clean_prefix.h).
[[nodiscard]] std::int64_t count_correct(const Tensor& logits,
                                         const std::int64_t* labels);

}  // namespace fitact::ev
