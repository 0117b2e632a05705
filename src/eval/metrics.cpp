#include "eval/metrics.h"

#include <algorithm>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace fitact::ev {
namespace {

std::int64_t subset_size(const data::Dataset& dataset,
                         const EvalConfig& config) {
  return config.max_samples > 0 ? std::min(config.max_samples, dataset.size())
                                : dataset.size();
}

}  // namespace

EvalBatch materialize_eval_batch(const data::Dataset& dataset,
                                 const EvalConfig& config) {
  EvalBatch batch;
  batch.images = dataset.batch(0, subset_size(dataset, config), &batch.labels);
  return batch;
}

double evaluate_accuracy(nn::Module& model, const data::Dataset& dataset,
                         const EvalConfig& config) {
  const NoGradGuard no_grad;
  model.set_training(false);
  const std::int64_t total = subset_size(dataset, config);
  std::vector<std::int64_t> labels;
  std::int64_t correct = 0;
  for (std::int64_t done = 0; done < total;) {
    const std::int64_t count = std::min(config.batch_size, total - done);
    Tensor images = dataset.batch(done, count, &labels);
    const Variable out = model.forward(Variable(std::move(images)));
    correct += count_correct(out.value(), labels.data());
    done += count;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
}

std::int64_t count_correct(const Tensor& logits, const std::int64_t* labels) {
  std::int64_t correct = 0;
  const auto pred = argmax_rows(logits);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return correct;
}

}  // namespace fitact::ev
