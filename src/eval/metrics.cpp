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

/// The one counting loop behind both evaluate_accuracy overloads: forwards
/// `total` samples in batch_size chunks, chunk(begin, count, &labels)
/// supplying each chunk's images and pointing `labels` at its labels.
template <class Chunk>
double top1_over_chunks(nn::Module& model, std::int64_t total,
                        std::int64_t batch_size, Chunk chunk) {
  const NoGradGuard no_grad;
  model.set_training(false);
  std::int64_t correct = 0;
  for (std::int64_t done = 0; done < total;) {
    const std::int64_t count = std::min(batch_size, total - done);
    const std::int64_t* labels = nullptr;
    Tensor images = chunk(done, count, &labels);
    const Variable out = model.forward(Variable(std::move(images)));
    const auto pred = argmax_rows(out.value());
    for (std::int64_t i = 0; i < count; ++i) {
      if (pred[static_cast<std::size_t>(i)] == labels[i]) ++correct;
    }
    done += count;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
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
  std::vector<std::int64_t> labels;
  return top1_over_chunks(
      model, subset_size(dataset, config), config.batch_size,
      [&](std::int64_t begin, std::int64_t count,
          const std::int64_t** chunk_labels) {
        Tensor images = dataset.batch(begin, count, &labels);
        *chunk_labels = labels.data();
        return images;
      });
}

double evaluate_accuracy(nn::Module& model, const EvalBatch& batch,
                         const EvalConfig& config) {
  return top1_over_chunks(
      model, static_cast<std::int64_t>(batch.labels.size()), config.batch_size,
      [&](std::int64_t begin, std::int64_t count,
          const std::int64_t** chunk_labels) {
        const Shape& s = batch.images.shape();
        *chunk_labels = batch.labels.data() + begin;
        // A non-owning view of the chunk's rows; the forward only reads it.
        return Tensor::view(Shape{count, s[1], s[2], s[3]},
                            const_cast<float*>(batch.images.data()) +
                                begin * s[1] * s[2] * s[3]);
      });
}

}  // namespace fitact::ev
