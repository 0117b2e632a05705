#include "eval/trainer.h"

#include "autograd/ops.h"
#include "data/data_loader.h"
#include "nn/grad_util.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/log.h"
#include "util/timer.h"

namespace fitact::ev {

TrainReport train_classifier(nn::Module& model, const data::Dataset& train,
                             const TrainConfig& config) {
  const ut::Timer timer;
  TrainReport report;
  model.set_training(true);
  std::vector<Variable> params = model.parameters();
  nn::Sgd sgd(params, config.lr, config.momentum, config.weight_decay);
  data::DataLoader loader(train, config.batch_size, /*shuffle=*/true,
                          config.seed);
  data::Batch batch;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.start_epoch();
    double loss_sum = 0.0;
    std::int64_t correct = 0;
    std::int64_t seen = 0;
    std::int64_t batches = 0;
    while (loader.next(batch)) {
      model.zero_grad();
      const Variable logits = model.forward(Variable(batch.images));
      Variable loss = ag::softmax_cross_entropy(logits, batch.labels);
      loss.backward();
      if (config.clip_norm > 0.0) {
        nn::clip_grad_norm(params, config.clip_norm);
      }
      sgd.step();
      loss_sum += loss.value().item();
      const auto pred = argmax_rows(logits.value());
      for (std::size_t i = 0; i < batch.labels.size(); ++i) {
        if (pred[i] == batch.labels[i]) ++correct;
      }
      seen += static_cast<std::int64_t>(batch.labels.size());
      ++batches;
    }
    const double mean_loss =
        batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    const double acc =
        seen > 0 ? static_cast<double>(correct) / static_cast<double>(seen)
                 : 0.0;
    report.epoch_loss.push_back(mean_loss);
    report.epoch_accuracy.push_back(acc);
    ut::log_info() << "train epoch " << (epoch + 1) << "/" << config.epochs
                   << " loss=" << mean_loss << " acc=" << acc;
    sgd.set_lr(sgd.lr() * config.lr_decay);
  }
  report.wall_time_s = timer.elapsed_s();
  return report;
}

}  // namespace fitact::ev
