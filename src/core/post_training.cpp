#include "core/post_training.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "autograd/ops.h"
#include "data/data_loader.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/timer.h"

namespace fitact::core {
namespace {

double clean_accuracy(nn::Module& model, const data::Dataset& ds,
                      std::int64_t max_samples, std::int64_t batch_size) {
  const NoGradGuard no_grad;
  model.set_training(false);
  const std::int64_t total =
      max_samples > 0 ? std::min(max_samples, ds.size()) : ds.size();
  std::int64_t correct = 0;
  std::int64_t done = 0;
  std::vector<std::int64_t> labels;
  while (done < total) {
    const std::int64_t count = std::min<std::int64_t>(batch_size, total - done);
    Tensor images = ds.batch(done, count, &labels);
    const Variable out = model.forward(Variable(std::move(images)));
    const auto pred = argmax_rows(out.value());
    for (std::int64_t i = 0; i < count; ++i) {
      if (pred[static_cast<std::size_t>(i)] == labels[static_cast<std::size_t>(i)]) {
        ++correct;
      }
    }
    done += count;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
}

/// Turns requires_grad off, for its lifetime, on every model parameter
/// that is not one of `keep` and restores those flags on exit, including
/// when post-training throws. Frozen weights then cost no gradient work in
/// the backward pass (the conv backward skips dW and db) and no gradient
/// storage that would outlive the run.
class FreezeAllBut {
 public:
  FreezeAllBut(const nn::Module& model, const std::vector<Variable>& keep) {
    for (const auto& p : model.named_parameters()) {
      const bool kept =
          std::any_of(keep.begin(), keep.end(),
                      [&p](const Variable& k) { return k.is_same(p.var); });
      if (kept || !p.var.requires_grad()) continue;
      frozen_.push_back(p.var);
      frozen_.back().set_requires_grad(false);
    }
  }
  ~FreezeAllBut() {
    for (auto& v : frozen_) v.set_requires_grad(true);
  }
  FreezeAllBut(const FreezeAllBut&) = delete;
  FreezeAllBut& operator=(const FreezeAllBut&) = delete;

 private:
  std::vector<Variable> frozen_;
};

double bound_energy(const std::vector<Variable>& lambdas) {
  double acc = 0.0;
  for (const auto& l : lambdas) {
    for (const auto v : l.value().span()) acc += static_cast<double>(v) * v;
  }
  return acc;
}

}  // namespace

PostTrainReport post_train_bounds(nn::Module& model,
                                  const data::Dataset& train,
                                  const data::Dataset& val,
                                  double baseline_accuracy,
                                  const PostTrainConfig& config) {
  const ut::Timer timer;
  PostTrainReport report;
  report.baseline_accuracy = baseline_accuracy;

  // Gather the trainable bounds (Theta_R).
  std::vector<Variable> lambdas;
  std::int64_t bound_n = 0;
  for (const auto& act : collect_activations(model)) {
    if (act->scheme() != Scheme::fitrelu) continue;
    if (!act->has_bounds()) {
      throw std::logic_error(
          "post_train_bounds: fitrelu site without initialised bounds");
    }
    act->bounds().set_requires_grad(true);
    lambdas.push_back(act->bounds());
    bound_n += act->bounds().numel();
  }
  if (lambdas.empty()) {
    throw std::logic_error(
        "post_train_bounds: model has no fitrelu activation sites");
  }

  // Snapshots for the constraint-driven rollback.
  auto snapshot = [&lambdas] {
    std::vector<Tensor> s;
    s.reserve(lambdas.size());
    for (const auto& l : lambdas) s.push_back(l.value().clone());
    return s;
  };
  auto restore = [&lambdas](const std::vector<Tensor>& s) {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      lambdas[i].value().copy_from(s[i]);
    }
  };
  const std::vector<Tensor> initial = snapshot();
  std::vector<Tensor> best = snapshot();
  double best_energy = std::numeric_limits<double>::infinity();

  report.initial_accuracy =
      clean_accuracy(model, val, config.val_samples, config.batch_size);
  report.initial_bound_energy = bound_energy(lambdas);

  // Theta_A stays frozen: only lambdas enter the optimiser, no other
  // parameter records gradients, and the model runs in eval mode so
  // BatchNorm statistics are not perturbed.
  const FreezeAllBut freeze(model, lambdas);
  model.set_training(false);
  nn::Adam adam(lambdas, config.lr);
  const float reg_scale = config.zeta / static_cast<float>(bound_n);

  data::DataLoader loader(train, config.batch_size, /*shuffle=*/true,
                          config.seed);
  data::Batch batch;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.start_epoch();
    double loss_sum = 0.0;
    double ce_sum = 0.0;
    std::int64_t batches = 0;
    // The cap is checked before next(), which would otherwise build a batch
    // only to drop it.
    while ((config.max_batches_per_epoch <= 0 ||
            batches < config.max_batches_per_epoch) &&
           loader.next(batch)) {
      adam.zero_grad();
      const Variable logits = model.forward(Variable(batch.images));
      const Variable ce = ag::softmax_cross_entropy(logits, batch.labels);
      Variable reg = ag::sum_of_squares(lambdas[0]);
      for (std::size_t i = 1; i < lambdas.size(); ++i) {
        reg = ag::add(reg, ag::sum_of_squares(lambdas[i]));
      }
      Variable loss = ag::add(ce, ag::scale(reg, reg_scale));
      loss.backward();
      adam.step();
      // Projection: bounds are magnitudes; keep them non-negative.
      for (auto& l : lambdas) clamp_min_inplace(l.value(), 0.0f);
      loss_sum += loss.value().item();
      ce_sum += ce.value().item();
      ++batches;
    }

    PostTrainEpoch ep;
    ep.loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    ep.ce_loss = batches > 0 ? ce_sum / static_cast<double>(batches) : 0.0;
    ep.bound_energy = bound_energy(lambdas);
    ep.val_accuracy =
        clean_accuracy(model, val, config.val_samples, config.batch_size);
    ep.feasible =
        (baseline_accuracy - ep.val_accuracy) < static_cast<double>(config.delta);
    if (ep.feasible && ep.bound_energy < best_energy) {
      best_energy = ep.bound_energy;
      best = snapshot();
      report.any_feasible = true;
    }
    report.epochs.push_back(ep);
  }

  if (report.any_feasible) {
    restore(best);
  } else {
    restore(initial);
  }
  for (auto& l : lambdas) {
    l.zero_grad();
    l.set_requires_grad(false);
  }
  report.final_accuracy =
      clean_accuracy(model, val, config.val_samples, config.batch_size);
  report.final_bound_energy = bound_energy(lambdas);
  report.wall_time_s = timer.elapsed_s();
  return report;
}

}  // namespace fitact::core
