// Tests for the FitAct post-training stage (paper Section V): weights stay
// frozen, bounds shrink under the regulariser, the accuracy constraint
// triggers rollback, and the optimisation improves fault resilience on a
// small end-to-end case.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/bound_profiler.h"
#include "core/post_training.h"
#include "core/protection.h"
#include "data/synthetic_cifar.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/registry.h"

namespace fitact::core {
namespace {

struct Fixture {
  std::shared_ptr<nn::Module> model;
  data::SyntheticCifar train;
  data::SyntheticCifar test;
  double baseline = 0.0;

  static Fixture make() {
    models::ModelConfig mc;
    mc.width_mult = 0.5f;
    mc.num_classes = 4;
    data::SyntheticCifarConfig train_cfg;
    train_cfg.num_classes = 4;
    train_cfg.size = 256;
    train_cfg.split_salt = 1;
    data::SyntheticCifarConfig test_cfg = train_cfg;
    test_cfg.size = 128;
    test_cfg.split_salt = 2;
    Fixture f{models::make_model("tinycnn", mc),
              data::SyntheticCifar(train_cfg),
              data::SyntheticCifar(test_cfg), 0.0};
    ev::TrainConfig tc;
    tc.epochs = 6;
    tc.batch_size = 32;
    ev::train_classifier(*f.model, f.train, tc);
    f.baseline = ev::evaluate_accuracy(*f.model, f.test);
    ProfileConfig pc;
    pc.max_samples = 256;
    profile_bounds(*f.model, f.train, pc);
    return f;
  }
};

// Training the fixture once and reusing it keeps this suite fast.
Fixture& fixture() {
  static Fixture f = Fixture::make();
  return f;
}

PostTrainConfig quick_config() {
  PostTrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.max_batches_per_epoch = 8;
  cfg.lr = 0.05f;
  cfg.zeta = 1.0f;
  cfg.delta = 0.10f;
  cfg.val_samples = 128;
  return cfg;
}

TEST(PostTraining, RequiresFitReluSites) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::relu);
  EXPECT_THROW(
      post_train_bounds(*f.model, f.train, f.test, f.baseline, quick_config()),
      std::logic_error);
}

TEST(PostTraining, BaselineAccuracyIsLearned) {
  // The fixture itself must be a learnable task, otherwise the remaining
  // assertions are vacuous.
  EXPECT_GT(fixture().baseline, 0.7);
}

TEST(PostTraining, WeightsFrozenBoundsMove) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  // Snapshot weights and bounds.
  std::vector<Tensor> weights_before;
  std::vector<Tensor> bounds_before;
  for (const auto& p : f.model->named_parameters()) {
    if (p.name.find("lambda") != std::string::npos) {
      bounds_before.push_back(p.var.value().clone());
    } else {
      weights_before.push_back(p.var.value().clone());
    }
  }
  const PostTrainReport report =
      post_train_bounds(*f.model, f.train, f.test, f.baseline, quick_config());
  EXPECT_EQ(report.epochs.size(), 3u);

  std::size_t wi = 0;
  std::size_t bi = 0;
  bool bounds_changed = false;
  for (const auto& p : f.model->named_parameters()) {
    if (p.name.find("lambda") != std::string::npos) {
      const Tensor& before = bounds_before[bi++];
      for (std::int64_t j = 0; j < p.var.numel(); ++j) {
        if (p.var.value()[j] != before[j]) bounds_changed = true;
      }
    } else {
      const Tensor& before = weights_before[wi++];
      for (std::int64_t j = 0; j < p.var.numel(); ++j) {
        ASSERT_EQ(p.var.value()[j], before[j])
            << "weight " << p.name << " changed during post-training";
      }
    }
  }
  EXPECT_TRUE(bounds_changed);
}

TEST(PostTraining, RegulariserShrinksBoundEnergy) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  const PostTrainReport report =
      post_train_bounds(*f.model, f.train, f.test, f.baseline, quick_config());
  EXPECT_LT(report.final_bound_energy, report.initial_bound_energy);
}

TEST(PostTraining, KeepsAccuracyWithinDelta) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  PostTrainConfig cfg = quick_config();
  cfg.delta = 0.08f;
  const PostTrainReport report =
      post_train_bounds(*f.model, f.train, f.test, f.baseline, cfg);
  if (report.any_feasible) {
    EXPECT_LT(f.baseline - report.final_accuracy, cfg.delta + 0.05);
  } else {
    // Rollback to initial bounds restores near-initial accuracy.
    EXPECT_NEAR(report.final_accuracy, report.initial_accuracy, 0.05);
  }
}

TEST(PostTraining, InfeasibleDeltaRollsBackToInitialBounds) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  std::vector<Tensor> bounds_before;
  for (const auto& act : collect_activations(*f.model)) {
    bounds_before.push_back(act->bounds().value().clone());
  }
  PostTrainConfig cfg = quick_config();
  cfg.delta = -1.0f;  // impossible constraint: nothing is ever feasible
  const PostTrainReport report =
      post_train_bounds(*f.model, f.train, f.test, f.baseline, cfg);
  EXPECT_FALSE(report.any_feasible);
  std::size_t i = 0;
  for (const auto& act : collect_activations(*f.model)) {
    const Tensor& before = bounds_before[i++];
    for (std::int64_t j = 0; j < act->bounds().numel(); ++j) {
      EXPECT_EQ(act->bounds().value()[j], before[j]);
    }
  }
}

TEST(PostTraining, BoundsStayNonNegative) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  PostTrainConfig cfg = quick_config();
  cfg.zeta = 50.0f;  // aggressive shrinking
  post_train_bounds(*f.model, f.train, f.test, f.baseline, cfg);
  for (const auto& act : collect_activations(*f.model)) {
    for (const float b : act->bounds().value().span()) {
      EXPECT_GE(b, 0.0f);
    }
  }
}

TEST(PostTraining, LambdaNotTrainableAfterwards) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  post_train_bounds(*f.model, f.train, f.test, f.baseline, quick_config());
  for (const auto& act : collect_activations(*f.model)) {
    EXPECT_FALSE(act->bounds().requires_grad());
  }
}

/// A freshly built, profiled and fitrelu-protected copy of the fixture's
/// architecture: none of its parameters has a gradient yet.
std::shared_ptr<nn::Module> untrained_fitrelu_model() {
  models::ModelConfig mc;
  mc.width_mult = 0.5f;
  mc.num_classes = 4;
  auto model = models::make_model("tinycnn", mc);
  ProfileConfig pc;
  pc.max_samples = 64;
  profile_bounds(*model, fixture().train, pc);
  apply_protection(*model, Scheme::fitrelu);
  return model;
}

bool is_bound(const nn::NamedParam& p) {
  return p.name.find("lambda") != std::string::npos;
}

TEST(PostTraining, FrozenWeightsGetNoGradientsAndKeepTheirFlags) {
  Fixture& f = fixture();
  const auto model = untrained_fitrelu_model();
  // One weight is already frozen by the caller: it must stay frozen.
  const std::string caller_frozen = model->named_parameters().front().name;
  model->named_parameters().front().var.set_requires_grad(false);

  (void)post_train_bounds(*model, f.train, f.test, f.baseline,
                          quick_config());
  for (const auto& p : model->named_parameters()) {
    if (is_bound(p)) continue;
    EXPECT_FALSE(p.var.has_grad()) << p.name << " computed a gradient";
    EXPECT_EQ(p.var.requires_grad(), p.name != caller_frozen) << p.name;
  }
}

/// Training split whose images cannot be read: post-training throws from
/// its first training batch.
class UnreadableDataset : public data::Dataset {
 public:
  explicit UnreadableDataset(const data::Dataset& inner) : inner_(inner) {}
  [[nodiscard]] std::int64_t size() const override { return inner_.size(); }
  [[nodiscard]] std::int64_t num_classes() const override {
    return inner_.num_classes();
  }
  void image_into(std::int64_t, float*) const override {
    throw std::runtime_error("unreadable image");
  }
  [[nodiscard]] std::int64_t label(std::int64_t i) const override {
    return inner_.label(i);
  }

 private:
  const data::Dataset& inner_;
};

TEST(PostTraining, WeightFlagsAreRestoredWhenItThrows) {
  Fixture& f = fixture();
  const auto model = untrained_fitrelu_model();
  const UnreadableDataset train(f.train);
  EXPECT_THROW((void)post_train_bounds(*model, train, f.test, f.baseline,
                                       quick_config()),
               std::runtime_error);
  for (const auto& p : model->named_parameters()) {
    if (!is_bound(p)) {
      EXPECT_TRUE(p.var.requires_grad()) << p.name;
    }
  }
}

/// Training split that counts the images generated through it.
class CountingDataset : public data::Dataset {
 public:
  explicit CountingDataset(const data::Dataset& inner) : inner_(inner) {}
  [[nodiscard]] std::int64_t size() const override { return inner_.size(); }
  [[nodiscard]] std::int64_t num_classes() const override {
    return inner_.num_classes();
  }
  void image_into(std::int64_t i, float* out) const override {
    images_.fetch_add(1, std::memory_order_relaxed);
    inner_.image_into(i, out);
  }
  [[nodiscard]] std::int64_t label(std::int64_t i) const override {
    return inner_.label(i);
  }
  [[nodiscard]] std::int64_t images() const { return images_.load(); }

 private:
  const data::Dataset& inner_;
  mutable std::atomic<std::int64_t> images_{0};
};

// With the batch cap below the epoch length, each epoch builds exactly its
// capped batches: none is gathered only to be dropped.
TEST(PostTraining, BuildsOnlyTheCappedBatches) {
  Fixture& f = fixture();
  const auto model = untrained_fitrelu_model();
  const CountingDataset train(f.train);
  PostTrainConfig cfg = quick_config();
  cfg.max_batches_per_epoch = 3;
  ASSERT_LT(cfg.max_batches_per_epoch * cfg.batch_size, train.size());
  (void)post_train_bounds(*model, train, f.test, f.baseline, cfg);
  EXPECT_EQ(train.images(),
            cfg.epochs * cfg.max_batches_per_epoch * cfg.batch_size);
}

TEST(PostTraining, ReportsWallTimeAndEpochTrace) {
  Fixture& f = fixture();
  apply_protection(*f.model, Scheme::fitrelu);
  const PostTrainReport report =
      post_train_bounds(*f.model, f.train, f.test, f.baseline, quick_config());
  EXPECT_GT(report.wall_time_s, 0.0);
  for (const auto& ep : report.epochs) {
    EXPECT_GT(ep.loss, 0.0);
    EXPECT_GE(ep.val_accuracy, 0.0);
  }
}

}  // namespace
}  // namespace fitact::core
