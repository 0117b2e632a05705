// Tests for src/eval: metrics, summary statistics, the stage-1 trainer, and
// the experiment driver (cache round-trip, scheme labels, rate grid).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/activation.h"
#include "data/synthetic_cifar.h"
#include "eval/clean_prefix.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/stats.h"
#include "eval/trainer.h"
#include "models/registry.h"
#include "quant/param_image.h"

namespace fitact::ev {
namespace {

TEST(Stats, FiveNumberSummaryKnownValues) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, InterpolatedQuartiles) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
}

TEST(Stats, UnsortedInputHandled) {
  const Summary s = summarize({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({2.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, StddevMatchesHandComputation) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);  // sample stddev
}

TEST(Metrics, PerfectAndChanceAccuracy) {
  // A model that always predicts class 0.
  struct ConstantModel final : nn::Module {
    Variable forward(const Variable& x) override {
      const std::int64_t batch = x.shape()[0];
      Tensor logits = Tensor::zeros(Shape{batch, 4});
      for (std::int64_t b = 0; b < batch; ++b) logits[b * 4] = 1.0f;
      return Variable(std::move(logits), false);
    }
  };
  data::SyntheticCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.size = 64;
  const data::SyntheticCifar ds(cfg);
  ConstantModel m;
  // Round-robin labels: exactly 1/4 of samples are class 0.
  EXPECT_NEAR(evaluate_accuracy(m, ds), 0.25, 1e-9);
}

TEST(Metrics, MaxSamplesCapsEvaluation) {
  struct CountingModel final : nn::Module {
    std::int64_t seen = 0;
    Variable forward(const Variable& x) override {
      seen += x.shape()[0];
      return Variable(Tensor::zeros(Shape{x.shape()[0], 4}), false);
    }
  };
  data::SyntheticCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.size = 64;
  const data::SyntheticCifar ds(cfg);
  CountingModel m;
  EvalConfig ec;
  ec.max_samples = 20;
  ec.batch_size = 8;
  (void)evaluate_accuracy(m, ds, ec);
  EXPECT_EQ(m.seen, 20);
}

TEST(Metrics, CleanPrefixMatchesDatasetOverloadChunkForChunk) {
  // Predicts a class from each image and records every chunk's pixel sum,
  // so the campaign evaluation over a materialised subset and the dataset
  // overload are compared on chunking and chunk contents. The model is not
  // a Sequential, so every CleanPrefix forward runs all of it.
  struct PixelSumModel final : nn::Module {
    std::vector<double> chunk_sums;
    Variable forward(const Variable& x) override {
      const std::int64_t batch = x.shape()[0];
      const std::int64_t per = x.numel() / batch;
      Tensor logits = Tensor::zeros(Shape{batch, 4});
      double sum = 0.0;
      for (std::int64_t b = 0; b < batch; ++b) {
        double image = 0.0;
        for (std::int64_t i = 0; i < per; ++i) {
          image += x.value()[b * per + i];
        }
        const auto label = static_cast<std::int64_t>(std::fabs(image)) % 4;
        logits[b * 4 + label] = 1.0f;
        sum += image;
      }
      chunk_sums.push_back(sum);
      return Variable(std::move(logits), false);
    }
  };
  data::SyntheticCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.size = 64;
  const data::SyntheticCifar ds(cfg);
  EvalConfig ec;
  ec.max_samples = 30;
  ec.batch_size = 7;  // chunks of 7, 7, 7, 7, 2
  PixelSumModel from_dataset;
  PixelSumModel from_prefix;
  const double want = evaluate_accuracy(from_dataset, ds, ec);
  const auto subset =
      std::make_shared<const EvalBatch>(materialize_eval_batch(ds, ec));
  ASSERT_EQ(subset->labels.size(), 30u);
  const quant::ParamImage image(from_prefix);  // no parameters: empty
  const CleanPrefix prefix(from_prefix, image, subset, ec);
  EXPECT_TRUE(prefix.cut_children().empty());
  EXPECT_EQ(prefix.clean_top1(), want);
  EXPECT_EQ(from_prefix.chunk_sums.size(), 5u);
  EXPECT_EQ(from_prefix.chunk_sums, from_dataset.chunk_sums);
  // A trial that changed words forwards the whole model in the same chunks.
  from_prefix.chunk_sums.clear();
  EXPECT_EQ(prefix.top1(from_prefix, 0), want);
  EXPECT_EQ(from_prefix.chunk_sums, from_dataset.chunk_sums);
}

TEST(Trainer, LossDecreasesOnLearnableTask) {
  models::ModelConfig mc;
  mc.width_mult = 0.5f;
  mc.num_classes = 4;
  auto model = models::make_model("tinycnn", mc);
  data::SyntheticCifarConfig dc;
  dc.num_classes = 4;
  dc.size = 128;
  const data::SyntheticCifar train(dc);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  const TrainReport report = train_classifier(*model, train, tc);
  ASSERT_EQ(report.epoch_loss.size(), 4u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  EXPECT_GT(report.epoch_accuracy.back(), report.epoch_accuracy.front());
}

TEST(Experiment, PaperRateGrid) {
  const auto rates = paper_fault_rates();
  ASSERT_EQ(rates.size(), 5u);
  EXPECT_DOUBLE_EQ(rates.front(), 1e-7);
  EXPECT_DOUBLE_EQ(rates.back(), 3e-5);
}

TEST(Experiment, PaperLabels) {
  EXPECT_EQ(paper_label(core::Scheme::fitrelu), "FitAct");
  EXPECT_EQ(paper_label(core::Scheme::clip_act), "Clip-Act");
  EXPECT_EQ(paper_label(core::Scheme::ranger), "Ranger");
  EXPECT_EQ(paper_label(core::Scheme::relu), "Unprotected");
}

TEST(Experiment, ScalePresets) {
  const ExperimentScale s = ExperimentScale::scaled();
  const ExperimentScale f = ExperimentScale::full();
  EXPECT_LT(s.width_for("vgg16"), f.width_for("vgg16"));
  EXPECT_LT(s.train_size, f.train_size);
  EXPECT_EQ(f.width_for("resnet50"), 1.0f);
}

TEST(Experiment, PrepareModelTrainsThenCaches) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "fitact_cache_test").string();
  std::filesystem::remove_all(cache);
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, cache, 11);
  EXPECT_FALSE(pm.from_cache);
  EXPECT_GT(pm.train_time_s, 0.0);

  PreparedModel pm2 = prepare_model("tinycnn", 10, scale, cache, 11);
  EXPECT_TRUE(pm2.from_cache);
  EXPECT_NEAR(pm.baseline_accuracy, pm2.baseline_accuracy, 1e-9);
  std::filesystem::remove_all(cache);
}

TEST(Experiment, ProtectAndCampaignSmoke) {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  scale.trials = 2;
  scale.post.epochs = 1;
  scale.post.max_batches_per_epoch = 3;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 13);

  const ProtectReport clip = protect_model(pm, core::Scheme::clip_act, scale);
  EXPECT_GE(clip.clean_accuracy, 0.0);
  const auto result = campaign_at_rate(pm, 1e-6, scale, 21);
  EXPECT_EQ(result.accuracies.size(), 2u);

  const ProtectReport fit = protect_model(pm, core::Scheme::fitrelu, scale);
  EXPECT_TRUE(fit.post_trained);
}

TEST(Experiment, ReplicaEvaluatesIdentically) {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  scale.post.epochs = 1;
  scale.post.max_batches_per_epoch = 3;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 17);
  (void)protect_model(pm, core::Scheme::fitrelu, scale);

  const auto replica = replicate_model(pm);
  EvalConfig ec;
  ec.max_samples = scale.eval_samples;
  const double orig = evaluate_accuracy(*pm.model, *pm.test, ec);
  const double copy = evaluate_accuracy(*replica, *pm.test, ec);
  EXPECT_DOUBLE_EQ(orig, copy);
}

TEST(Experiment, ReplicationRefusesInstalledCorruptor) {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 1;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 23);
  (void)protect_model(pm, core::Scheme::clip_act, scale);
  const auto sites = core::collect_activations(*pm.model);
  ASSERT_FALSE(sites.empty());
  sites[0]->set_input_corruptor([](Tensor&) {});
  // A replica cannot carry the (possibly stateful) corruptor closure; the
  // engine must refuse instead of silently evaluating replicas fault-free.
  EXPECT_THROW((void)replicate_model(pm), std::invalid_argument);
  sites[0]->clear_input_corruptor();
  EXPECT_NO_THROW((void)replicate_model(pm));
}

TEST(Experiment, ParallelCampaignMatchesSerial) {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  scale.trials = 6;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 19);
  (void)protect_model(pm, core::Scheme::clip_act, scale);

  scale.campaign_threads = 1;
  const auto serial = campaign_at_rate(pm, 1e-5, scale, 33);
  for (const std::size_t threads : {2u, 8u}) {
    scale.campaign_threads = threads;
    const auto parallel = campaign_at_rate(pm, 1e-5, scale, 33);
    EXPECT_EQ(serial.accuracies, parallel.accuracies)
        << "threads = " << threads;
    EXPECT_EQ(serial.flip_counts, parallel.flip_counts)
        << "threads = " << threads;
  }
}

}  // namespace
}  // namespace fitact::ev
