// End-to-end integration: the full FitAct workflow (train -> profile ->
// protect -> post-train -> fault campaign) on a small model, asserting the
// paper's headline qualitative claims:
//   1. bounded protection beats the unprotected model under faults,
//   2. at high fault rates FitAct (per-neuron bounds) is at least as good as
//      layer-bound Clip-Act, and both beat Ranger's saturating restriction.
#include <gtest/gtest.h>

#include "core/bound_profiler.h"
#include "core/post_training.h"
#include "core/protection.h"
#include "data/synthetic_cifar.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "quant/param_image.h"
#include "util/log.h"

namespace fitact {
namespace {

struct Workbench {
  ev::ExperimentScale scale;
  ev::PreparedModel pm;

  static Workbench make() {
    ut::set_log_level(ut::LogLevel::warn);
    ev::ExperimentScale scale = ev::ExperimentScale::scaled();
    scale.train_size = 640;
    scale.test_size = 256;
    scale.train_epochs = 12;
    scale.profile_samples = 256;
    scale.eval_samples = 96;
    scale.trials = 6;
    scale.post.epochs = 2;
    scale.post.max_batches_per_epoch = 8;
    ev::PreparedModel pm = ev::prepare_model("tinycnn", 10, scale, "", 42);
    return Workbench{scale, std::move(pm)};
  }
};

Workbench& bench() {
  static Workbench w = Workbench::make();
  return w;
}

double mean_campaign_accuracy(Workbench& w, core::Scheme scheme, double rate,
                              std::uint64_t seed) {
  ev::protect_model(w.pm, scheme, w.scale);
  return ev::campaign_at_rate(w.pm, rate, w.scale, seed).mean_accuracy;
}

TEST(Integration, ModelLearnsTheTask) {
  EXPECT_GT(bench().pm.baseline_accuracy, 0.8);
}

TEST(Integration, CleanAccuracySurvivesProtection) {
  Workbench& w = bench();
  const double base = w.pm.baseline_accuracy;
  for (const auto scheme :
       {core::Scheme::clip_act, core::Scheme::ranger, core::Scheme::fitrelu}) {
    const ev::ProtectReport r = ev::protect_model(w.pm, scheme, w.scale);
    EXPECT_GT(r.clean_accuracy, base - 0.12)
        << "clean accuracy collapsed under " << core::to_string(scheme);
  }
}

TEST(Integration, ProtectionBeatsUnprotectedAtHighRate) {
  Workbench& w = bench();
  // The scaled model has ~100x fewer parameter bits than the full one, so a
  // rate far above the paper's grid puts enough flips in it to separate the
  // schemes.
  const double rate = 2e-4;
  const double unprotected =
      mean_campaign_accuracy(w, core::Scheme::relu, rate, 42);
  const double fitact =
      mean_campaign_accuracy(w, core::Scheme::fitrelu, rate, 42);
  EXPECT_GT(fitact, unprotected + 0.1);
}

TEST(Integration, FitActAtLeastMatchesClipActAtHighRate) {
  Workbench& w = bench();
  const double rate = 2e-4;
  const double clip =
      mean_campaign_accuracy(w, core::Scheme::clip_act, rate, 77);
  const double fit =
      mean_campaign_accuracy(w, core::Scheme::fitrelu, rate, 77);
  EXPECT_GE(fit, clip - 0.05);
}

TEST(Integration, ClipActBeatsRangerAtHighRate) {
  Workbench& w = bench();
  const double rate = 2e-4;
  const double ranger =
      mean_campaign_accuracy(w, core::Scheme::ranger, rate, 99);
  const double clip =
      mean_campaign_accuracy(w, core::Scheme::clip_act, rate, 99);
  EXPECT_GE(clip, ranger - 0.05);
}

TEST(Integration, AccuracyDegradesMonotonicallyInRateForUnprotected) {
  Workbench& w = bench();
  ev::protect_model(w.pm, core::Scheme::relu, w.scale);
  const double lo =
      ev::campaign_at_rate(w.pm, 1e-6, w.scale, 7).mean_accuracy;
  const double hi =
      ev::campaign_at_rate(w.pm, 1e-3, w.scale, 7).mean_accuracy;
  EXPECT_GE(lo, hi - 0.02);
}

TEST(Integration, FaultSpaceIncludesBounds) {
  Workbench& w = bench();
  ev::protect_model(w.pm, core::Scheme::fitrelu, w.scale);
  quant::ParamImage with_bounds(*w.pm.model);
  ev::protect_model(w.pm, core::Scheme::relu, w.scale);
  quant::ParamImage without_bounds(*w.pm.model, [](const std::string& name) {
    return name.find("lambda") == std::string::npos;
  });
  // The FitAct fault space is strictly larger: it contains the lambdas.
  EXPECT_GT(with_bounds.word_count(), without_bounds.word_count());
}

TEST(Integration, CampaignIsDeterministicEndToEnd) {
  Workbench& w = bench();
  ev::protect_model(w.pm, core::Scheme::clip_act, w.scale);
  const auto a = ev::campaign_at_rate(w.pm, 1e-4, w.scale, 1111);
  const auto b = ev::campaign_at_rate(w.pm, 1e-4, w.scale, 1111);
  EXPECT_EQ(a.accuracies, b.accuracies);
}

}  // namespace
}  // namespace fitact
