// Tests for the campaign session layer (cached worker-lane replicas across
// a rate grid) and the init-skipping model construction path replicas use.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/activation.h"
#include "core/protection.h"
#include "data/dataset.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "fault/campaign.h"
#include "fault/injector.h"
#include "models/registry.h"
#include "nn/serialize.h"
#include "quant/param_image.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace fitact::ev {
namespace {

ExperimentScale tiny_scale() {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  scale.trials = 6;
  scale.post.epochs = 1;
  scale.post.max_batches_per_epoch = 3;
  return scale;
}

void expect_equal_results(const fault::CampaignResult& a,
                          const fault::CampaignResult& b,
                          const std::string& context) {
  EXPECT_EQ(a.accuracies, b.accuracies) << context;
  EXPECT_EQ(a.flip_counts, b.flip_counts) << context;
  EXPECT_DOUBLE_EQ(a.mean_accuracy, b.mean_accuracy) << context;
  EXPECT_DOUBLE_EQ(a.min_accuracy, b.min_accuracy) << context;
  EXPECT_DOUBLE_EQ(a.max_accuracy, b.max_accuracy) << context;
}

// The satellite contract: cached replicas across a >= 3-point rate grid are
// byte-identical to fresh-replica runs at threads = 1/2/3/8 (7 trials, so
// 2 and 3 lanes pull unequal trial counts), including after an intervening
// protect_model re-protection (stale-bounds regression).
TEST(CampaignSession, GridMatchesFreshRunsAcrossThreadCounts) {
  const std::vector<double> rate_grid = {1e-6, 1e-5, 1e-4};

  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    // Two identically prepared models: one swept through a session with
    // cached replicas, one through fresh-replica one-shot campaigns.
    ExperimentScale scale = tiny_scale();
    scale.trials = 7;
    scale.campaign_threads = threads;
    PreparedModel cached = prepare_model("tinycnn", 10, scale, "", 29);
    PreparedModel fresh = prepare_model("tinycnn", 10, scale, "", 29);

    (void)protect_model(cached, core::Scheme::clip_act, scale);
    (void)protect_model(fresh, core::Scheme::clip_act, scale);

    CampaignSession session(cached, scale);
    for (const double rate : rate_grid) {
      expect_equal_results(
          session.run(rate, 51), campaign_at_rate(fresh, rate, scale, 51),
          "rate " + std::to_string(rate) + " threads " +
              std::to_string(threads));
    }
    EXPECT_EQ(session.lane_count(),
              std::min<std::size_t>(threads, scale.trials));

    // Re-protect with a different scheme (per-neuron bounds, post-training
    // mutates them): the session's cached lanes must pick up the new
    // bounds, not inject into stale clip-act replicas.
    (void)protect_model(cached, core::Scheme::fitrelu, scale);
    (void)protect_model(fresh, core::Scheme::fitrelu, scale);
    for (const double rate : rate_grid) {
      expect_equal_results(
          session.run(rate, 52), campaign_at_rate(fresh, rate, scale, 52),
          "post-reprotect rate " + std::to_string(rate) + " threads " +
              std::to_string(threads));
    }
  }
}

TEST(CampaignSession, TouchForcesResyncAfterDirectMutation) {
  ExperimentScale scale = tiny_scale();
  scale.campaign_threads = 2;
  PreparedModel cached = prepare_model("tinycnn", 10, scale, "", 37);
  PreparedModel fresh = prepare_model("tinycnn", 10, scale, "", 37);
  (void)protect_model(cached, core::Scheme::clip_act, scale);
  (void)protect_model(fresh, core::Scheme::clip_act, scale);

  CampaignSession session(cached, scale);
  expect_equal_results(session.run(1e-5, 61),
                       campaign_at_rate(fresh, 1e-5, scale, 61), "warm-up");

  // Mutate both models identically outside protect_model (what the
  // granularity/k ablations do); pm.touch() must trigger the rebuild.
  core::ProtectionOptions opts;
  opts.granularity = core::Granularity::per_layer;
  core::apply_protection(*cached.model, core::Scheme::ranger, opts);
  cached.touch();
  core::apply_protection(*fresh.model, core::Scheme::ranger, opts);
  fresh.touch();

  expect_equal_results(session.run(1e-5, 62),
                       campaign_at_rate(fresh, 1e-5, scale, 62),
                       "post-touch");
}

/// Dataset wrapper that counts how many images are generated through it.
class CountingDataset : public data::Dataset {
 public:
  explicit CountingDataset(std::shared_ptr<data::Dataset> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::int64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::int64_t num_classes() const override {
    return inner_->num_classes();
  }
  void image_into(std::int64_t i, float* out) const override {
    images_.fetch_add(1, std::memory_order_relaxed);
    inner_->image_into(i, out);
  }
  [[nodiscard]] std::int64_t label(std::int64_t i) const override {
    return inner_->label(i);
  }
  [[nodiscard]] std::int64_t images() const { return images_.load(); }

 private:
  std::shared_ptr<data::Dataset> inner_;
  mutable std::atomic<std::int64_t> images_{0};
};

TEST(CampaignSession, EvalSubsetIsBuiltOncePerSession) {
  ExperimentScale scale = tiny_scale();
  scale.campaign_threads = 2;
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 43);
  PreparedModel legacy_pm = prepare_model("tinycnn", 10, scale, "", 43);
  (void)protect_model(pm, core::Scheme::fitrelu, scale);
  (void)protect_model(legacy_pm, core::Scheme::fitrelu, scale);
  const auto counting = std::make_shared<CountingDataset>(pm.test);
  pm.test = counting;

  // Two runs of 6 trials over 2 lanes read the subset's images once.
  CampaignSession session(pm, scale);
  const fault::CampaignResult first = session.run(1e-5, 71);
  (void)session.run(1e-4, 72);
  EXPECT_EQ(counting->images(), scale.eval_samples);

  // Same results as the legacy single-injector overload, which evaluates
  // straight from the dataset on every trial.
  quant::ParamImage image(*legacy_pm.model, /*include_buffers=*/false);
  fault::Injector injector(image);
  EvalConfig ec;
  ec.max_samples = scale.eval_samples;
  fault::CampaignConfig cc;
  cc.bit_error_rate = 1e-5;
  cc.trials = scale.trials;
  cc.seed = 71;
  expect_equal_results(
      first,
      fault::run_campaign(
          injector,
          [&] {
            return evaluate_accuracy(*legacy_pm.model, *legacy_pm.test, ec);
          },
          cc),
      "session vs legacy overload");
}

TEST(CampaignSession, FaultLevelSessionMatchesOneShotEngine) {
  // Pure fault-layer check, no eval stack: a session over synthetic workers
  // must reproduce run_campaign for every run of a multi-rate sweep.
  struct Lane {
    std::shared_ptr<nn::Module> net;
    std::unique_ptr<quant::ParamImage> image;
    std::unique_ptr<fault::Injector> injector;
  };
  const auto make_worker = [](std::size_t) {
    models::ModelConfig mc;
    mc.width_mult = 0.25f;
    mc.seed = 3;
    auto ctx = std::make_shared<Lane>();
    ctx->net = models::make_tinycnn(mc);
    ctx->image = std::make_unique<quant::ParamImage>(*ctx->net);
    ctx->injector = std::make_unique<fault::Injector>(*ctx->image);
    fault::CampaignWorker w;
    w.keepalive = ctx;
    w.injector = ctx->injector.get();
    w.evaluate = [ctx] {
      double sum = 0.0;
      for (auto& p : ctx->net->named_parameters()) {
        for (const float v : p.var.value().span()) sum += v;
      }
      return sum;
    };
    return w;
  };

  fault::CampaignConfig cfg;
  cfg.trials = 8;
  cfg.seed = 404;
  cfg.threads = 4;
  fault::CampaignSession session(make_worker);
  for (const double rate : {1e-4, 5e-4, 1e-3}) {
    cfg.bit_error_rate = rate;
    expect_equal_results(session.run(cfg), fault::run_campaign(make_worker, cfg),
                         "rate " + std::to_string(rate));
  }
  EXPECT_EQ(session.lane_count(), 4u);

  // A wider later run grows the lane set.
  cfg.threads = 8;
  cfg.bit_error_rate = 2e-3;
  expect_equal_results(session.run(cfg), fault::run_campaign(make_worker, cfg),
                       "lane growth");
  EXPECT_EQ(session.lane_count(), 8u);
}

// --- clean-prefix resume ------------------------------------------------

/// A campaign-ready model without the training stage: resumed and full
/// forwards must agree whatever the parameter values.
PreparedModel untrained_model(const std::string& name, float width,
                              const ExperimentScale& scale) {
  PreparedModel pm;
  pm.model_name = name;
  pm.num_classes = 10;
  pm.model_config.num_classes = 10;
  pm.model_config.width_mult = width;
  pm.model_config.seed = 19;
  pm.model = models::make_model(name, pm.model_config);
  pm.train = open_dataset(10, true, scale.train_size, 19);
  pm.test = open_dataset(10, false, scale.test_size, 19);
  return pm;
}

/// The subset's logits from full forwards of `model`, in the same chunks.
Tensor full_logits(nn::Module& model, const EvalBatch& subset,
                   std::int64_t batch_size) {
  const NoGradGuard no_grad;
  const Shape& s = subset.images.shape();
  const auto total = static_cast<std::int64_t>(subset.labels.size());
  Tensor out;
  for (std::int64_t done = 0; done < total; done += batch_size) {
    const std::int64_t count = std::min(batch_size, total - done);
    const Variable y = model.forward(Variable(Tensor::view(
        Shape{count, s[1], s[2], s[3]},
        const_cast<float*>(subset.images.data()) + done * s[1] * s[2] * s[3])));
    const std::int64_t classes = y.shape()[1];
    if (!out.defined()) out = Tensor(Shape{total, classes});
    std::copy_n(y.value().data(), y.value().numel(),
                out.data() + done * classes);
  }
  return out;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

double top1_of(const Tensor& logits, const EvalBatch& subset) {
  const auto pred = argmax_rows(logits);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == subset.labels[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(subset.labels.size());
}

/// One word inside each top-level child that owns fault-space words.
std::map<std::size_t, std::uint64_t> word_per_child(const CampaignLane& lane) {
  std::map<std::string, std::size_t> index;
  const auto& children = lane.model->children();
  for (std::size_t i = 0; i < children.size(); ++i) {
    index.emplace(children[i].first, i);
  }
  std::map<std::size_t, std::uint64_t> words;
  for (const auto& seg : lane.image->segments()) {
    if (seg.target.numel() == 0) continue;
    words.emplace(index.at(seg.name.substr(0, seg.name.find('.'))),
                  seg.offset + static_cast<std::size_t>(seg.target.numel()) / 2);
  }
  return words;
}

/// The lane's logits from the forward its top1() runs (a lane without
/// changed words resumes from the deepest cut).
Tensor resumed_logits(const CampaignLane& lane) {
  return lane.prefix->logits(
      *lane.model, lane.prefix->dirty_child(lane.injector->lowest_word()));
}

/// Forces one high-bit flip into each top-level child that owns words, plus
/// one zero-flip trial, spread over the first `lanes` workers (each lane's
/// share on its own thread, running kernels inline as campaign lanes do),
/// and requires every resumed forward to equal a full forward of the same
/// faulted lane bit for bit. `subset` is `dataset`'s eval subset under `ec`.
void expect_resumed_equals_full(const std::vector<fault::CampaignWorker>& workers,
                                std::size_t lanes, const data::Dataset& dataset,
                                const EvalBatch& subset, const EvalConfig& ec,
                                const std::string& context) {
  const auto lane_of = [&](std::size_t i) -> CampaignLane& {
    return *std::static_pointer_cast<CampaignLane>(workers[i].keepalive);
  };
  const CleanPrefix& prefix = *lane_of(0).prefix;
  EXPECT_FALSE(prefix.cut_children().empty()) << context;
  const Tensor clean = full_logits(*lane_of(0).model, subset, ec.batch_size);
  EXPECT_DOUBLE_EQ(prefix.clean_top1(), top1_of(clean, subset)) << context;
  EXPECT_DOUBLE_EQ(prefix.clean_top1(),
                   evaluate_accuracy(*lane_of(0).model, dataset, ec))
      << context;

  const auto targets = word_per_child(lane_of(0));
  std::atomic<int> changed_logits{0};
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&, l] {
      const ut::InlineKernelScope inline_kernels;
      CampaignLane& lane = lane_of(l);
      std::size_t k = 0;
      for (const auto& [child, word] : targets) {
        if (k++ % lanes != l) continue;
        const std::string where = context + ", lane " + std::to_string(l) +
                                  ", flip in child " + std::to_string(child);
        lane.injector->inject_at(word, 30);
        EXPECT_EQ(lane.injector->lowest_word(), word) << where;
        EXPECT_LE(prefix.dirty_child(word), child) << where;
        const Tensor full = full_logits(*lane.model, subset, ec.batch_size);
        EXPECT_TRUE(bit_identical(resumed_logits(lane), full)) << where;
        EXPECT_DOUBLE_EQ(lane.top1(), top1_of(full, subset)) << where;
        if (!bit_identical(full, clean)) ++changed_logits;
        lane.injector->restore();
      }
      // Zero flips: the clean top-1 with no forward, and logits resumed
      // from the deepest cut.
      ut::Rng rng(l);
      lane.injector->inject_exact(0, rng);
      EXPECT_EQ(lane.injector->lowest_word(), lane.injector->word_count())
          << context;
      EXPECT_TRUE(bit_identical(resumed_logits(lane), clean))
          << context << ", zero flips, lane " << l;
      EXPECT_DOUBLE_EQ(lane.top1(), prefix.clean_top1()) << context;
      lane.injector->restore();
    });
  }
  for (auto& t : threads) t.join();
  // The flips are loud enough to move the logits: a resume that skipped
  // the faulted child would not go unnoticed.
  EXPECT_GT(changed_logits.load(), 0) << context;
}

TEST(CleanPrefix, ResumedTrialsEqualFullForwardsOnEveryZooModel) {
  ExperimentScale scale = tiny_scale();
  scale.train_size = 32;
  scale.profile_samples = 16;
  EvalConfig ec;
  ec.batch_size = 8;
  ec.max_samples = 9;  // two batch_size chunks
  // Widths at the 4-channel floor, so the sanitizer builds stay quick.
  const std::pair<std::string, float> zoo[] = {
      {"tinycnn", 0.25f},
      {"alexnet", 0.0625f},
      {"vgg16", 0.0625f},
      {"resnet50", 0.03125f}};
  for (const auto& [name, width] : zoo) {
    PreparedModel pm = untrained_model(name, width, scale);
    (void)protect_model(pm, core::Scheme::clip_act, scale);
    const EvalBatch subset = materialize_eval_batch(*pm.test, ec);
    const fault::WorkerFactory factory = make_campaign_worker_factory(pm, ec);
    std::vector<fault::CampaignWorker> workers;
    for (std::size_t l = 0; l < 4; ++l) workers.push_back(factory(l));
    // What CampaignSession::run does for its cached lanes once the source
    // changed (protect_model / touch() invalidate the session).
    const auto rebuild = [&] {
      for (std::size_t l = 0; l < workers.size(); ++l) workers[l] = factory(l);
    };

    for (const std::size_t lanes : {1u, 4u}) {
      expect_resumed_equals_full(workers, lanes, *pm.test, subset, ec,
                                 name + " clip_act, lanes " +
                                     std::to_string(lanes));
    }
    (void)protect_model(pm, core::Scheme::fitrelu, scale,
                        /*skip_post_training=*/true);
    rebuild();
    for (const std::size_t lanes : {1u, 4u}) {
      expect_resumed_equals_full(workers, lanes, *pm.test, subset, ec,
                                 name + " after protect_model, lanes " +
                                     std::to_string(lanes));
    }
    core::ProtectionOptions opts;
    opts.granularity = core::Granularity::per_layer;
    core::apply_protection(*pm.model, core::Scheme::ranger, opts);
    pm.touch();
    rebuild();
    for (const std::size_t lanes : {1u, 4u}) {
      expect_resumed_equals_full(workers, lanes, *pm.test, subset, ec,
                                 name + " after touch, lanes " +
                                     std::to_string(lanes));
    }
  }
}

// The same resume through the session engine, at a rate that leaves some
// trials without a flip and spreads the rest over the network: at 1 and 4
// lanes, and across protect_model and touch(), every trial's top-1 must
// equal the legacy overload's full forward of the same faults.
TEST(CleanPrefix, SessionTrialsEqualFullForwardCampaigns) {
  ExperimentScale scale = tiny_scale();
  scale.width_vgg16 = 0.0625f;
  scale.train_size = 32;
  scale.profile_samples = 16;
  scale.trials = 8;
  for (const std::string name : {"tinycnn", "vgg16"}) {
    PreparedModel pm = untrained_model(name, scale.width_for(name), scale);
    (void)protect_model(pm, core::Scheme::clip_act, scale);
    std::vector<std::unique_ptr<CampaignSession>> sessions;
    for (const std::size_t lanes : {1u, 4u}) {
      ExperimentScale s = scale;
      s.campaign_threads = lanes;
      sessions.push_back(std::make_unique<CampaignSession>(pm, s));
    }
    EvalConfig ec;
    ec.max_samples = scale.eval_samples;
    const auto expect_sessions_match = [&](const std::string& context) {
      fault::CampaignConfig cc;
      cc.bit_error_rate =
          1.5 / (32.0 * static_cast<double>(pm.model->parameter_count()));
      cc.trials = scale.trials;
      cc.seed = 83;
      quant::ParamImage image(*pm.model);
      fault::Injector injector(image);
      const fault::CampaignResult full = fault::run_campaign(
          injector, [&] { return evaluate_accuracy(*pm.model, *pm.test, ec); },
          cc);
      for (const auto& session : sessions) {
        expect_equal_results(session->run(cc.bit_error_rate, cc.seed), full,
                             name + " " + context);
      }
    };
    expect_sessions_match("clip_act");
    (void)protect_model(pm, core::Scheme::fitrelu, scale,
                        /*skip_post_training=*/true);
    expect_sessions_match("after protect_model");
    core::ProtectionOptions opts;
    opts.granularity = core::Granularity::per_layer;
    core::apply_protection(*pm.model, core::Scheme::ranger, opts);
    pm.touch();
    expect_sessions_match("after touch");
  }
}

// A reused lane is not re-snapshotted between runs: its injector restored
// the model after every trial, and every clean word round-trips through
// quant::decode, so a fresh image over the lane's model must reproduce the
// lane's own clean words bit for bit. Checked after every run of a rate
// that flips many words, on every zoo model, under clip_act, ranger and
// post-trained FitReLU (whose bounds the post-training moves off the
// fixed-point grid).
TEST(CampaignSession, RestoredLanesReencodeToTheirCleanWords) {
  ExperimentScale scale = tiny_scale();
  scale.train_size = 32;
  scale.profile_samples = 16;
  EvalConfig ec;
  ec.batch_size = 8;
  ec.max_samples = 9;
  const std::pair<std::string, float> zoo[] = {
      {"tinycnn", 0.25f},
      {"alexnet", 0.0625f},
      {"vgg16", 0.0625f},
      {"resnet50", 0.03125f}};
  for (const auto& [name, width] : zoo) {
    PreparedModel pm = untrained_model(name, width, scale);
    std::vector<std::shared_ptr<CampaignLane>> lanes;
    fault::CampaignSession session(
        [&lanes, base = make_campaign_worker_factory(pm, ec)](std::size_t l) {
          fault::CampaignWorker w = base(l);
          lanes.resize(std::max(lanes.size(), l + 1));
          lanes[l] = std::static_pointer_cast<CampaignLane>(w.keepalive);
          return w;
        });
    fault::CampaignConfig cc;
    cc.bit_error_rate = 1e-3;  // every trial flips ~3% of the words
    cc.trials = 8;
    cc.threads = 4;
    for (const core::Scheme scheme :
         {core::Scheme::clip_act, core::Scheme::ranger,
          core::Scheme::fitrelu}) {
      (void)protect_model(pm, scheme, scale);
      session.invalidate();
      for (const std::uint64_t seed : {91u, 92u}) {
        cc.seed = seed;
        const fault::CampaignResult result = session.run(cc);
        ASSERT_EQ(lanes.size(), 4u);
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          const quant::ParamImage fresh(*lanes[l]->model,
                                        /*include_buffers=*/false);
          EXPECT_EQ(fresh.clean_words(), lanes[l]->image->clean_words())
              << name << " " << core::to_string(scheme) << ", seed "
              << seed << ", lane " << l;
        }
        EXPECT_GT(*std::min_element(result.flip_counts.begin(),
                                    result.flip_counts.end()),
                  0u);
      }
    }
  }
}

// --- engine fan-out ------------------------------------------------------

/// A generic worker factory whose lanes log every call the engine makes:
/// builds and evaluates, each with its thread. Every lane is an identical
/// tinycnn whose model holds its decoded clean image from the start, and
/// evaluate() sums the lane's parameters, so a trial's result depends on
/// its faults alone.
class LoggingLanes {
 public:
  enum class Call { build, evaluate };
  struct Entry {
    Call call;
    std::size_t lane;
    std::thread::id thread;
  };
  struct Lane {
    std::shared_ptr<nn::Module> net;
    std::unique_ptr<quant::ParamImage> image;
    std::unique_ptr<fault::Injector> injector;
  };

  [[nodiscard]] fault::WorkerFactory factory() {
    return [this](std::size_t lane) {
      log(Call::build, lane);
      models::ModelConfig mc;
      mc.width_mult = 0.25f;
      mc.seed = 3;
      auto ctx = std::make_shared<Lane>();
      ctx->net = models::make_tinycnn(mc);
      ctx->image = std::make_unique<quant::ParamImage>(*ctx->net);
      ctx->image->restore();
      ctx->injector = std::make_unique<fault::Injector>(*ctx->image);
      lanes_.push_back(ctx);
      fault::CampaignWorker w;
      w.keepalive = ctx;
      w.injector = ctx->injector.get();
      w.evaluate = [this, ctx, lane] {
        log(Call::evaluate, lane);
        if (evaluations_.fetch_add(1) == throw_at_) {
          throw std::runtime_error("evaluate failed");
        }
        double sum = 0.0;
        for (auto& p : ctx->net->named_parameters()) {
          for (const float v : p.var.value().span()) sum += v;
        }
        return sum;
      };
      return w;
    };
  }

  /// Make the evaluate() call `calls` calls from now throw (0 = the next
  /// one). Call between runs only.
  void throw_in(int calls) { throw_at_ = evaluations_.load() + calls; }
  void never_throw() { throw_at_ = -1; }

  /// The calls logged since the last take(), in the order they happened.
  std::vector<Entry> take() {
    const std::lock_guard<std::mutex> lock(m_);
    return std::exchange(log_, {});
  }

  /// Every lane built so far, in build order.
  [[nodiscard]] const std::vector<std::shared_ptr<Lane>>& lanes() const {
    return lanes_;
  }

 private:
  void log(Call call, std::size_t lane) {
    const std::lock_guard<std::mutex> lock(m_);
    log_.push_back({call, lane, std::this_thread::get_id()});
  }

  std::mutex m_;
  std::vector<Entry> log_;
  std::vector<std::shared_ptr<Lane>> lanes_;  // built on the calling thread
  std::atomic<int> evaluations_{0};
  int throw_at_ = -1;  // written between runs only
};

fault::CampaignConfig engine_config(std::size_t threads, std::uint64_t seed) {
  fault::CampaignConfig cfg;
  cfg.bit_error_rate = 1e-3;  // every trial flips many words
  cfg.trials = 8;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

/// One run's log, split into the lanes it built (in build order) and its
/// trial count. Every build must run on the calling thread before the
/// run's first trial, lane 0's trials on the calling thread and every other
/// lane's on a pool worker.
struct RunLog {
  std::vector<std::size_t> built;
  std::size_t trials = 0;
};

RunLog split_run_log(const std::vector<LoggingLanes::Entry>& calls) {
  const std::thread::id caller = std::this_thread::get_id();
  RunLog run;
  for (const auto& c : calls) {
    if (c.call == LoggingLanes::Call::build) {
      run.built.push_back(c.lane);
      EXPECT_EQ(run.trials, 0u)
          << "lane " << c.lane << " was built after a trial started";
      EXPECT_EQ(c.thread, caller) << "lane " << c.lane;
    } else {
      ++run.trials;
      EXPECT_EQ(c.thread == caller, c.lane == 0) << "lane " << c.lane;
    }
  }
  return run;
}

TEST(CampaignEngine, ReuseRunBuildsOnlyItsNewLanes) {
  LoggingLanes logged;
  fault::CampaignSession session(logged.factory());
  (void)session.run(engine_config(4, 505));
  (void)logged.take();

  // A wider reuse run: lanes 0-3 are used as the last run left them, lanes
  // 4 and 5 are built for it.
  const fault::CampaignConfig wide = engine_config(6, 506);
  const fault::CampaignResult result = session.run(wide);
  const RunLog run = split_run_log(logged.take());
  EXPECT_EQ(run.built, (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(run.trials, 8u);
  EXPECT_EQ(session.lane_count(), 6u);

  // The hand-out order changed which lane ran a trial and when, not what
  // the trial read or where its result went.
  LoggingLanes serial_lanes;
  fault::CampaignConfig serial = wide;
  serial.threads = 1;
  expect_equal_results(result,
                       fault::run_campaign(serial_lanes.factory(), serial),
                       "6 lanes vs 1");
}

TEST(CampaignEngine, InvalidateRebuildsEveryLaneInOrderBeforeAnyTrial) {
  LoggingLanes logged;
  fault::CampaignSession session(logged.factory());
  (void)session.run(engine_config(4, 606));
  (void)logged.take();

  session.invalidate();
  (void)session.run(engine_config(4, 607));
  const RunLog run = split_run_log(logged.take());
  EXPECT_EQ(run.built, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(run.trials, 8u);
}

TEST(CampaignEngine, ThrowingTrialLeavesEveryLaneCleanAndTheSessionUsable) {
  LoggingLanes logged;
  fault::CampaignSession session(logged.factory());
  (void)session.run(engine_config(4, 808));

  logged.throw_in(3);
  EXPECT_THROW((void)session.run(engine_config(4, 809)), std::runtime_error);

  // Every lane's model holds its decoded clean image, as a lane that never
  // ran a trial does.
  LoggingLanes reference;
  (void)reference.factory()(0);
  const auto clean = reference.lanes().front()->net->named_parameters();
  ASSERT_EQ(logged.lanes().size(), 4u);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const auto params = logged.lanes()[lane]->net->named_parameters();
    ASSERT_EQ(params.size(), clean.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(bit_identical(params[i].var.value(), clean[i].var.value()))
          << "lane " << lane << ", " << params[i].name;
    }
  }

  // The session's lanes and threads survive the exception.
  logged.never_throw();
  LoggingLanes fresh;
  expect_equal_results(session.run(engine_config(4, 810)),
                       fault::run_campaign(fresh.factory(),
                                           engine_config(4, 810)),
                       "run after the throw");
}

// --- init-skipping construction path ------------------------------------

TEST(SkipInit, PendingUntilCopyStateThenIdentical) {
  models::ModelConfig cfg;
  cfg.width_mult = 0.25f;
  cfg.seed = 7;
  const auto src = models::make_model("tinycnn", cfg);
  EXPECT_FALSE(src->subtree_pending_init());

  models::ModelConfig skip = cfg;
  skip.skip_init = true;
  const auto replica = models::make_model("tinycnn", skip);
  EXPECT_TRUE(replica->subtree_pending_init());

  nn::copy_state(*src, *replica);
  EXPECT_FALSE(replica->subtree_pending_init());

  // Value-identical to the source after the copy.
  const auto sp = src->named_parameters();
  const auto rp = replica->named_parameters();
  ASSERT_EQ(sp.size(), rp.size());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    EXPECT_EQ(sp[i].name, rp[i].name);
    for (std::int64_t j = 0; j < sp[i].var.numel(); ++j) {
      EXPECT_EQ(sp[i].var.value()[j], rp[i].var.value()[j]);
    }
  }
}

TEST(SkipInit, EveryRegisteredModelSupportsIt) {
  for (const auto& name : models::model_names()) {
    models::ModelConfig cfg;
    cfg.width_mult = 0.125f;
    cfg.skip_init = true;
    const auto m = models::make_model(name, cfg);
    EXPECT_TRUE(m->subtree_pending_init()) << name;
    // Same architecture as the initialised build.
    models::ModelConfig full = cfg;
    full.skip_init = false;
    EXPECT_EQ(m->parameter_count(),
              models::make_model(name, full)->parameter_count())
        << name;
  }
}

TEST(SkipInit, ReplicateModelStillEvaluatesIdentically) {
  // replicate_model now uses the skip-init path; the replica must still be
  // value-identical (covers the "callers that do need init are unaffected"
  // check from the other side: the only skip-init user copies state in).
  ExperimentScale scale = tiny_scale();
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 41);
  (void)protect_model(pm, core::Scheme::fitrelu, scale);
  const auto replica = replicate_model(pm);
  EXPECT_FALSE(replica->subtree_pending_init());
  EvalConfig ec;
  ec.max_samples = scale.eval_samples;
  EXPECT_DOUBLE_EQ(evaluate_accuracy(*pm.model, *pm.test, ec),
                   evaluate_accuracy(*replica, *pm.test, ec));
}

#ifndef NDEBUG
using SkipInitDeathTest = ::testing::Test;

TEST(SkipInitDeathTest, EvaluatingBeforeCopyStateAsserts) {
  // Debug builds must refuse to forward a pending-init model: its weights
  // are uninitialised memory.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  models::ModelConfig cfg;
  cfg.width_mult = 0.25f;
  cfg.skip_init = true;
  EXPECT_DEATH(
      {
        const auto m = models::make_model("tinycnn", cfg);
        m->set_training(false);
        Variable x(Tensor::zeros(Shape{1, 3, 32, 32}), false);
        (void)m->forward(x);
      },
      "deferred");
}
#endif  // NDEBUG

}  // namespace
}  // namespace fitact::ev
