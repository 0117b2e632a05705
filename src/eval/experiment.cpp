#include "eval/experiment.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "core/bound_profiler.h"
#include "data/cifar_binary.h"
#include "data/synthetic_cifar.h"
#include "models/registry.h"
#include "nn/serialize.h"
#include "quant/param_image.h"
#include "util/log.h"
#include "util/timer.h"

namespace fitact::ev {

std::vector<double> paper_fault_rates() {
  return {1e-7, 1e-6, 3e-6, 1e-5, 3e-5};
}

ExperimentScale ExperimentScale::scaled() {
  ExperimentScale s;
  s.train_epochs = 14;  // the BatchNorm-less models converge more slowly
  s.post.epochs = 3;
  s.post.batch_size = 32;
  s.post.max_batches_per_epoch = 16;
  s.post.lr = 0.01f;
  s.post.zeta = 0.1f;
  s.post.delta = 0.03f;
  s.post.val_samples = 256;
  return s;
}

ExperimentScale ExperimentScale::full() {
  ExperimentScale s;
  s.width_alexnet = 1.0f;
  s.width_vgg16 = 1.0f;
  s.width_resnet50 = 1.0f;
  s.train_size = 50000;
  s.test_size = 10000;
  s.train_epochs = 60;
  s.train_batch = 128;
  s.profile_samples = 10000;
  s.eval_samples = 2000;
  s.trials = 30;
  s.post.epochs = 10;
  s.post.batch_size = 128;
  s.post.max_batches_per_epoch = 0;
  s.post.lr = 0.02f;
  s.post.zeta = 0.5f;
  s.post.delta = 0.02f;
  s.post.val_samples = 2000;
  return s;
}

float ExperimentScale::width_for(const std::string& model_name) const {
  if (model_name == "alexnet") return width_alexnet;
  if (model_name == "vgg16") return width_vgg16;
  if (model_name == "resnet50") return width_resnet50;
  return 1.0f;
}

std::shared_ptr<data::Dataset> open_dataset(std::int64_t num_classes,
                                            bool train, std::int64_t size,
                                            std::uint64_t seed) {
  const char* env = std::getenv("FITACT_DATA_DIR");
  const std::string root = env != nullptr ? env : "./data";
  if (data::CifarBinary::available(root, num_classes)) {
    ut::log_info() << "using real CIFAR-" << num_classes << " from " << root;
    return std::make_shared<data::CifarBinary>(
        data::CifarBinary::open(root, num_classes, train));
  }
  data::SyntheticCifarConfig cfg;
  cfg.num_classes = num_classes;
  cfg.size = size;
  cfg.seed = seed;
  cfg.split_salt = train ? 1 : 2;
  return std::make_shared<data::SyntheticCifar>(cfg);
}

namespace {

/// The BatchNorm-less architectures (AlexNet, original VGG16) need a
/// gentler learning rate than the normalised ResNet50 to train stably.
float default_train_lr(const std::string& model_name) {
  if (model_name == "alexnet" || model_name == "vgg16") return 0.01f;
  return 0.05f;
}

std::string cache_file(const std::string& cache_dir,
                       const std::string& model_name, std::int64_t classes,
                       const ExperimentScale& scale, std::uint64_t seed) {
  // v2: gradient clipping added to the training recipe.
  std::ostringstream os;
  os << "v2_" << model_name << "_c" << classes << "_w"
     << static_cast<int>(scale.width_for(model_name) * 1000) << "_n"
     << scale.train_size << "_e" << scale.train_epochs << "_b"
     << scale.train_batch << "_lr"
     << static_cast<int>(default_train_lr(model_name) * 1000) << "_s" << seed
     << ".bin";
  return (std::filesystem::path(cache_dir) / os.str()).string();
}

}  // namespace

PreparedModel prepare_model(const std::string& model_name,
                            std::int64_t num_classes,
                            const ExperimentScale& scale,
                            const std::string& cache_dir, std::uint64_t seed) {
  PreparedModel pm;
  pm.model_name = model_name;
  pm.num_classes = num_classes;
  // 100-class runs need more samples per class to train to a useful
  // baseline; scale the split sizes rather than the epoch count.
  ExperimentScale eff = scale;
  if (num_classes >= 100 && eff.train_size < 50000) {
    eff.train_size = scale.train_size * 2;
    eff.test_size = scale.test_size * 2;
  }
  pm.train = open_dataset(num_classes, true, eff.train_size, seed);
  pm.test = open_dataset(num_classes, false, eff.test_size, seed);

  models::ModelConfig cfg;
  cfg.num_classes = num_classes;
  cfg.width_mult = scale.width_for(model_name);
  cfg.activation.scheme = core::Scheme::relu;
  cfg.seed = seed;
  pm.model_config = cfg;
  pm.model = models::make_model(model_name, cfg);

  std::string path;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    path = cache_file(cache_dir, model_name, num_classes, eff, seed);
    if (nn::load_state(*pm.model, path)) {
      pm.from_cache = true;
      ut::log_info() << "loaded cached model " << path;
    }
  }
  if (!pm.from_cache) {
    TrainConfig tc;
    tc.epochs = eff.train_epochs;
    tc.batch_size = eff.train_batch;
    tc.lr = default_train_lr(model_name);
    tc.lr_decay = 0.92f;
    tc.clip_norm = 5.0;  // guards the momentum-SGD runs against divergence
    tc.seed = seed;
    ut::log_info() << "training " << model_name << " (classes=" << num_classes
                   << ", width=" << cfg.width_mult << ") ...";
    const TrainReport tr = train_classifier(*pm.model, *pm.train, tc);
    pm.train_time_s = tr.wall_time_s;
    if (!path.empty()) nn::save_state(*pm.model, path);
  }

  EvalConfig ec;
  ec.max_samples = eff.test_size;
  pm.baseline_accuracy = evaluate_accuracy(*pm.model, *pm.test, ec);
  ut::log_info() << model_name << " baseline accuracy "
                 << pm.baseline_accuracy;
  return pm;
}

ProtectReport protect_model(PreparedModel& pm, core::Scheme scheme,
                            const ExperimentScale& scale,
                            bool skip_post_training) {
  ProtectReport report;
  report.scheme = scheme;

  if (!pm.profiled) {
    // Profile the *unprotected* trained network once (paper: bounds are
    // seeded from maximum activations of the trained DNN). Done for every
    // scheme — including plain ReLU — so callers that start from an
    // unprotected configuration can still seed bounds later.
    core::apply_protection(*pm.model, core::Scheme::relu);
    core::ProfileConfig pc;
    pc.max_samples = scale.profile_samples;
    profile_bounds(*pm.model, *pm.train, pc);
    pm.profiled = true;
  }

  const core::ProtectionOptions opts = core::default_options(scheme);
  core::apply_protection(*pm.model, scheme, opts);

  if (scheme == core::Scheme::fitrelu && !skip_post_training) {
    report.post = core::post_train_bounds(*pm.model, *pm.train, *pm.test,
                                          pm.baseline_accuracy, scale.post);
    report.post_trained = true;
  }
  EvalConfig ec;
  ec.max_samples = scale.test_size;
  report.clean_accuracy = evaluate_accuracy(*pm.model, *pm.test, ec);
  // Profiling, scheme application, and post-training all changed the model:
  // any live CampaignSession must rebuild its lanes.
  pm.touch();
  return report;
}

std::shared_ptr<nn::Module> replicate_model(const PreparedModel& pm) {
  // The replica's parameters are overwritten by copy_state immediately, so
  // skip the random init in make_model (the replica stays pending-init for
  // the instant between construction and the copy).
  models::ModelConfig cfg = pm.model_config;
  cfg.skip_init = true;
  auto replica = models::make_model(pm.model_name, cfg);
  core::replicate_protection(*pm.model, *replica);
  nn::copy_state(*pm.model, *replica);
  replica->set_training(false);
  return replica;
}

double CampaignLane::top1() const {
  return prefix->top1(*model, prefix->dirty_child(injector->lowest_word()));
}

fault::WorkerFactory make_campaign_worker_factory(PreparedModel& pm,
                                                  const EvalConfig& ec) {
  // Every trial evaluates the same fixed subset: materialise it once and
  // share it read-only across lanes rather than regenerate it per trial.
  const auto subset =
      std::make_shared<const EvalBatch>(materialize_eval_batch(*pm.test, ec));
  // Rebuilt whenever lane 0 is built (or a lane is built before lane 0),
  // always on the calling thread; each lane copies it when built.
  const auto prefix = std::make_shared<std::shared_ptr<const CleanPrefix>>();
  return [&pm, subset, ec, prefix](std::size_t lane) {
    auto ctx = std::make_shared<CampaignLane>();
    ctx->model = lane == 0 ? pm.model : replicate_model(pm);
    ctx->image = std::make_unique<quant::ParamImage>(*ctx->model);
    ctx->injector = std::make_unique<fault::Injector>(*ctx->image);
    if (lane == 0 || !*prefix) {
      // The restored image holds the parameters a zero-flip trial
      // evaluates.
      ctx->image->restore();
      *prefix = std::make_shared<const CleanPrefix>(*ctx->model, *ctx->image,
                                                    subset, ec);
    }
    ctx->prefix = *prefix;
    fault::CampaignWorker w;
    w.keepalive = ctx;
    w.injector = ctx->injector.get();
    w.evaluate = [ctx] { return ctx->top1(); };
    return w;
  };
}

CampaignSession::CampaignSession(PreparedModel& pm,
                                 const ExperimentScale& scale)
    : pm_(&pm),
      trials_(scale.trials),
      threads_(scale.campaign_threads),
      session_([&pm, &scale] {
        EvalConfig ec;
        ec.max_samples = scale.eval_samples;
        return fault::CampaignSession(make_campaign_worker_factory(pm, ec));
      }()),
      synced_epoch_(pm.state_epoch) {}

fault::CampaignResult CampaignSession::run(double bit_error_rate,
                                           std::uint64_t seed) {
  fault::CampaignConfig cc;
  cc.bit_error_rate = bit_error_rate;
  cc.trials = trials_;
  cc.seed = seed;
  cc.threads = threads_;
  return run(cc);
}

fault::CampaignResult CampaignSession::run(
    const fault::CampaignConfig& config) {
  if (pm_->state_epoch != synced_epoch_) {
    session_.invalidate();
    synced_epoch_ = pm_->state_epoch;
  }
  return session_.run(config);
}

fault::CampaignResult campaign_at_rate(PreparedModel& pm,
                                       double bit_error_rate,
                                       const ExperimentScale& scale,
                                       std::uint64_t seed) {
  CampaignSession session(pm, scale);
  return session.run(bit_error_rate, seed);
}

double clean_subset_accuracy(PreparedModel& pm, const ExperimentScale& scale) {
  EvalConfig ec;
  ec.max_samples = scale.eval_samples;
  return evaluate_accuracy(*pm.model, *pm.test, ec);
}

std::string paper_label(core::Scheme scheme) {
  switch (scheme) {
    case core::Scheme::fitrelu:
      return "FitAct";
    case core::Scheme::clip_act:
      return "Clip-Act";
    case core::Scheme::ranger:
      return "Ranger";
    case core::Scheme::relu:
      return "Unprotected";
    case core::Scheme::fitrelu_naive:
      return "FitReLU-Naive";
  }
  return "?";
}

}  // namespace fitact::ev
