// Shared experiment driver for the bench harnesses: dataset selection (real
// CIFAR binaries when present, synthetic otherwise), cached stage-1 model
// training, protection (profiling + scheme application + FitAct
// post-training), and fault campaigns over a rate grid.
//
// Scale: the paper's evaluation ran full-width models on a GPU; the default
// `ExperimentScale::scaled()` shrinks widths, dataset sizes, trial counts,
// and evaluation subsets so the complete bench suite finishes on a 2-core
// CPU container. `ExperimentScale::full()` restores paper-scale settings.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/post_training.h"
#include "core/protection.h"
#include "data/dataset.h"
#include "eval/clean_prefix.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "fault/campaign.h"
#include "models/model_config.h"
#include "nn/module.h"

namespace fitact::ev {

/// The paper's fault-rate grid (Figs. 5 and 6).
[[nodiscard]] std::vector<double> paper_fault_rates();

struct ExperimentScale {
  float width_alexnet = 0.25f;
  float width_vgg16 = 0.125f;
  float width_resnet50 = 0.125f;
  std::int64_t train_size = 1024;
  std::int64_t test_size = 512;
  std::int64_t train_epochs = 6;
  std::int64_t train_batch = 32;
  std::int64_t profile_samples = 512;
  std::int64_t eval_samples = 64;  ///< per campaign trial
  std::int64_t trials = 5;         ///< campaign trials per (rate, scheme)
  /// Worker lanes for fault campaigns (fault::CampaignConfig::threads):
  /// 1 = serial, 0 = one lane per hardware thread. Each extra lane
  /// evaluates trials on its own replica of the protected model; results
  /// are bit-identical at every setting. Lanes run their kernels inline,
  /// so intermediate values cap total concurrency at the lane count — use
  /// 0 to saturate a multi-core host (see CampaignConfig::threads).
  std::size_t campaign_threads = 1;
  core::PostTrainConfig post;      ///< FitAct stage-2 settings

  [[nodiscard]] static ExperimentScale scaled();
  [[nodiscard]] static ExperimentScale full();
  [[nodiscard]] float width_for(const std::string& model_name) const;
};

/// Open train/test splits: real CIFAR if the binaries exist under
/// $FITACT_DATA_DIR (default "./data"), synthetic otherwise.
[[nodiscard]] std::shared_ptr<data::Dataset> open_dataset(
    std::int64_t num_classes, bool train, std::int64_t size,
    std::uint64_t seed);

struct PreparedModel {
  std::string model_name;
  std::int64_t num_classes = 10;
  /// The exact configuration the model was built with; campaign workers use
  /// it to stamp out architecturally identical replicas.
  models::ModelConfig model_config;
  std::shared_ptr<nn::Module> model;
  std::shared_ptr<data::Dataset> train;
  std::shared_ptr<data::Dataset> test;
  double baseline_accuracy = 0.0;  ///< clean accuracy with plain ReLU
  double train_time_s = 0.0;       ///< stage-1 wall time (0 on cache hit)
  bool from_cache = false;
  bool profiled = false;
  /// Monotonic counter of model-state changes, used by CampaignSession to
  /// decide when its cached lanes must be rebuilt from `model`.
  /// protect_model bumps it automatically; code that mutates the model
  /// directly (core::apply_protection, core::post_train_bounds, manual
  /// parameter edits) must call touch() afterwards.
  std::uint64_t state_epoch = 0;

  /// Record that `model` changed outside protect_model, so sessions rebuild
  /// their lanes.
  void touch() noexcept { ++state_epoch; }
};

/// Build (or load from `cache_dir`) a stage-1-trained model with plain ReLU
/// activations. The cache key covers architecture, classes, width, dataset,
/// and training settings.
[[nodiscard]] PreparedModel prepare_model(const std::string& model_name,
                                          std::int64_t num_classes,
                                          const ExperimentScale& scale,
                                          const std::string& cache_dir,
                                          std::uint64_t seed = 42);

struct ProtectReport {
  core::Scheme scheme = core::Scheme::relu;
  double clean_accuracy = 0.0;  ///< after protection (and post-training)
  bool post_trained = false;
  core::PostTrainReport post;  ///< valid when post_trained
};

/// Profile (once) and protect the prepared model in place. For
/// Scheme::fitrelu the FitAct post-training stage runs as well unless
/// `skip_post_training` is set.
ProtectReport protect_model(PreparedModel& pm, core::Scheme scheme,
                            const ExperimentScale& scale,
                            bool skip_post_training = false);

/// Architecturally identical, value-identical copy of the prepared model in
/// its current (possibly protected) state, in eval mode. Campaign worker
/// lanes each get one so trials can run concurrently. Built with
/// ModelConfig::skip_init (the random init would be overwritten by
/// nn::copy_state anyway).
[[nodiscard]] std::shared_ptr<nn::Module> replicate_model(
    const PreparedModel& pm);

/// One lane of make_campaign_worker_factory; each worker's keepalive holds
/// its CampaignLane.
struct CampaignLane {
  std::shared_ptr<nn::Module> model;  ///< pm.model on lane 0, else a replica
  std::unique_ptr<quant::ParamImage> image;
  std::unique_ptr<fault::Injector> injector;
  /// The factory's clean prefix when the lane was built.
  std::shared_ptr<const CleanPrefix> prefix;

  /// Top-1 under the lane's current faults: what the worker's evaluate
  /// returns.
  [[nodiscard]] double top1() const;
};

/// Campaign worker factory over the prepared model: lane 0 injects into
/// pm.model itself (and leaves it restored), every other lane gets its own
/// replica + parameter image + injector; all lanes evaluate accuracy on
/// pm.test under `ec`. The evaluated subset is materialised once, here, and
/// shared read-only by every lane and trial. Trials resume past their clean
/// prefix (eval/clean_prefix.h): building lane 0 (first, or again after the
/// source changed) restores pm.model to its clean image and forwards the
/// subset once, and every lane built after it copies that prefix; a trial
/// then forwards only from the deepest cached cut before its lowest changed
/// word, and a trial that changed no word forwards nothing. Results equal
/// full forwards bit for bit. `pm` must outlive the campaign run, and the
/// lanes' activation sites must forward deterministically (no input
/// corruptor installed).
[[nodiscard]] fault::WorkerFactory make_campaign_worker_factory(
    PreparedModel& pm, const EvalConfig& ec);

/// Persistent campaign engine over a prepared model: keeps the worker-lane
/// replicas (models, parameter images, injectors) alive across an entire
/// rate grid instead of rebuilding them for every rate. The lanes are
/// rebuilt from `pm.model` only when `pm.state_epoch` moves — protect_model
/// bumps it; call pm.touch() after mutating the model directly. Campaign
/// results are byte-identical to fresh-replica campaign_at_rate calls at
/// every thread count.
///
/// `pm` must outlive the session; `scale` fixes trials / eval samples /
/// lanes for every run.
class CampaignSession {
 public:
  CampaignSession(PreparedModel& pm, const ExperimentScale& scale);

  /// Campaign at one bit-error rate (the campaign_at_rate contract).
  [[nodiscard]] fault::CampaignResult run(double bit_error_rate,
                                          std::uint64_t seed);

  /// Full-control overload for drivers that set their own fault model.
  /// `config.threads` is honoured as given.
  [[nodiscard]] fault::CampaignResult run(const fault::CampaignConfig& config);

  /// Replica lanes currently cached (0 before the first run).
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return session_.lane_count();
  }

 private:
  PreparedModel* pm_;
  std::int64_t trials_;
  std::size_t threads_;
  fault::CampaignSession session_;
  std::uint64_t synced_epoch_;
};

/// Run a fault campaign on the (already protected) model at one rate,
/// fanned out over `scale.campaign_threads` worker lanes. One-shot: builds
/// the worker lanes, runs, and tears them down. Sweeps over several rates
/// should hold a CampaignSession instead, which caches the lanes across
/// calls.
[[nodiscard]] fault::CampaignResult campaign_at_rate(
    PreparedModel& pm, double bit_error_rate, const ExperimentScale& scale,
    std::uint64_t seed);

/// Clean accuracy of the current (protected) model on the campaign subset.
[[nodiscard]] double clean_subset_accuracy(PreparedModel& pm,
                                           const ExperimentScale& scale);

/// Human-readable scheme labels matching the paper's legends.
[[nodiscard]] std::string paper_label(core::Scheme scheme);

/// Ratio of full-width to scaled-width parameter counts for a model.
///
/// The bit error rate itself is scale-invariant (it fixes the *fraction* of
/// corrupted parameters, which is what drives accuracy degradation), so the
/// fig5/fig6 benches inject at the paper's rates unmodified by default.
/// This factor is exposed for sensitivity studies via their --rate-scale
/// option: multiplying by it reproduces an "equal absolute flip count"
/// mapping instead, which concentrates the same number of flips in a much
/// smaller network and is correspondingly more destructive.
[[nodiscard]] double full_scale_rate_factor(const std::string& model_name,
                                            std::int64_t num_classes,
                                            const ExperimentScale& scale);

}  // namespace fitact::ev
