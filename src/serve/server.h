// Resilient online inference serving.
//
// InferenceServer accepts single-sample requests, micro-batches them
// (configurable maximum batch size and batching window), and fans the
// batches out across worker lanes. Each lane owns an independent replica of
// the served model plus a clean quant::ParamImage of its parameters — the
// same lane anatomy as the fault-campaign engine (fault::CampaignWorker),
// assembled here into an online serving path.
//
// Fault detection exploits the dual of the paper's core observation:
// bounded activations confine fault propagation, so a *saturated clamp at
// inference time* is an observable symptom of an underlying parameter
// fault. Every lane forward counts clamp events (BoundedActivation's
// opt-in counter) per activation site; when the peak per-site clamp rate
// of a batch crosses the configured threshold, the lane declares a fault,
// scrubs its parameters by restoring the clean image, and re-runs the
// batch once. (Per-site, not pooled: a saturating fault in a 64-neuron head
// would otherwise drown in the tens of thousands of activations the early
// conv maps contribute.) The re-run's answer stands even if its rate is
// still above threshold: a lane's parameters change only under its lane
// mutex, which the lane holds for the whole batch, so a second re-run would
// repeat the first bit for bit. A persistent alarm on clean parameters
// means the threshold is miscalibrated for this traffic and is counted as
// a post-recovery alarm. Clean traffic clamps at a low, calibratable
// baseline rate (see ev::make_server), so detection is free: the
// protection layer doubles as the detector.
//
// Every lane serves through a recorded nn::InferencePlan: a batch is staged
// into the plan's arena and executed with zero steady-state allocations.
// The plans fix the server's sample shape; a lane without a plan, or one
// whose plan cannot take the server's batches or shape, is refused at
// construction.
//
// Locking discipline (machine-checked under clang -Wthread-safety): the
// request queue and shutdown flag live under queue_mutex_; aggregate
// counters under stats_mutex_; and each lane's model/image/plan/sites under
// that lane's own mutex (held for the whole batch, and by with_lane). Lock
// order: a lane mutex is acquired before queue_mutex_/stats_mutex_ and the
// two global mutexes are never held together.
//
// Output contract: per-request results are bit-identical to running the
// sample alone through the lane model — every op computes each batch row
// with a fixed per-element accumulation order independent of the batch
// assembly, and plans match the eager forward bit for bit — so
// micro-batching, lane count, and arrival order never change what a client
// receives. serve_test enforces this.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/activation.h"
#include "nn/module.h"
#include "nn/plan.h"
#include "quant/param_image.h"
#include "tensor/tensor.h"
#include "util/thread_annotations.h"

namespace fitact::serve {

/// Everything a server's shape is made of, validated in one place:
/// InferenceServer's constructor calls validate(), so every invalid
/// combination surfaces through the same std::invalid_argument path no
/// matter which layer (examples, benches, ev::make_server) assembled the
/// options.
struct ServerOptions {
  /// Worker lanes; each lane runs its own replica on its own thread.
  std::size_t lanes = 1;
  /// Requests per micro-batch (upper bound).
  std::int64_t max_batch = 8;
  /// How long a lane waits for more requests after finding the queue
  /// non-empty but below max_batch. 0 = greedy: take whatever is queued
  /// immediately (deterministic; what the tests use).
  std::chrono::microseconds batch_window{0};
  /// Clamp-rate fault detection on lane forwards.
  bool detection = true;
  /// Peak per-site clamp rate (one site's clamp events / activations
  /// inspected, maximised over the model's activation sites) above which a
  /// lane declares a parameter fault. ev::make_server can calibrate this
  /// from clean traffic (it treats a negative value as "calibrate"; by the
  /// time options reach InferenceServer a detection threshold must be
  /// non-negative).
  double clamp_rate_threshold = 0.05;
  /// Arithmetic the lane plans execute with (nn::Precision). int8 serves
  /// block-quantized weights through int8 GEMM, dequantize and the shared
  /// clamp — quantized at make_server time from the FitAct clamp bounds
  /// (they fix the activation scales; see nn::Precision for the fault
  /// model).
  nn::Precision precision = nn::Precision::fp32;

  /// Throws std::invalid_argument on the first invalid field. The single
  /// error path for server shape problems.
  void validate() const;
};

struct RequestResult {
  Tensor logits;               ///< [num_classes] row for this request
  std::int64_t predicted = -1; ///< argmax of logits
  std::uint64_t batch_id = 0;  ///< which micro-batch served it
  std::size_t lane = 0;
  std::int64_t batch_size = 0; ///< how many requests shared the batch
  bool recovered = false;      ///< batch was re-run after a detection
  /// Peak per-site clamp rate of the forward that produced this result.
  double clamp_rate = 0.0;
};

struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t forwards = 0;    ///< lane forwards, including re-runs
  std::uint64_t detections = 0;  ///< clamp-rate threshold crossings
  std::uint64_t recoveries = 0;  ///< clean-image scrubs triggered
  /// Batches still above threshold after their scrub and re-run (served
  /// from the scrubbed parameters regardless).
  std::uint64_t post_recovery_alarms = 0;
};

/// Everything one serving lane is made of. The server collects the model's
/// BoundedActivation sites itself, and enables clamp counting on them when
/// detection is configured.
struct Lane {
  std::shared_ptr<nn::Module> model;
  std::shared_ptr<quant::ParamImage> image;
  /// Recorded execution plan for this lane's model (ev::make_server compiles
  /// one per lane); every batch runs through it. It must have been compiled
  /// from this lane's model (it shares the model's parameter storage and
  /// activation sites), with max_batch() at least ServerOptions::max_batch
  /// and the same sample shape as every other lane's plan.
  std::shared_ptr<nn::InferencePlan> plan;
};

/// Builds lane `index` (0-based). Every lane must return an independent
/// replica (unlike the campaign engine there is no serial lane-0 path — all
/// lanes serve concurrently). See ev::make_server for the standard factory
/// over a PreparedModel.
using LaneFactory = std::function<Lane(std::size_t index)>;

class InferenceServer {
 public:
  /// Builds every lane on the calling thread, then starts the lane threads.
  /// Throws std::invalid_argument for a null factory, options that fail
  /// ServerOptions::validate(), or a factory that returns a lane without a
  /// model, image or plan, whose plan's max_batch() is below
  /// options.max_batch, or whose plan's sample shape differs from lane 0's.
  InferenceServer(const LaneFactory& factory, ServerOptions options);

  /// Stops accepting work, drains every queued request, and joins the lane
  /// threads. Pending promises are always fulfilled.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one sample ([C,H,W], or [1,C,H,W]). The sample is copied
  /// before submit returns, so the caller may reuse or free its buffer (a
  /// Tensor::view's storage included) right away. Throws
  /// std::invalid_argument when the sample's shape is not the lane plans'
  /// sample shape, and std::runtime_error after shutdown began.
  [[nodiscard]] std::future<RequestResult> submit(const Tensor& image);

  /// Synchronous convenience wrapper: submit + wait.
  [[nodiscard]] RequestResult infer(const Tensor& image);

  /// Block until every submitted request has been answered.
  void drain();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Exclusive access to a lane while it is between batches — the hook
  /// fault-injection benches and tests use to corrupt a lane's parameters
  /// under the server's feet (via a fault::Injector over `*lane.image`, or
  /// through nn::InferencePlan::int8_weight_span for int8 lanes). Blocks
  /// until the lane finishes its current batch.
  void with_lane(std::size_t index, const std::function<void(Lane&)>& fn);

 private:
  struct Request {
    Tensor image;
    std::promise<RequestResult> promise;
  };
  struct LaneState {
    ut::Mutex mutex;  ///< held while the lane processes a batch
    Lane lane FITACT_GUARDED_BY(mutex);
    /// The lane model's activation sites: the detector's clamp counters.
    std::vector<std::shared_ptr<core::BoundedActivation>> sites
        FITACT_GUARDED_BY(mutex);
  };

  void lane_loop(std::size_t index);
  void process_batch(std::size_t index, std::vector<Request>& batch);

  ServerOptions options_;  ///< immutable after construction
  Shape sample_shape_;     ///< the lane plans' [C,H,W]; immutable
  std::vector<std::unique_ptr<LaneState>> lanes_;  ///< vector itself immutable
  std::vector<std::thread> threads_;

  mutable ut::Mutex queue_mutex_;
  ut::CondVar queue_cv_;
  ut::CondVar idle_cv_;
  std::deque<Request> queue_ FITACT_GUARDED_BY(queue_mutex_);
  /// Submitted, not yet answered.
  std::uint64_t in_flight_ FITACT_GUARDED_BY(queue_mutex_) = 0;
  std::uint64_t next_batch_id_ FITACT_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ FITACT_GUARDED_BY(queue_mutex_) = false;

  mutable ut::Mutex stats_mutex_;
  ServerStats stats_ FITACT_GUARDED_BY(stats_mutex_);
};

}  // namespace fitact::serve
