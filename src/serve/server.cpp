#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/tensor_ops.h"

namespace fitact::serve {

void ServerOptions::validate() const {
  if (lanes == 0) {
    throw std::invalid_argument("ServerOptions: at least one lane required");
  }
  if (max_batch <= 0) {
    throw std::invalid_argument("ServerOptions: max_batch must be positive");
  }
  if (batch_window.count() < 0) {
    throw std::invalid_argument(
        "ServerOptions: batch_window must be non-negative");
  }
  // Written so that NaN fails: a NaN threshold would never compare below
  // a batch's rate, so detection would be on but could never fire.
  if (detection && !(clamp_rate_threshold >= 0.0)) {
    throw std::invalid_argument(
        "ServerOptions: clamp_rate_threshold must be non-negative when "
        "detection is on (ev::make_server calibrates negative thresholds "
        "before construction)");
  }
}

InferenceServer::InferenceServer(const LaneFactory& factory,
                                 ServerOptions options)
    : options_(options) {
  if (!factory) {
    throw std::invalid_argument("InferenceServer: null lane factory");
  }
  options_.validate();
  lanes_.reserve(options_.lanes);
  for (std::size_t i = 0; i < options_.lanes; ++i) {
    auto state = std::make_unique<LaneState>();
    // No lane thread exists yet, but LaneState's members are guarded by the
    // lane mutex and this is not LaneState's own constructor, so take the
    // (uncontended) lock to keep the annotation contract unconditional.
    const ut::LockGuard lane_lock(state->mutex);
    state->lane = factory(i);
    const Lane& lane = state->lane;
    if (!lane.model || !lane.image || !lane.plan) {
      throw std::invalid_argument(
          "InferenceServer: lane factory returned a lane without a model, "
          "image or plan");
    }
    if (lane.plan->max_batch() < options_.max_batch) {
      throw std::invalid_argument(
          "InferenceServer: lane " + std::to_string(i) + "'s plan takes " +
          std::to_string(lane.plan->max_batch()) +
          " samples per batch, below max_batch " +
          std::to_string(options_.max_batch));
    }
    if (i == 0) {
      sample_shape_ = lane.plan->sample_shape();
    } else if (lane.plan->sample_shape() != sample_shape_) {
      throw std::invalid_argument(
          "InferenceServer: lane " + std::to_string(i) + "'s plan takes " +
          lane.plan->sample_shape().str() + " samples, lane 0's " +
          sample_shape_.str());
    }
    lanes_.push_back(std::move(state));
  }
  threads_.reserve(options_.lanes);
  try {
    for (std::size_t i = 0; i < options_.lanes; ++i) {
      threads_.emplace_back([this, i] { lane_loop(i); });
    }
  } catch (...) {
    // A lane thread failed to spawn (thread limit): shut down the ones
    // already running before rethrowing — destroying a joinable
    // std::thread would terminate the process.
    {
      const ut::LockGuard lock(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& t : threads_) t.join();
    throw;
  }
}

InferenceServer::~InferenceServer() {
  {
    const ut::LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<RequestResult> InferenceServer::submit(const Tensor& image) {
  if (!image.defined()) {
    throw std::invalid_argument("InferenceServer::submit: undefined tensor");
  }
  // Accept [C,H,W] or a leading singleton batch dim [1,C,H,W]; the lane
  // stacks samples along a fresh batch dimension.
  Shape sample = image.shape();
  if (sample.rank() == 4 && sample[0] == 1) {
    sample = Shape{sample[1], sample[2], sample[3]};
  }
  if (sample != sample_shape_) {
    throw std::invalid_argument(
        "InferenceServer::submit: expected a " + sample_shape_.str() +
        " sample, got " + image.shape().str());
  }
  // A Tensor copy shares storage, so take a deep copy: the caller may
  // overwrite or free its buffer as soon as submit returns.
  Request req;
  req.image = image.clone();
  std::future<RequestResult> future = req.promise.get_future();
  {
    const ut::LockGuard lock(queue_mutex_);
    if (stopping_) {
      throw std::runtime_error("InferenceServer::submit: server is stopping");
    }
    queue_.push_back(std::move(req));
    ++in_flight_;
  }
  {
    const ut::LockGuard lock(stats_mutex_);
    ++stats_.requests;
  }
  queue_cv_.notify_all();
  return future;
}

RequestResult InferenceServer::infer(const Tensor& image) {
  return submit(image).get();
}

void InferenceServer::drain() {
  const ut::LockGuard lock(queue_mutex_);
  while (in_flight_ != 0) idle_cv_.wait(queue_mutex_);
}

ServerStats InferenceServer::stats() const {
  const ut::LockGuard lock(stats_mutex_);
  return stats_;
}

void InferenceServer::with_lane(std::size_t index,
                                const std::function<void(Lane&)>& fn) {
  if (index >= lanes_.size()) {
    throw std::out_of_range("InferenceServer::with_lane: no lane " +
                            std::to_string(index));
  }
  LaneState& state = *lanes_[index];
  const ut::LockGuard lock(state.mutex);
  fn(state.lane);
}

void InferenceServer::lane_loop(std::size_t index) {
  for (;;) {
    std::vector<Request> batch;
    {
      const ut::LockGuard lock(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mutex_);
      if (queue_.empty()) return;  // stopping, and fully drained
      if (options_.batch_window.count() > 0 &&
          queue_.size() < static_cast<std::size_t>(options_.max_batch)) {
        // Found work but not a full batch: wait up to the batching window
        // for more arrivals, then take what's there.
        const auto deadline =
            std::chrono::steady_clock::now() + options_.batch_window;
        while (!stopping_ &&
               queue_.size() < static_cast<std::size_t>(options_.max_batch)) {
          if (queue_cv_.wait_until(queue_mutex_, deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      const std::size_t take = std::min(
          queue_.size(), static_cast<std::size_t>(options_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (batch.empty()) continue;
    process_batch(index, batch);
    {
      const ut::LockGuard lock(queue_mutex_);
      in_flight_ -= batch.size();
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void InferenceServer::process_batch(std::size_t index,
                                    std::vector<Request>& batch) {
  LaneState& state = *lanes_[index];
  const ut::LockGuard lane_lock(state.mutex);

  std::uint64_t batch_id = 0;
  {
    const ut::LockGuard lock(queue_mutex_);
    batch_id = next_batch_id_++;
  }

  std::size_t fulfilled = 0;
  try {
    const std::int64_t b = static_cast<std::int64_t>(batch.size());
    const std::int64_t sample_numel = sample_shape_.numel();
    nn::InferencePlan& plan = *state.lane.plan;
    float* staging = plan.input_view(b).data();
    for (std::int64_t i = 0; i < b; ++i) {
      std::memcpy(staging + i * sample_numel, batch[i].image.data(),
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
    }

    // Detection statistic: the plan's peak per-site clamp rate over its
    // last execute (nn::InferencePlan::peak_clamp_rate).
    const Tensor* logits = &plan.execute(b);
    const bool recovered =
        options_.detection &&
        plan.peak_clamp_rate() > options_.clamp_rate_threshold;
    if (recovered) {
      // Memory scrubbing: write the clean image back over the (presumed
      // faulty) live parameters, then re-run the batch on clean state. An
      // int8 plan's quantized weight bytes are deployed storage of their
      // own (fp32 scrubs don't reach them), so they get their own scrub.
      state.lane.image->restore();
      plan.restore_int8_weights();
      logits = &plan.execute(b);
    }
    const double rate = plan.peak_clamp_rate();
    const bool post_recovery_alarm =
        recovered && rate > options_.clamp_rate_threshold;

    {
      const ut::LockGuard lock(stats_mutex_);
      ++stats_.batches;
      stats_.forwards += recovered ? 2 : 1;
      stats_.detections += recovered ? 1 : 0;
      stats_.recoveries += recovered ? 1 : 0;
      stats_.post_recovery_alarms += post_recovery_alarm ? 1 : 0;
    }

    const std::int64_t classes = logits->numel() / b;
    const auto predicted = argmax_rows(*logits);
    for (std::int64_t i = 0; i < b; ++i) {
      RequestResult r;
      r.logits = Tensor(Shape{classes});
      std::memcpy(r.logits.data(), logits->data() + i * classes,
                  static_cast<std::size_t>(classes) * sizeof(float));
      r.predicted = predicted[static_cast<std::size_t>(i)];
      r.batch_id = batch_id;
      r.lane = index;
      r.batch_size = b;
      r.recovered = recovered;
      r.clamp_rate = rate;
      batch[static_cast<std::size_t>(i)].promise.set_value(std::move(r));
      ++fulfilled;
    }
  } catch (...) {
    // Never break a promise: forward or assembly failures surface on the
    // caller's future, and the lane keeps serving. Skip promises already
    // fulfilled (a failure mid-fulfillment-loop) — set_exception on a
    // satisfied promise would itself throw out of the lane thread.
    for (std::size_t i = fulfilled; i < batch.size(); ++i) {
      batch[i].promise.set_exception(std::current_exception());
    }
  }
}

}  // namespace fitact::serve
