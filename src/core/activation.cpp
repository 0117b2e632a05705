#include "core/activation.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "autograd/ops.h"
#include "nn/plan.h"

namespace fitact::core {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::relu:
      return "relu";
    case Scheme::clip_act:
      return "clip_act";
    case Scheme::ranger:
      return "ranger";
    case Scheme::fitrelu_naive:
      return "fitrelu_naive";
    case Scheme::fitrelu:
      return "fitrelu";
  }
  return "?";
}

std::string to_string(Granularity g) {
  switch (g) {
    case Granularity::per_layer:
      return "per_layer";
    case Granularity::per_channel:
      return "per_channel";
    case Granularity::per_neuron:
      return "per_neuron";
  }
  return "?";
}

BoundedActivation::BoundedActivation(const ActivationConfig& config)
    : config_(config) {}

void BoundedActivation::observe_geometry(const Shape& xs) {
  const ag::FeatureBroadcast fb = ag::FeatureBroadcast::of(xs);
  if (geometry_.feat == 0) {
    geometry_ = fb;
  } else if (fb.feat != geometry_.feat || fb.channels != geometry_.channels) {
    throw std::logic_error(
        "BoundedActivation: input geometry changed between forwards (" +
        std::to_string(geometry_.feat) + " features in " +
        std::to_string(geometry_.channels) + " channels -> " +
        std::to_string(fb.feat) + " in " + std::to_string(fb.channels) +
        "); bounds require a fixed activation-map shape");
  }
}

void BoundedActivation::update_profile(const Tensor& x) {
  const std::int64_t feat = geometry_.feat;
  if (!profile_max_.defined()) {
    profile_max_ = Tensor::zeros(Shape{feat});
  }
  const std::int64_t batch = x.numel() / feat;
  const float* px = x.data();
  float* pm = profile_max_.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = px + b * feat;
    for (std::int64_t f = 0; f < feat; ++f) {
      if (row[f] > pm[f]) pm[f] = row[f];
    }
  }
}

void BoundedActivation::init_bounds_from_profile(float margin) {
  if (!profile_max_.defined()) {
    throw std::logic_error(
        "BoundedActivation: no profile recorded; run a profiling pass before "
        "init_bounds_from_profile");
  }
  const std::int64_t feat = geometry_.feat;
  std::int64_t extent = 0;
  switch (config_.granularity) {
    case Granularity::per_layer:
      extent = 1;
      break;
    case Granularity::per_channel:
      extent = geometry_.channels;
      break;
    case Granularity::per_neuron:
      extent = feat;
      break;
  }
  Tensor b = Tensor::zeros(Shape{extent});
  const float* pm = profile_max_.data();
  if (config_.granularity == Granularity::per_neuron) {
    for (std::int64_t f = 0; f < feat; ++f) b[f] = pm[f] * margin;
  } else if (config_.granularity == Granularity::per_channel) {
    for (std::int64_t f = 0; f < feat; ++f) {
      const std::int64_t c = f / geometry_.hw;
      b[c] = std::max(b[c], pm[f] * margin);
    }
  } else {
    float mx = 0.0f;
    for (std::int64_t f = 0; f < feat; ++f) mx = std::max(mx, pm[f]);
    b[0] = mx * margin;
  }

  // Reinitialising existing same-extent storage keeps its trainability
  // (post-training may have enabled gradients); fresh storage starts
  // non-trainable until post-training opts in.
  set_bounds(b, bounds_.defined() && bounds_.numel() == extent &&
                    bounds_.requires_grad());
}

void BoundedActivation::set_layer_bound(float bound) {
  config_.granularity = Granularity::per_layer;
  set_bounds(Tensor::full(Shape{1}, bound),
             bounds_.defined() && bounds_.numel() == 1 &&
                 bounds_.requires_grad());
}

void BoundedActivation::set_bounds(const Tensor& values, bool trainable) {
  if (bounds_.defined() && bounds_.numel() == values.numel()) {
    bounds_.value().copy_from(values);
    bounds_.set_requires_grad(trainable);
  } else {
    bounds_ = Variable(values.clone(), trainable);
    register_or_replace_parameter("lambda", bounds_);
  }
}

void BoundedActivation::add_clamp_counts(std::uint64_t events,
                                         std::uint64_t total) noexcept {
#ifndef NDEBUG
  // Single-writer enforcement (debug builds): overlapping deposits mean two
  // lanes share one model, which would silently corrupt or double-count the
  // detection statistic (see the clamp-counting comment in activation.h).
  // Sequential use from different threads (a lane migrating between
  // threads) is legitimate and passes.
  const bool was_busy = clamp_busy_.exchange(true, std::memory_order_acquire);
  assert(!was_busy &&
         "BoundedActivation: concurrent clamp-count deposits — counting "
         "must only be enabled on per-lane replicas, never a shared model");
  (void)was_busy;
#endif
  clamp_events_ += events;
  clamp_total_ += total;
#ifndef NDEBUG
  clamp_busy_.store(false, std::memory_order_release);
#endif
}

nn::PlanValueId BoundedActivation::record(nn::PlanBuilder& builder,
                                          nn::PlanValueId input) {
  if (profiling_) {
    builder.fail(
        "BoundedActivation is in profiling mode; finish profiling and "
        "install bounds before compiling a plan");
  }
  if (corruptor_) {
    builder.fail(
        "BoundedActivation has an input corruptor installed; plans are "
        "clean inference programs (transient-fault ablations run eagerly)");
  }
  if (config_.scheme != Scheme::relu && !bounds_.defined()) {
    builder.fail("BoundedActivation(" + to_string(config_.scheme) +
                 "): bounds not initialised — profile and "
                 "init_bounds_from_profile (or set_bounds) before compiling "
                 "a plan");
  }
  // Lock in the feature geometry exactly as an eager forward would (the
  // per-sample plan shape gains a batch dim of 1); the planned activation
  // step reads it from this site.
  const Shape& xs = builder.value_shape(input);
  std::vector<std::int64_t> dims{1};
  dims.insert(dims.end(), xs.dims().begin(), xs.dims().end());
  try {
    observe_geometry(Shape(std::move(dims)));
  } catch (const std::exception& e) {
    builder.fail(e.what());
  }
  return builder.activation(this, input);
}

Variable BoundedActivation::forward(const Variable& x) {
  observe_geometry(x.shape());
  if (profiling_) {
    update_profile(x.value());
    return ag::relu(x);
  }
  Variable input = x;
  if (corruptor_) {
    Tensor corrupted = x.value().clone();
    corruptor_(corrupted);
    input = Variable(std::move(corrupted), false);
  }
  if (config_.scheme != Scheme::relu && !bounds_.defined()) {
    throw std::logic_error("BoundedActivation(" + to_string(config_.scheme) +
                           "): bounds not initialised");
  }
  switch (config_.scheme) {
    case Scheme::relu:
      return ag::relu(input);
    case Scheme::clip_act:
    case Scheme::fitrelu_naive:
      return ag::clipped_relu(input, bounds_.value(), ag::ClipMode::zero_above);
    case Scheme::ranger:
      return ag::clipped_relu(input, bounds_.value(), ag::ClipMode::saturate);
    case Scheme::fitrelu:
      return ag::fitrelu(input, bounds_, config_.k);
  }
  throw std::logic_error("BoundedActivation: unknown scheme");
}

namespace {
void collect_impl(const nn::Module& m,
                  std::vector<std::shared_ptr<BoundedActivation>>& out) {
  for (const auto& [name, child] : m.children()) {
    if (auto act = std::dynamic_pointer_cast<BoundedActivation>(child)) {
      out.push_back(act);
    }
    collect_impl(*child, out);
  }
}
}  // namespace

std::vector<std::shared_ptr<BoundedActivation>> collect_activations(
    const nn::Module& root) {
  std::vector<std::shared_ptr<BoundedActivation>> out;
  collect_impl(root, out);
  return out;
}

std::int64_t total_bound_count(const nn::Module& root) {
  std::int64_t n = 0;
  for (const auto& act : collect_activations(root)) n += act->bound_count();
  return n;
}

void reset_clamp_counters(
    const std::vector<std::shared_ptr<BoundedActivation>>& sites) {
  for (const auto& site : sites) site->reset_clamp_counter();
}

double peak_site_clamp_rate(
    const std::vector<std::shared_ptr<BoundedActivation>>& sites) {
  double rate = 0.0;
  for (const auto& site : sites) {
    if (site->clamp_total() == 0) continue;
    rate = std::max(rate, static_cast<double>(site->clamp_events()) /
                              static_cast<double>(site->clamp_total()));
  }
  return rate;
}

}  // namespace fitact::core
