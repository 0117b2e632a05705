// The paper's subject: bounded activation functions.
//
// One module class implements the whole zoo behind a runtime-switchable
// scheme, so a trained network can be re-protected in place ("DNN
// architecture modification" in the FitAct workflow, paper Fig. 4):
//
//   scheme          bound extent          above-bound     trainable
//   -------------   -------------------   -------------   ---------
//   relu            (none)                -               -
//   clip_act        per layer (default)   -> 0            no   [GBReLU, Eq. 4]
//   ranger          per layer (default)   -> bound        no
//   fitrelu_naive   per neuron            -> 0            no   [Eq. 5]
//   fitrelu         per neuron            smooth -> 0     yes  [Eq. 6]
//
// Bound storage is materialised lazily on the first forward pass (the
// per-neuron extent depends on the activation-map shape, which the model
// does not know at construction time).
//
// A site holds configuration only, nothing a forward writes at serve time:
// a planned forward reads the site's scheme, bounds and geometry, and the
// clamp-event counts the serving fault detector thresholds belong to the
// nn::InferencePlan that produced them (InferencePlan::clamp_counts).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/op_kernels.h"
#include "nn/module.h"

namespace fitact::core {

enum class Scheme {
  relu,
  clip_act,
  ranger,
  fitrelu_naive,
  fitrelu,
};

enum class Granularity {
  per_layer,
  per_channel,
  per_neuron,
};

[[nodiscard]] std::string to_string(Scheme s);
[[nodiscard]] std::string to_string(Granularity g);

/// Per-site configuration shared by every activation in a model.
struct ActivationConfig {
  Scheme scheme = Scheme::relu;
  Granularity granularity = Granularity::per_neuron;
  float k = 8.0f;  ///< FitReLU steepness coefficient (paper: "empirically computed")
};

class BoundedActivation final : public nn::Module {
 public:
  explicit BoundedActivation(const ActivationConfig& config);

  Variable forward(const Variable& x) override;

  /// Records this site as a planned activation op (nn/plan.h). The op holds
  /// a const pointer back to this site and reads its scheme, bounds and
  /// steepness at execute time, so re-protection (set_scheme/set_bounds)
  /// stays visible to a compiled plan. Recording fails
  /// while profiling or with an input corruptor installed (plans are clean
  /// inference programs), and for a bounded scheme whose bounds were never
  /// initialised.
  nn::PlanValueId record(nn::PlanBuilder& builder,
                         nn::PlanValueId input) override;

  // -- scheme control ---------------------------------------------------
  [[nodiscard]] Scheme scheme() const noexcept { return config_.scheme; }
  void set_scheme(Scheme s) noexcept { config_.scheme = s; }
  [[nodiscard]] Granularity granularity() const noexcept {
    return config_.granularity;
  }
  void set_granularity(Granularity g) noexcept { config_.granularity = g; }
  [[nodiscard]] float steepness() const noexcept { return config_.k; }
  void set_steepness(float k) noexcept { config_.k = k; }

  // -- profiling ----------------------------------------------------------
  /// While enabled, forward() records the per-neuron maximum of the
  /// pre-activation input over everything it sees (and applies plain ReLU).
  void set_profiling(bool on) noexcept { profiling_ = on; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  /// Per-neuron maxima recorded so far; undefined before the first
  /// profiled forward.
  [[nodiscard]] const Tensor& profile_max() const { return profile_max_; }
  [[nodiscard]] bool has_profile() const noexcept {
    return profile_max_.defined();
  }

  // -- bounds ---------------------------------------------------------------
  /// Initialise bound storage from the recorded profile at the configured
  /// granularity (per-layer/channel bounds take the max over their group),
  /// scaled by `margin`. Requires a completed profiling pass.
  void init_bounds_from_profile(float margin = 1.0f);

  /// Directly set a per-layer bound (used by tests and the Fig. 1 sweep).
  void set_layer_bound(float bound);

  /// Install bound storage of arbitrary extent directly, bypassing the
  /// profile. Used when replicating a protected model (e.g. per-worker
  /// campaign replicas): the source site's bound values are copied in
  /// verbatim at whatever granularity they already have.
  void set_bounds(const Tensor& values, bool trainable);

  [[nodiscard]] bool has_bounds() const noexcept { return bounds_.defined(); }
  /// Trainable for Scheme::fitrelu; plain storage otherwise.
  [[nodiscard]] Variable& bounds() { return bounds_; }
  [[nodiscard]] const Variable& bounds() const { return bounds_; }
  [[nodiscard]] std::int64_t bound_count() const {
    return bounds_.defined() ? bounds_.numel() : 0;
  }

  /// Feature geometry captured from the first forward (or plan record):
  /// activations per sample, channels and spatial size, as
  /// ag::FeatureBroadcast::of derives them. feat is zero before any forward.
  /// A planned activation step reads its bound mapping from here.
  [[nodiscard]] const ag::FeatureBroadcast& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] std::int64_t feature_count() const noexcept {
    return geometry_.feat;
  }

  // -- transient activation faults ------------------------------------------
  /// Mutates a *copy* of the pre-activation input tensor. Used by the
  /// transient-fault ablation to model soft errors in computed activations
  /// (Ranger's original fault class) rather than in stored parameters.
  /// Ignored while profiling. See fault/transient.h for a standard
  /// implementation.
  using InputCorruptor = std::function<void(Tensor&)>;
  void set_input_corruptor(InputCorruptor corruptor) {
    corruptor_ = std::move(corruptor);
  }
  void clear_input_corruptor() { corruptor_ = nullptr; }
  [[nodiscard]] bool has_input_corruptor() const noexcept {
    return corruptor_ != nullptr;
  }

 private:
  void observe_geometry(const Shape& xs);
  void update_profile(const Tensor& x);

  ActivationConfig config_;
  InputCorruptor corruptor_;
  bool profiling_ = false;
  ag::FeatureBroadcast geometry_{};
  Tensor profile_max_;  // per-neuron, extent geometry_.feat
  Variable bounds_;     // extent per granularity
};

/// All BoundedActivation sites in a module tree, in registration order
/// (which matches forward order for the models in src/models).
[[nodiscard]] std::vector<std::shared_ptr<BoundedActivation>>
collect_activations(const nn::Module& root);

/// Total bound-parameter count across a model (Table I memory accounting).
[[nodiscard]] std::int64_t total_bound_count(const nn::Module& root);

}  // namespace fitact::core
