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
#pragma once

#include <atomic>
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
  /// a pointer back to this site and reads scheme/bounds/steepness/counting
  /// state at execute time, so re-protection (set_scheme/set_bounds) and
  /// clamp-counting toggles stay visible to a compiled plan. Recording fails
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
  void clear_profile() { profile_max_ = Tensor(); }

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

  // -- clamp-event counting -------------------------------------------------
  /// Opt-in counter of activations that hit their bound. While enabled, this
  /// site's activation step inside an nn::InferencePlan adds the number of
  /// pre-activation values above their bound (or NaN) to clamp_events() and
  /// the number of values inspected to clamp_total(); eager forward() never
  /// counts. A saturated clamp is an observable symptom of an underlying
  /// parameter fault (the bounded activation is *doing its job* confining
  /// the excursion), so the ratio events/total is an online fault detector —
  /// see serve::InferenceServer, and ev::peak_clean_clamp_rate for its
  /// calibration. Counting never changes the computed output. Counters are
  /// plain (not atomic): a model instance must be driven from one thread at
  /// a time, which is already the Module contract. The single-writer rule is
  /// what lets the serve detector trust the counters — if one model were
  /// ever shared by two lanes, concurrent executions would corrupt (or
  /// double-count) the per-batch rates and the detector would silently
  /// mis-fire. Debug builds enforce it: add_clamp_counts asserts that no two
  /// deposits overlap (see clamp_busy_ below), so a shared model trips an
  /// assert instead of corrupting detection. Enable counting only on
  /// per-lane replicas, never on a model other threads can reach.
  void set_clamp_counting(bool on) noexcept { clamp_counting_ = on; }
  [[nodiscard]] bool clamp_counting() const noexcept { return clamp_counting_; }
  /// Activations observed above their bound (or NaN) since the last reset.
  [[nodiscard]] std::uint64_t clamp_events() const noexcept {
    return clamp_events_;
  }
  /// Activations inspected since the last reset (0 while the site has no
  /// bounds: an unbounded site cannot clamp, so it contributes to neither
  /// numerator nor denominator of a model-wide clamp rate).
  [[nodiscard]] std::uint64_t clamp_total() const noexcept {
    return clamp_total_;
  }
  void reset_clamp_counter() noexcept {
    clamp_events_ = 0;
    clamp_total_ = 0;
  }

  /// Fold externally counted clamp statistics into this site's counters.
  /// Planned execution fuses the event count into the activation kernel's
  /// pass over the data (autograd/op_kernels.h) and deposits it here, under
  /// the single-writer contract above.
  void add_clamp_counts(std::uint64_t events, std::uint64_t total) noexcept;

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
  bool clamp_counting_ = false;
  std::uint64_t clamp_events_ = 0;
  std::uint64_t clamp_total_ = 0;
  /// Debug-build detector for the single-writer contract above: set for the
  /// duration of each add_clamp_counts; a second thread finding it set means
  /// the model is shared across lanes. Atomic so the check itself is not a
  /// data race under TSan; it carries no synchronisation duty beyond that.
  std::atomic<bool> clamp_busy_{false};
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

/// Zero every site's clamp counters (start of a counted forward).
void reset_clamp_counters(
    const std::vector<std::shared_ptr<BoundedActivation>>& sites);

/// The clamp-based fault-detection statistic: the maximum over sites of
/// clamp_events() / clamp_total(), from the counters as they stand (sites
/// that inspected nothing are skipped; 0 when nothing was inspected).
/// serve::InferenceServer thresholds it per batch and
/// ev::peak_clean_clamp_rate calibrates against it per sample — one
/// definition so the calibrated threshold and the served statistic cannot
/// drift apart.
[[nodiscard]] double peak_site_clamp_rate(
    const std::vector<std::shared_ptr<BoundedActivation>>& sites);

}  // namespace fitact::core
