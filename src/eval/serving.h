// Adapter from the experiment layer to the serving subsystem: stands an
// serve::InferenceServer up from a PreparedModel, reusing the campaign
// engine's replica machinery (ev::replicate_model = skip-init make_model +
// core::replicate_protection + nn::copy_state) for the lanes and
// calibrating the clamp-rate fault-detection threshold from clean traffic.
#pragma once

#include <cstdint>
#include <memory>

#include "eval/experiment.h"
#include "serve/server.h"

namespace fitact::ev {

struct ServeOptions {
  /// Server shape (lanes, batch size, window, detection threshold,
  /// precision). A negative clamp_rate_threshold means "calibrate from clean
  /// traffic" (the default here, overriding the ServerOptions default).
  serve::ServerOptions server = [] {
    serve::ServerOptions c;
    c.clamp_rate_threshold = -1.0;
    return c;
  }();
  /// Clean test samples used to calibrate the detection threshold.
  std::int64_t calibration_samples = 64;
  /// Threshold = max(peak clean per-sample clamp rate * margin, floor).
  /// The peak *per-sample* statistic bounds every possible batch's
  /// statistic: a batch's per-site rate is the mean of its samples'
  /// per-site rates (every sample contributes the same activation count to
  /// a site), so the batch's peak site rate cannot exceed the peak over
  /// its samples. The calibrated detector is therefore false-positive-free
  /// on the calibration set for any batch assembly.
  double calibration_margin = 3.0;
  double calibration_floor = 1e-3;

  /// Validates the embedded server shape (serve::ServerOptions::validate)
  /// plus the calibration knobs: calibration_samples must be positive,
  /// margin and floor non-negative. make_server calls this first, so every
  /// invalid combination surfaces through the same std::invalid_argument
  /// path instead of being silently patched by driver defaults.
  void validate() const;
};

/// Peak per-sample, per-site clamp rate of pm.model over the first
/// `samples` test samples (clean traffic) — the detection statistic
/// serve::InferenceServer thresholds, counted the way lanes count it: each
/// sample runs alone through an fp32 batch-1 nn::InferencePlan over a
/// replica (replicate_model), and the plan's peak_clamp_rate() is read
/// after each. pm.model is left untouched. `samples` must be
/// positive (throws std::invalid_argument otherwise; ServeOptions::validate()
/// rejects the value before it gets here) and is clamped to the test split
/// size. Throws std::invalid_argument when pm has no model or an empty test
/// split, and nn::PlanError when the model cannot be recorded.
[[nodiscard]] double peak_clean_clamp_rate(const PreparedModel& pm,
                                           std::int64_t samples);

/// Stand up a resilient inference server over the prepared (protected)
/// model:
///   1. quantisation-round-trips pm.model's parameters once (deployment
///      stores parameters in Q1.15.16; this also makes every later lane
///      scrub value-stable, so recovered lanes match pm.model bit-for-bit)
///      and bumps pm.state_epoch;
///   2. calibrates the clamp-rate threshold from clean test traffic when
///      options ask for it (threshold < 0), through peak_clean_clamp_rate's
///      fp32 plan whatever the lanes' precision;
///   3. builds `lanes` independent replicas, each with its own clean
///      ParamImage;
///   4. compiles a fused nn::InferencePlan per lane for the test split's
///      sample shape, so lanes serve through recorded zero-allocation
///      execution.
/// Throws std::invalid_argument when pm has no model or no test split, and
/// nn::PlanError when the model cannot be recorded (or, at int8, when no op
/// quantizes). pm must outlive the returned server. Detection requires a
/// bounded scheme: when no activation site has bounds installed the clamp
/// rate is identically zero, so rather than serving with a detector that
/// can never fire (a threshold calibrated to the floor, "on" but blind),
/// make_server logs a warning naming the condition and disables detection
/// for this server.
[[nodiscard]] std::unique_ptr<serve::InferenceServer> make_server(
    PreparedModel& pm, const ServeOptions& options = {});

}  // namespace fitact::ev
