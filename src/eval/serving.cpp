#include "eval/serving.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/plan.h"
#include "util/log.h"

namespace fitact::ev {
namespace {

/// Per-sample [C, H, W] shape of a split, which lane plans are compiled for.
Shape sample_shape_of(const data::Dataset& split) {
  const Shape first = split.batch(0, 1, nullptr).shape();
  return Shape{first[1], first[2], first[3]};
}

}  // namespace

void ServeOptions::validate() const {
  // A negative clamp_rate_threshold is this layer's "calibrate from clean
  // traffic" sentinel — make_server resolves it to a concrete non-negative
  // value before the server is constructed — so it is exempt from
  // ServerOptions' non-negativity check at this stage.
  serve::ServerOptions shape = server;
  if (shape.detection && shape.clamp_rate_threshold < 0.0) {
    shape.clamp_rate_threshold = 0.0;
  }
  shape.validate();
  if (calibration_samples <= 0) {
    throw std::invalid_argument(
        "ServeOptions: calibration_samples must be positive, got " +
        std::to_string(calibration_samples));
  }
  // The knob checks are written so that NaN fails: a NaN margin or floor
  // would calibrate the threshold to NaN, which never fires.
  if (!(calibration_margin >= 0.0)) {
    throw std::invalid_argument(
        "ServeOptions: calibration_margin must be non-negative, got " +
        std::to_string(calibration_margin));
  }
  if (!(calibration_floor >= 0.0)) {
    throw std::invalid_argument(
        "ServeOptions: calibration_floor must be non-negative, got " +
        std::to_string(calibration_floor));
  }
}

double peak_clean_clamp_rate(const PreparedModel& pm, std::int64_t samples) {
  if (!pm.model || !pm.test || pm.test->size() == 0) {
    throw std::invalid_argument(
        "peak_clean_clamp_rate: prepared model has no model or test split");
  }
  if (samples <= 0) {
    throw std::invalid_argument(
        "peak_clean_clamp_rate: samples must be positive, got " +
        std::to_string(samples));
  }
  // Count where lanes count: the activation steps of an fp32 batch-1 plan,
  // so the threshold is calibrated on the statistic the lanes serve. The
  // plan is compiled over a replica, so pm.model's training mode stays
  // untouched.
  const auto replica = replicate_model(pm);
  const auto plan =
      nn::InferencePlan::compile(replica, sample_shape_of(*pm.test), 1);
  float* const input = plan->input_view(1).data();

  // Rejecting samples <= 0 above means this is a pure clamp to the split
  // size, never a silent substitution of a driver default.
  const std::int64_t total = std::min<std::int64_t>(samples, pm.test->size());
  double peak = 0.0;
  for (std::int64_t i = 0; i < total; ++i) {
    const Tensor x = pm.test->batch(i, 1, nullptr);
    std::memcpy(input, x.data(),
                static_cast<std::size_t>(x.numel()) * sizeof(float));
    (void)plan->execute(1);
    peak = std::max(peak, plan->peak_clamp_rate());
  }
  return peak;
}

std::unique_ptr<serve::InferenceServer> make_server(
    PreparedModel& pm, const ServeOptions& options) {
  if (!pm.model) {
    throw std::invalid_argument("make_server: prepared model has no model");
  }
  // Every lane serves through a plan, which needs the per-sample input
  // shape; the test split provides it.
  if (!pm.test || pm.test->size() == 0) {
    throw std::invalid_argument(
        "make_server: prepared model has no test split to provide the lane "
        "plans' sample shape");
  }
  options.validate();
  // Deployment stores parameters in fixed point: round-trip the source once
  // so pm.model itself holds the Q1.15.16-representable values the lanes
  // will serve. Lane images snapshot these exact values, so a recovery
  // restore is value-stable and recovered lanes stay bit-identical to
  // pm.model. (The round-trip is idempotent — the campaign session layer
  // already relies on that.)
  {
    quant::ParamImage image(*pm.model);
    image.restore();
    pm.touch();
  }

  serve::ServerOptions config = options.server;
  const auto source_sites = core::collect_activations(*pm.model);
  const bool any_bounds =
      std::any_of(source_sites.begin(), source_sites.end(),
                  [](const auto& s) {
                    return s->scheme() != core::Scheme::relu && s->has_bounds();
                  });
  if (config.detection && !any_bounds) {
    // A detector over a clamp rate that is identically zero would calibrate
    // to the floor and then never fire — "on" but blind. Disabling it makes
    // the server's true capability visible in its options() instead of
    // silently serving unprotected traffic behind an armed-looking flag.
    ut::log_warn() << "make_server: no activation site has bounds installed "
                      "(any_bounds == false); the clamp rate is identically "
                      "zero, so clamp-rate fault detection is disabled for "
                      "this server";
    config.detection = false;
    if (config.clamp_rate_threshold < 0.0) config.clamp_rate_threshold = 0.0;
  }
  if (config.detection && config.clamp_rate_threshold < 0.0) {
    const double peak =
        peak_clean_clamp_rate(pm, options.calibration_samples);
    config.clamp_rate_threshold =
        std::max(peak * options.calibration_margin, options.calibration_floor);
    ut::log_info() << "make_server: calibrated clamp-rate threshold "
                   << config.clamp_rate_threshold << " (peak clean rate "
                   << peak << ")";
  }

  const Shape sample_shape = sample_shape_of(*pm.test);

  // Int8 input calibration: the first layer's activation scale comes from
  // the max-abs of real input samples (deeper layers derive theirs from the
  // clamp bounds). Reuses the detection-calibration sample budget.
  float input_range = -1.0f;
  if (config.precision == nn::Precision::int8) {
    const std::int64_t total =
        std::min<std::int64_t>(options.calibration_samples, pm.test->size());
    for (std::int64_t i = 0; i < total; ++i) {
      const Tensor x = pm.test->batch(i, 1, nullptr);
      const float* p = x.data();
      for (std::int64_t j = 0; j < x.numel(); ++j) {
        input_range = std::max(input_range, std::abs(p[j]));
      }
    }
    ut::log_info() << "make_server: int8 input range calibrated to "
                   << input_range << " over " << total << " samples";
  }

  // The factory assembles the lane anatomy; each lane's plan counts its
  // clamps. A model that cannot be recorded fails here with the PlanError
  // naming its module.
  serve::LaneFactory factory = [&pm, &config, &sample_shape,
                                input_range](std::size_t index) {
    serve::Lane lane;
    lane.model = replicate_model(pm);
    lane.image = std::make_shared<quant::ParamImage>(*lane.model);
    // Recording requires eval mode (BatchNorm's plan op is the eval-mode
    // affine map).
    lane.model->set_training(false);
    lane.plan =
        nn::InferencePlan::compile(lane.model, sample_shape, config.max_batch,
                                   /*fuse=*/true, config.precision,
                                   input_range);
    if (index == 0) {
      ut::log_info() << "make_server: compiled lane plan ("
                     << lane.plan->op_count() << " ops, "
                     << lane.plan->fused_op_count() << " fused, "
                     << lane.plan->int8_op_count() << " int8, arena "
                     << lane.plan->arena_bytes() / 1024 << " KiB)";
    }
    return lane;
  };
  return std::make_unique<serve::InferenceServer>(factory, config);
}

}  // namespace fitact::ev
