// Tests for the resilient inference serving subsystem (src/serve + the
// ev::make_server adapter): micro-batched outputs must be bit-identical to
// direct single-sample forwards for every lane count / batch size / arrival
// order, and the clamp-rate fault detector must catch injected parameter
// faults and serve recovered (clean) outputs — deterministically at lane
// counts 1/2/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "autograd/variable.h"
#include "eval/experiment.h"
#include "eval/serving.h"
#include "fault/injector.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "serve/server.h"
#include "util/rng.h"

namespace fitact::ev {
namespace {

ExperimentScale tiny_scale() {
  ExperimentScale scale = ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  scale.trials = 4;
  return scale;
}

PreparedModel prepared(std::uint64_t seed,
                       core::Scheme scheme = core::Scheme::clip_act) {
  const ExperimentScale scale = tiny_scale();
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", seed);
  (void)protect_model(pm, scheme, scale);
  return pm;
}

std::vector<Tensor> test_samples(const PreparedModel& pm, std::int64_t count) {
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(count));
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < count; ++i) {
    samples.push_back(pm.test->batch(i, 1, &labels));  // [1,3,32,32]
  }
  return samples;
}

/// Direct single-sample forwards through pm.model — the reference the
/// server must match bit-for-bit. Run it only after make_server has
/// quantisation-round-tripped pm.model.
std::vector<Tensor> reference_logits(const PreparedModel& pm,
                                     const std::vector<Tensor>& samples) {
  const NoGradGuard no_grad;
  pm.model->set_training(false);
  std::vector<Tensor> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.push_back(pm.model->forward(Variable(s)).value().clone());
  }
  return out;
}

void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const std::string& context) {
  ASSERT_EQ(got.numel(), want.numel()) << context;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << context << " logit " << j;
  }
}

/// A hand-assembled lane serving `model` through a plan compiled for
/// `sample_shape` and batches up to `max_batch` (no replica, no calibration).
serve::Lane planned_lane(const std::shared_ptr<nn::Module>& model,
                         const Shape& sample_shape, std::int64_t max_batch) {
  serve::Lane lane;
  lane.model = model;
  lane.image = std::make_shared<quant::ParamImage>(*model);
  lane.plan = nn::InferencePlan::compile(model, sample_shape, max_batch);
  return lane;
}

// Acceptance contract (a): server outputs are bit-identical to direct
// single-sample model->forward for every request, regardless of batch
// assembly, lane count, or arrival order.
TEST(Serve, BitIdenticalAcrossLanesBatchingAndArrivalOrder) {
  PreparedModel pm = prepared(29);
  const std::vector<Tensor> samples = test_samples(pm, 24);
  // One throwaway server applies the (idempotent) fixed-point round-trip to
  // pm.model, so the reference below sees the deployed parameter values.
  { const auto warm = make_server(pm); }
  const std::vector<Tensor> ref = reference_logits(pm, samples);

  for (const std::size_t lanes : {1u, 2u, 8u}) {
    for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{3},
                                     std::int64_t{8}}) {
      ServeOptions options;
      options.server.lanes = lanes;
      options.server.max_batch = batch;
      const auto server = make_server(pm, options);
      const std::string context = "lanes " + std::to_string(lanes) +
                                  " batch " + std::to_string(batch);

      // Shuffled arrival order, different per configuration.
      std::vector<std::size_t> order(samples.size());
      std::iota(order.begin(), order.end(), 0u);
      ut::Rng rng(lanes * 100 + static_cast<std::uint64_t>(batch));
      rng.shuffle(order);

      std::vector<std::future<serve::RequestResult>> futures(samples.size());
      for (const std::size_t i : order) {
        futures[i] = server->submit(samples[i]);
      }
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const serve::RequestResult r = futures[i].get();
        expect_bit_identical(r.logits, ref[i],
                             context + " request " + std::to_string(i));
        EXPECT_FALSE(r.recovered) << context;
        EXPECT_LT(r.lane, lanes) << context;
        EXPECT_GE(r.batch_size, 1) << context;
        EXPECT_LE(r.batch_size, batch) << context;
      }
      const serve::ServerStats stats = server->stats();
      EXPECT_EQ(stats.requests, samples.size()) << context;
      // Clean traffic must never trip the calibrated detector, for any
      // batch assembly (the threshold bounds every batch's rate by
      // construction — see ServeOptions::calibration_margin).
      EXPECT_EQ(stats.detections, 0u) << context;
      EXPECT_EQ(stats.recoveries, 0u) << context;
      EXPECT_GE(stats.batches,
                (samples.size() + static_cast<std::size_t>(batch) - 1) /
                    static_cast<std::size_t>(batch))
          << context;
    }
  }
}

// Acceptance contract (b): with faults injected into a lane's live
// parameters, the clamp-rate detector fires and post-recovery outputs match
// the clean model — deterministically at lane counts 1/2/8.
TEST(Serve, DetectsInjectedFaultsAndServesRecoveredOutputs) {
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    PreparedModel pm = prepared(31);
    ServeOptions options;
    options.server.lanes = lanes;
    options.server.max_batch = 4;
    const auto server = make_server(pm, options);
    const std::vector<Tensor> samples = test_samples(pm, 24);
    const std::vector<Tensor> ref = reference_logits(pm, samples);
    const std::string context = "lanes " + std::to_string(lanes);

    // Corrupt every lane's live parameters (not its clean image): 32
    // deterministic bit-28 flips turn weights into ±2^12-scale excursions,
    // which the bounded activations clamp — the observable symptom.
    for (std::size_t l = 0; l < lanes; ++l) {
      server->with_lane(l, [l](serve::Lane& lane) {
        fault::Injector injector(*lane.image);
        ut::Rng rng(900 + l);
        (void)injector.inject_exact_at_bit(32, 28, rng);
      });
    }

    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(samples.size());
    for (const auto& s : samples) futures.push_back(server->submit(s));
    std::size_t recovered_results = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const serve::RequestResult r = futures[i].get();
      // Whether this request's batch hit the faulty parameters or ran after
      // the lane was scrubbed, the answer must equal the clean model's.
      expect_bit_identical(r.logits, ref[i],
                           context + " request " + std::to_string(i));
      recovered_results += r.recovered ? 1u : 0u;
    }
    const serve::ServerStats stats = server->stats();
    EXPECT_GE(stats.detections, 1u) << context;
    EXPECT_GE(stats.recoveries, 1u) << context;
    EXPECT_EQ(stats.post_recovery_alarms, 0u) << context;
    EXPECT_GE(recovered_results, 1u) << context;

    if (lanes == 1) {
      // The single lane is clean after its first recovery: a second wave of
      // traffic must add no detections.
      const std::uint64_t detections_before = stats.detections;
      for (const auto& s : samples) (void)server->infer(s);
      EXPECT_EQ(server->stats().detections, detections_before);
    }
  }
}

// Without detection, the same injected faults must visibly corrupt outputs
// — guards the recovery test against passing vacuously (i.e. proves the
// injected faults matter and the detector is doing real work).
TEST(Serve, WithoutDetectionFaultsCorruptOutputs) {
  PreparedModel pm = prepared(31);
  ServeOptions options;
  options.server.lanes = 1;
  options.server.max_batch = 4;
  options.server.detection = false;
  const auto server = make_server(pm, options);
  const std::vector<Tensor> samples = test_samples(pm, 24);
  const std::vector<Tensor> ref = reference_logits(pm, samples);

  server->with_lane(0, [](serve::Lane& lane) {
    fault::Injector injector(*lane.image);
    ut::Rng rng(900);
    (void)injector.inject_exact_at_bit(32, 28, rng);
  });

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const serve::RequestResult r = server->infer(samples[i]);
    for (std::int64_t j = 0; j < r.logits.numel(); ++j) {
      if (r.logits[j] != ref[i][j]) {
        ++mismatches;
        break;
      }
    }
  }
  EXPECT_GT(mismatches, 0u);
  EXPECT_EQ(server->stats().detections, 0u);
}

// A batch still above threshold after its scrub is served from the scrubbed
// parameters: the lane scrubs and re-runs once, and that re-run's answer
// stands. Bounds lowered to 1e-3 make clean traffic clamp at every site, so
// under threshold 0 every batch alarms both before and after its scrub.
TEST(Serve, PersistentAlarmScrubsOnceThenServesClean) {
  PreparedModel pm = prepared(29);
  for (const auto& site : core::collect_activations(*pm.model)) {
    site->set_layer_bound(1e-3f);
  }
  pm.touch();
  const std::vector<Tensor> samples = test_samples(pm, 8);

  ServeOptions options;
  options.server.lanes = 1;
  options.server.max_batch = 1;
  options.server.detection = false;
  const auto reference = make_server(pm, options);
  options.server.detection = true;
  options.server.clamp_rate_threshold = 0.0;
  const auto server = make_server(pm, options);
  ASSERT_TRUE(server->options().detection);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string context = "request " + std::to_string(i);
    const serve::RequestResult r = server->infer(samples[i]);
    EXPECT_TRUE(r.recovered) << context;
    expect_bit_identical(r.logits, reference->infer(samples[i]).logits,
                         context);
  }
  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.detections, 8u);
  EXPECT_EQ(stats.recoveries, 8u);
  EXPECT_EQ(stats.post_recovery_alarms, 8u);
  EXPECT_EQ(stats.forwards, 16u);
}

TEST(Serve, BatchingWindowServesPartialBatches) {
  PreparedModel pm = prepared(29);
  ServeOptions options;
  options.server.lanes = 2;
  options.server.max_batch = 8;
  options.server.batch_window = std::chrono::microseconds(2000);
  const auto server = make_server(pm, options);
  const std::vector<Tensor> samples = test_samples(pm, 5);
  const std::vector<Tensor> ref = reference_logits(pm, samples);

  // Fewer requests than max_batch: the window must expire and the partial
  // batch must still be served (and still bit-identically).
  std::vector<std::future<serve::RequestResult>> futures;
  for (const auto& s : samples) futures.push_back(server->submit(s));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_bit_identical(futures[i].get().logits, ref[i],
                         "window request " + std::to_string(i));
  }
  server->drain();
  EXPECT_EQ(server->stats().requests, samples.size());
}

// submit copies the sample: the caller may overwrite its tensor as soon as
// submit returns, even while the request still waits in the queue. Holding
// lane 0 keeps the only lane from assembling the batch until after the
// overwrite.
TEST(Serve, SubmitCopiesTheSample) {
  PreparedModel pm = prepared(29);
  ServeOptions options;
  options.server.lanes = 1;
  const auto server = make_server(pm, options);
  const std::vector<Tensor> samples = test_samples(pm, 1);

  Tensor sample = samples[0].clone();
  std::future<serve::RequestResult> future;
  server->with_lane(0, [&](serve::Lane&) {
    future = server->submit(sample);
    sample.fill(1e3f);
  });
  expect_bit_identical(future.get().logits, server->infer(samples[0]).logits,
                       "sample overwritten after submit");
}

TEST(Serve, RejectsMalformedRequestsAndConfigs) {
  PreparedModel pm = prepared(29);
  const auto server = make_server(pm);

  EXPECT_THROW((void)server->submit(Tensor()), std::invalid_argument);
  EXPECT_THROW((void)server->submit(Tensor::zeros(Shape{10})),
               std::invalid_argument);
  // The lane plans fix the sample shape before any request arrives, so even
  // a first request of another shape is refused.
  EXPECT_THROW((void)server->submit(Tensor::zeros(Shape{3, 16, 16})),
               std::invalid_argument);
  EXPECT_THROW((void)server->submit(Tensor::zeros(Shape{2, 3, 32, 32})),
               std::invalid_argument);
  EXPECT_THROW(server->with_lane(99, [](serve::Lane&) {}), std::out_of_range);

  serve::ServerOptions bad;
  bad.lanes = 0;
  EXPECT_THROW(serve::InferenceServer(
                   [](std::size_t) { return serve::Lane{}; }, bad),
               std::invalid_argument);
  serve::ServerOptions bad_batch;
  bad_batch.max_batch = 0;
  EXPECT_THROW(serve::InferenceServer(
                   [](std::size_t) { return serve::Lane{}; }, bad_batch),
               std::invalid_argument);
  EXPECT_THROW(serve::InferenceServer(serve::LaneFactory{},
                                      serve::ServerOptions{}),
               std::invalid_argument);
  // A factory handing back an empty lane is rejected too.
  EXPECT_THROW(serve::InferenceServer(
                   [](std::size_t) { return serve::Lane{}; },
                   serve::ServerOptions{}),
               std::invalid_argument);

  // Every lane serves through its plan, so a lane the plan cannot serve is
  // a construction error: no plan, a plan compiled for fewer samples than
  // max_batch, or a plan whose sample shape differs from lane 0's.
  pm.model->set_training(false);
  serve::ServerOptions options;
  options.max_batch = 4;
  options.detection = false;
  EXPECT_NO_THROW(serve::InferenceServer(
      [&](std::size_t) {
        return planned_lane(pm.model, Shape{3, 32, 32}, 4);
      },
      options));
  EXPECT_THROW(serve::InferenceServer(
                   [&](std::size_t) {
                     serve::Lane lane = planned_lane(pm.model,
                                                     Shape{3, 32, 32}, 4);
                     lane.plan.reset();
                     return lane;
                   },
                   options),
               std::invalid_argument);
  EXPECT_THROW(serve::InferenceServer(
                   [&](std::size_t) {
                     return planned_lane(pm.model, Shape{3, 32, 32}, 2);
                   },
                   options),
               std::invalid_argument);
  // A conv-only model records at any spatial size.
  ut::Rng rng(5);
  auto conv = std::make_shared<nn::Sequential>();
  conv->add(std::make_shared<nn::Conv2d>(3, 4, 3, 1, 1, true, rng));
  options.lanes = 2;
  EXPECT_THROW(serve::InferenceServer(
                   [&](std::size_t index) {
                     return planned_lane(
                         conv, index == 0 ? Shape{3, 8, 8} : Shape{3, 4, 4},
                         4);
                   },
                   options),
               std::invalid_argument);

  // make_server compiles every lane's plan for the test split's sample
  // shape, so a prepared model without a test split cannot be served.
  pm.test.reset();
  ServeOptions no_split;
  no_split.server.clamp_rate_threshold = 0.05;  // no calibration traffic
  EXPECT_THROW((void)make_server(pm, no_split), std::invalid_argument);

  // Both accepted forms of the plans' shape are served.
  (void)server->infer(Tensor::zeros(Shape{3, 32, 32}));
  (void)server->infer(Tensor::zeros(Shape{1, 3, 32, 32}));
  EXPECT_EQ(server->stats().requests, 2u);
}

TEST(Serve, CalibrationMeasuresCleanPeakRate) {
  PreparedModel pm = prepared(29);
  // Round-trip once so the measurement sees deployed parameter values.
  { const auto warm = make_server(pm); }
  const double peak = peak_clean_clamp_rate(pm, 24);
  EXPECT_GE(peak, 0.0);
  EXPECT_LT(peak, 0.5);  // clean traffic must not clamp half its activations
  // Deterministic: same model, same samples, same rate.
  EXPECT_EQ(peak, peak_clean_clamp_rate(pm, 24));
}

// Calibration thresholds the statistic lanes serve: one lane serving one
// sample per batch reports each sample's own peak site clamp rate, so the
// largest over the first 24 samples equals the calibrated peak over them
// bit for bit, and sample 0's equals the one-sample calibration. The
// threshold 1.0 keeps detection on without ever firing (no rate exceeds
// 1). clip_act's per-layer bounds count in the clipped_relu kernel,
// fitrelu's per-neuron bounds in the fitrelu kernel.
TEST(Serve, CalibratedPeakIsTheServedStatistic) {
  for (const core::Scheme scheme :
       {core::Scheme::clip_act, core::Scheme::fitrelu}) {
    PreparedModel pm = prepared(29, scheme);
    ServeOptions options;
    options.server.lanes = 1;
    options.server.max_batch = 1;
    options.server.detection = true;
    options.server.clamp_rate_threshold = 1.0;
    const auto server = make_server(pm, options);
    const std::string context = core::to_string(scheme);
    ASSERT_TRUE(server->options().detection) << context;

    const std::vector<Tensor> samples = test_samples(pm, 24);
    std::vector<double> served;
    served.reserve(samples.size());
    for (const auto& s : samples) served.push_back(server->infer(s).clamp_rate);
    const double served_peak = *std::max_element(served.begin(), served.end());
    EXPECT_GT(served_peak, 0.0) << context << ": some clean sample clamps";
    EXPECT_EQ(served_peak, peak_clean_clamp_rate(pm, 24)) << context;
    EXPECT_EQ(served.front(), peak_clean_clamp_rate(pm, 1)) << context;
    EXPECT_EQ(server->stats().detections, 0u) << context;
  }
}

// A sample budget above the test split is a clamp to the split size, never
// a silent substitution; a non-positive budget is a configuration error
// that must be rejected, not defaulted around.
TEST(Serve, CalibrationSampleBudgetIsValidatedAndClamped) {
  PreparedModel pm = prepared(29);
  { const auto warm = make_server(pm); }
  EXPECT_THROW((void)peak_clean_clamp_rate(pm, 0), std::invalid_argument);
  EXPECT_THROW((void)peak_clean_clamp_rate(pm, -5), std::invalid_argument);
  // 10'000 requested, 48 available: identical to measuring the full split.
  EXPECT_EQ(peak_clean_clamp_rate(pm, 10'000),
            peak_clean_clamp_rate(pm, pm.test->size()));

  ServeOptions bad;
  bad.calibration_samples = 0;
  EXPECT_THROW(make_server(pm, bad), std::invalid_argument);
  bad.calibration_samples = -1;
  EXPECT_THROW(make_server(pm, bad), std::invalid_argument);
}

// NaN calibration knobs are configuration errors: a NaN margin or floor
// would calibrate the threshold to NaN, and a NaN threshold never compares
// below a batch's rate, so detection would be on but could never fire.
TEST(ServeOptions, ValidateRejectsNanKnobs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ServeOptions good;
  EXPECT_NO_THROW(good.validate());
  ServeOptions o = good;
  o.calibration_margin = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = good;
  o.calibration_floor = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = good;
  o.server.clamp_rate_threshold = nan;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

// An unprotected model has no bounds, so its clamp rate is identically
// zero and a detector calibrated on it could never fire. make_server must
// disable detection (visibly, in options()) instead of serving behind an
// armed-looking flag.
TEST(Serve, DetectionDisabledWhenNoSiteHasBounds) {
  const ExperimentScale scale = tiny_scale();
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", 37);
  // No protect_model: every site is still plain ReLU with no bounds.
  ServeOptions options;
  options.server.detection = true;
  const auto server = make_server(pm, options);
  EXPECT_FALSE(server->options().detection);
  // The server still serves; the flag is the only thing that changed.
  (void)server->infer(Tensor::zeros(Shape{3, 32, 32}));

  // With bounds installed, the same configuration keeps detection on.
  PreparedModel protected_pm = prepared(37);
  const auto armed = make_server(protected_pm, options);
  EXPECT_TRUE(armed->options().detection);
}

}  // namespace
}  // namespace fitact::ev
