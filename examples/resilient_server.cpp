// Walkthrough: standing up a resilient inference server.
//
// The FitAct pipeline protects a model with bounded activations so that
// parameter faults cannot propagate. This example shows the serving-side
// payoff: those same bounds double as an online fault detector. We train a
// small CNN, protect it, stand a micro-batched server up over it, serve
// clean traffic, then flip bits in a lane's live parameters and watch the
// server notice (clamp-rate spike), scrub the lane from its clean parameter
// image, and keep answering with clean outputs.
//
// Usage: resilient_server [--lanes 2] [--batch 4] [--requests 32]
// Exits 1 when a faulty-wave prediction differs from the clean wave's, or
// when lane 0 served part of the faulty wave and no batch recovered. With
// --lanes 1 every batch reaches the corrupted lane.
#include <cstdio>
#include <future>
#include <vector>

#include "eval/experiment.h"
#include "eval/serving.h"
#include "fault/injector.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const std::size_t lanes = cli.get_count("lanes", 2);
  const std::int64_t batch = cli.get_int("batch", 4);
  const std::int64_t requests = cli.get_int("requests", 32);
  ut::set_log_level(ut::LogLevel::warn);

  // 1. Train and protect a small model (clip-act bounds from profiling).
  std::printf("1. preparing a protected tinycnn ...\n");
  ev::ExperimentScale scale = ev::ExperimentScale::scaled();
  scale.train_size = 256;
  scale.test_size = 128;
  scale.train_epochs = 3;
  ev::PreparedModel pm = ev::prepare_model("tinycnn", 10, scale,
                                           "fitact_cache");
  (void)ev::protect_model(pm, core::Scheme::clip_act, scale);
  std::printf("   baseline accuracy %.1f%%\n", pm.baseline_accuracy * 100.0);

  // 2. Stand the server up: micro-batching across worker lanes, each lane
  //    an independent replica with a clean parameter image; the clamp-rate
  //    detection threshold is calibrated from clean test traffic.
  std::printf("2. starting the server: %zu lanes, batch %lld ...\n", lanes,
              static_cast<long long>(batch));
  ev::ServeOptions options;
  options.server.lanes = lanes;
  options.server.max_batch = batch;
  const auto server = ev::make_server(pm, options);
  std::printf("   clamp-rate threshold %.4f\n",
              server->options().clamp_rate_threshold);

  // 3. Clean traffic.
  std::vector<Tensor> samples;
  std::vector<std::int64_t> labels_scratch;
  for (std::int64_t i = 0; i < requests; ++i) {
    samples.push_back(pm.test->batch(i % pm.test->size(), 1,
                                     &labels_scratch));
  }
  std::vector<std::int64_t> clean_predictions;
  {
    std::vector<std::future<serve::RequestResult>> futures;
    for (const auto& s : samples) futures.push_back(server->submit(s));
    for (auto& f : futures) clean_predictions.push_back(f.get().predicted);
  }
  const serve::ServerStats clean = server->stats();
  std::printf("3. clean wave: %llu requests in %llu batches, "
              "%llu detections\n",
              static_cast<unsigned long long>(clean.requests),
              static_cast<unsigned long long>(clean.batches),
              static_cast<unsigned long long>(clean.detections));

  // 4. Corrupt lane 0's live parameters under the server's feet: 24 bit
  //    flips at integer bit 28 turn weights into ±2^12-scale outliers —
  //    exactly the excursions bounded activations were built to confine,
  //    and therefore exactly what the clamp counters see.
  std::printf("4. flipping 24 high bits in lane 0's live parameters ...\n");
  server->with_lane(0, [](serve::Lane& lane) {
    fault::Injector injector(*lane.image);
    ut::Rng rng(7);
    (void)injector.inject_exact_at_bit(24, 28, rng);
  });

  // 5. Serve the same traffic again. Any batch the faulty lane picks up
  //    trips the detector; the lane restores its clean image and re-runs,
  //    so every answer still matches the clean predictions.
  std::vector<std::future<serve::RequestResult>> futures;
  for (const auto& s : samples) futures.push_back(server->submit(s));
  std::int64_t mismatches = 0;
  bool saw_recovered = false;
  bool lane0_served = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::RequestResult r = futures[i].get();
    if (r.predicted != clean_predictions[i]) ++mismatches;
    saw_recovered = saw_recovered || r.recovered;
    lane0_served = lane0_served || r.lane == 0;
  }
  const serve::ServerStats after = server->stats();
  std::printf("5. faulty wave: %llu detections, %llu recoveries, "
              "%lld mismatched predictions%s\n",
              static_cast<unsigned long long>(after.detections),
              static_cast<unsigned long long>(after.recoveries),
              static_cast<long long>(mismatches),
              saw_recovered ? " (recovered batches served clean)" : "");
  if (mismatches != 0 || (lane0_served && !saw_recovered)) {
    std::fprintf(stderr, "FAILED: %s\n",
                 mismatches != 0
                     ? "the faulty wave's predictions differ from the clean "
                       "wave's"
                     : "lane 0 served corrupted batches without a recovery");
    return 1;
  }

  std::printf("\nThe protection layer is the detector: a saturated clamp at "
              "inference\ntime is the observable symptom of a parameter "
              "fault, so scrubbing the\nlane from its clean image the moment "
              "the clamp rate spikes keeps the\nserved answers "
              "bit-identical to the clean model's.\n");
  return 0;
}
