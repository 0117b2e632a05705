// Multi-client hammer for the resilient serving subsystem, written for the
// TSan CI lane (labels: serve + stress): N client threads submit
// concurrently while a chaos thread injects parameter faults into live
// lanes through with_lane, exercising every submit / detect / scrub /
// drain / shutdown interleaving the server supports. Functional assertions
// are kept to what concurrency cannot perturb (every promise fulfilled,
// shapes valid, stats consistent, deterministic recovery in a quiesced
// tail phase); the interleavings themselves are the test — under
// -fsanitize=thread any locking mistake in the server or thread pool is
// the failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "eval/experiment.h"
#include "eval/serving.h"
#include "fault/injector.h"
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

PreparedModel prepared(std::uint64_t seed) {
  const ExperimentScale scale = tiny_scale();
  PreparedModel pm = prepare_model("tinycnn", 10, scale, "", seed);
  (void)protect_model(pm, core::Scheme::clip_act, scale);
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

// Clients submitting concurrently with periodic live-parameter fault
// injection and recovery. The hammer phase asserts only
// interleaving-independent properties; the quiesced tail phase (chaos
// stopped, every lane freshly corrupted once) re-asserts the serve_test
// recovery contract — detection fires and every answer matches the clean
// model bit-for-bit — to prove the hammering never wedged a lane or
// corrupted a clean image.
TEST(ServeHammer, ConcurrentSubmitWithInjectionAndRecovery) {
  PreparedModel pm = prepared(37);
  ServeOptions options;
  options.server.lanes = 3;
  options.server.max_batch = 4;
  // A non-zero window exercises the deadline-wait path of lane_loop under
  // contention, not just the greedy path the serve suite covers.
  options.server.batch_window = std::chrono::microseconds(200);
  const auto server = make_server(pm, options);
  const std::vector<Tensor> samples = test_samples(pm, 12);
  const std::vector<Tensor> ref = reference_logits(pm, samples);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 24;

  std::atomic<bool> chaos_stop{false};
  std::thread chaos([&] {
    ut::Rng rng(4242);
    std::size_t lane = 0;
    while (!chaos_stop.load(std::memory_order_relaxed)) {
      server->with_lane(lane % options.server.lanes, [&](serve::Lane& target) {
        fault::Injector injector(*target.image);
        (void)injector.inject_exact_at_bit(8, 28, rng);
      });
      ++lane;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<serve::RequestResult>>> futures(
      kClients);
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kRequestsPerClient);
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        futures[c].push_back(
            server->submit(samples[(c + i) % samples.size()]));
        if (i % 8 == 7) server->drain();  // drain under concurrent submits
      }
    });
  }
  for (auto& t : clients) t.join();
  chaos_stop.store(true, std::memory_order_relaxed);
  chaos.join();
  server->drain();

  const std::int64_t classes = ref.front().numel();
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < futures[c].size(); ++i) {
      const serve::RequestResult r = futures[c][i].get();
      const std::string context =
          "client " + std::to_string(c) + " request " + std::to_string(i);
      EXPECT_EQ(r.logits.numel(), classes) << context;
      EXPECT_GE(r.predicted, 0) << context;
      EXPECT_LT(r.predicted, classes) << context;
      EXPECT_LT(r.lane, options.server.lanes) << context;
      EXPECT_GE(r.batch_size, 1) << context;
      EXPECT_LE(r.batch_size, options.server.max_batch) << context;
    }
  }
  const serve::ServerStats mid = server->stats();
  EXPECT_EQ(mid.requests, kClients * kRequestsPerClient);
  EXPECT_GE(mid.forwards, mid.batches);
  EXPECT_GE(mid.forwards, mid.batches + mid.recoveries);

  // Quiesced tail: scrub every lane back to its clean image, corrupt each
  // one deterministically, and require the detector to recover every
  // answer to the clean model's bits — the serve_test contract, now after
  // thousands of contended interleavings.
  for (std::size_t l = 0; l < options.server.lanes; ++l) {
    server->with_lane(l, [](serve::Lane& lane) { lane.image->restore(); });
    server->with_lane(l, [l](serve::Lane& lane) {
      fault::Injector injector(*lane.image);
      ut::Rng rng(900 + l);
      // 96 flips (vs serve_test's 32): lane-to-batch pairing depends on
      // timing here, so the corruption must trip the detector for *every*
      // (fault set, batch) combination, not just one curated pairing.
      (void)injector.inject_exact_at_bit(96, 28, rng);
    });
  }
  std::vector<std::future<serve::RequestResult>> tail;
  tail.reserve(samples.size());
  for (const auto& s : samples) tail.push_back(server->submit(s));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_bit_identical(tail[i].get().logits, ref[i],
                         "tail request " + std::to_string(i));
  }
  const serve::ServerStats end = server->stats();
  EXPECT_GE(end.detections, mid.detections + 1);
  EXPECT_GE(end.recoveries, mid.recoveries + 1);
}

// Shutdown ordering: the destructor must drain every request queued before
// it ran — even requests still sitting in a partially filled batching
// window — and fulfill every promise with the clean model's answer.
TEST(ServeHammer, DestructorDrainsConcurrentlySubmittedRequests) {
  PreparedModel pm = prepared(41);
  const std::vector<Tensor> samples = test_samples(pm, 8);
  { const auto warm = make_server(pm); }  // round-trip pm for the reference
  const std::vector<Tensor> ref = reference_logits(pm, samples);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 12;
  std::vector<std::vector<std::future<serve::RequestResult>>> futures(
      kClients);
  {
    ServeOptions options;
    options.server.lanes = 2;
    options.server.max_batch = 8;
    // A long window makes it likely the destructor runs while batches are
    // still being assembled, which is exactly the ordering under test.
    options.server.batch_window = std::chrono::milliseconds(5);
    const auto server = make_server(pm, options);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        futures[c].reserve(kRequestsPerClient);
        for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
          futures[c].push_back(
              server->submit(samples[(c * 3 + i) % samples.size()]));
        }
      });
    }
    for (auto& t : clients) t.join();
    // Destroy with requests still queued/window-pending: ~InferenceServer
    // must drain, not drop.
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < futures[c].size(); ++i) {
      const serve::RequestResult r = futures[c][i].get();
      expect_bit_identical(
          r.logits, ref[(c * 3 + i) % ref.size()],
          "client " + std::to_string(c) + " request " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace fitact::ev
