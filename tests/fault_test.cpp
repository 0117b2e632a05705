// Tests for the fault-injection substrate: statistical properties of the
// flip sampler, injection/restore mechanics, and campaign behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "fault/campaign.h"
#include "fault/injector.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "quant/fixed_point.h"
#include "util/rng.h"

namespace fitact::fault {
namespace {

std::shared_ptr<nn::Sequential> small_net(std::uint64_t seed = 1) {
  ut::Rng rng(seed);
  auto net = std::make_shared<nn::Sequential>();
  net->add(std::make_shared<nn::Linear>(64, 32, true, rng));
  net->add(std::make_shared<nn::Linear>(32, 8, true, rng));
  return net;
}

TEST(Injector, RestoreReturnsToQuantisedClean) {
  auto net = small_net();
  quant::ParamImage img(*net);
  // Clean reference after the quantisation round-trip.
  img.restore();
  std::vector<float> clean;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) clean.push_back(v);
  }
  Injector inj(img);
  ut::Rng rng(5);
  inj.inject_exact(50, rng);
  inj.restore();
  std::size_t i = 0;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) {
      EXPECT_EQ(v, clean[i++]);
    }
  }
}

TEST(Injector, ExactFlipCountChangesAtMostThatManyWords) {
  auto net = small_net();
  quant::ParamImage img(*net);
  img.restore();
  std::vector<float> clean;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) clean.push_back(v);
  }
  Injector inj(img);
  ut::Rng rng(6);
  inj.inject_exact(10, rng);
  std::size_t changed = 0;
  std::size_t i = 0;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) {
      if (v != clean[i++]) ++changed;
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_LE(changed, 10u);
}

TEST(Injector, ZeroRateInjectsNothing) {
  auto net = small_net();
  quant::ParamImage img(*net);
  Injector inj(img);
  ut::Rng rng(7);
  const InjectionRecord rec = inj.inject(0.0, rng);
  EXPECT_EQ(rec.fault_events, 0u);
}

TEST(Injector, FlipCountConcentratesAroundExpectation) {
  // Property: mean flips over many trials ~ bits * rate.
  auto net = small_net();
  quant::ParamImage img(*net);
  Injector inj(img);
  const double rate = 1e-3;
  const double expected =
      static_cast<double>(inj.bit_count()) * rate;  // ~107 for this net
  ut::Rng rng(8);
  double total = 0.0;
  constexpr int trials = 300;
  for (int t = 0; t < trials; ++t) {
    total += static_cast<double>(inj.inject(rate, rng).fault_events);
    inj.restore();
  }
  const double mean = total / trials;
  EXPECT_NEAR(mean, expected, expected * 0.1);
}

TEST(Injector, HighRateCorruptsManyParameters) {
  auto net = small_net();
  quant::ParamImage img(*net);
  img.restore();
  std::vector<float> clean;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) clean.push_back(v);
  }
  Injector inj(img);
  ut::Rng rng(9);
  inj.inject(0.01, rng);  // 1% of bits
  std::size_t changed = 0;
  std::size_t i = 0;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) {
      if (v != clean[i++]) ++changed;
    }
  }
  // With 32 bits/word and 1% BER, ~27% of words are hit.
  EXPECT_GT(changed, clean.size() / 10);
}

TEST(Injector, DeterministicGivenSeed) {
  auto net_a = small_net();
  auto net_b = small_net();
  quant::ParamImage img_a(*net_a);
  quant::ParamImage img_b(*net_b);
  Injector inj_a(img_a);
  Injector inj_b(img_b);
  ut::Rng rng_a(11);
  ut::Rng rng_b(11);
  inj_a.inject(1e-3, rng_a);
  inj_b.inject(1e-3, rng_b);
  const auto pa = net_a->named_parameters();
  const auto pb = net_b->named_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].var.numel(); ++j) {
      EXPECT_EQ(pa[i].var.value()[j], pb[i].var.value()[j]);
    }
  }
}

// The oracle side of the sparse-injector test: one fault event applied to
// one word, as FaultModel defines it.
std::int32_t apply_event(std::int32_t w, int bit, const FaultModel& model) {
  const auto u = static_cast<std::uint32_t>(w);
  switch (model.type) {
    case FaultType::bit_flip:
      return quant::flip_bit(w, bit);
    case FaultType::stuck_at_one:
      return static_cast<std::int32_t>(u | (1u << bit));
    case FaultType::stuck_at_zero:
      return static_cast<std::int32_t>(u & ~(1u << bit));
    case FaultType::word_burst: {
      std::uint32_t mask = 0;
      for (int b = bit; b < std::min(32, bit + model.burst_length); ++b) {
        mask |= 1u << b;
      }
      return static_cast<std::int32_t>(u ^ mask);
    }
  }
  return w;
}

void expect_same_parameters(const nn::Module& a, const nn::Module& b,
                            const std::string& context) {
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].var.numel(), pb[i].var.numel());
    EXPECT_EQ(std::memcmp(pa[i].var.value().data(), pb[i].var.value().data(),
                          static_cast<std::size_t>(pa[i].var.numel()) *
                              sizeof(float)),
              0)
        << context << ", " << pa[i].name;
  }
}

// The injector writes only the words a trial changes and rewrites only
// those on restore. After every call the parameters must equal, bitwise, a
// full write_back of the same events applied to a copy of the clean words
// (replayed from a copy of the RNG) into an identical twin model: for every
// fault type and draw, with several events on one word, over a filtered
// image, across a refresh() that changed the clean image, and when a trial
// starts without the previous one restored.
TEST(Injector, SparseWritesMatchFullWriteBack) {
  const quant::ParamImage::NameFilter second_layer =
      [](const std::string& name) { return name.rfind("1.", 0) == 0; };
  for (const bool filtered : {false, true}) {
    const auto net = small_net(3);
    const auto twin = small_net(3);
    quant::ParamImage image(*net, false, filtered ? second_layer : nullptr);
    quant::ParamImage twin_image(*twin, false,
                                 filtered ? second_layer : nullptr);
    Injector inj(image);
    ut::Rng rng(11);
    bool shared_word = false;

    enum class Draw { rate, exact, exact_at_bit };
    struct Case {
      Draw draw;
      FaultType type;
      int bit_lo, bit_hi;
    };
    const std::vector<Case> cases = {
        {Draw::rate, FaultType::bit_flip, 0, 31},
        {Draw::rate, FaultType::stuck_at_one, 8, 30},
        {Draw::rate, FaultType::stuck_at_zero, 0, 23},
        {Draw::rate, FaultType::word_burst, 2, 31},
        {Draw::exact, FaultType::bit_flip, 0, 31},
        {Draw::exact_at_bit, FaultType::bit_flip, 28, 28},
    };
    for (int round = 0; round < 3; ++round) {
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const Case& tc = cases[c];
        const std::string context = std::string(filtered ? "filtered" : "full") +
                                    " image, round " + std::to_string(round) +
                                    ", case " + std::to_string(c);
        FaultModel model;
        model.type = tc.type;
        model.bit_error_rate = 3e-3;
        model.burst_length = 5;
        model.bit_lo = tc.bit_lo;
        model.bit_hi = tc.bit_hi;

        // Oracle: replay the draw on a copy of the clean words.
        ut::Rng replay = rng;
        std::vector<std::int32_t> words = image.clean_words();
        std::map<std::uint64_t, int> events_per_word;
        const auto event = [&](std::uint64_t word, int bit) {
          words[word] = apply_event(words[word], bit, model);
          ++events_per_word[word];
        };
        InjectionRecord rec;
        std::uint64_t events = 0;
        if (tc.draw == Draw::rate) {
          const auto width = static_cast<std::uint64_t>(model.range_width());
          const std::uint64_t eligible = words.size() * width;
          events = replay.binomial(eligible, model.bit_error_rate);
          for (const auto pos : replay.sample_distinct(eligible, events)) {
            event(pos / width, model.bit_lo + static_cast<int>(pos % width));
          }
          rec = inj.inject(model, rng);
        } else if (tc.draw == Draw::exact) {
          events = 120;
          for (const auto pos :
               replay.sample_distinct(words.size() * 32, events)) {
            event(pos / 32, static_cast<int>(pos % 32));
          }
          rec = inj.inject_exact(events, rng);
        } else {
          events = 40;
          for (const auto word : replay.sample_distinct(words.size(), events)) {
            event(word, tc.bit_lo);
          }
          rec = inj.inject_exact_at_bit(events, tc.bit_lo, rng);
        }
        EXPECT_EQ(rng.next_u64(), replay.next_u64()) << context;
        for (const auto& [word, n] : events_per_word) shared_word |= n > 1;

        std::uint64_t lowest = 0;
        while (lowest < words.size() && words[lowest] == image.clean_words()[lowest]) {
          ++lowest;
        }
        EXPECT_EQ(rec.fault_events, events) << context;
        EXPECT_EQ(inj.lowest_word(), lowest) << context;
        twin_image.write_back(words);
        expect_same_parameters(*net, *twin, "after inject, " + context);

        // Every other trial leaves its faults in place for the next inject
        // to undo; the rest restore, and the last case of a round edits a
        // parameter off the fixed-point grid and re-snapshots both images.
        if (c % 2 == 0) continue;
        inj.restore();
        twin_image.restore();
        EXPECT_EQ(inj.lowest_word(), image.word_count()) << context;
        expect_same_parameters(*net, *twin, "after restore, " + context);
        if (c + 1 == cases.size()) {
          const float edit = 0.1f + 0.01f * static_cast<float>(round);
          for (nn::Module* m : {static_cast<nn::Module*>(net.get()),
                                static_cast<nn::Module*>(twin.get())}) {
            auto params = m->named_parameters();
            params.back().var.value()[0] = edit;
          }
          image.refresh();
          twin_image.refresh();
        }
      }
    }
    EXPECT_TRUE(shared_word) << "no trial put two events on one word";
  }
}

// lowest_drawn_word is the campaign engine's hand-out key. Over the paper's
// rate grid on an image of vgg16's campaign size (~263k words), drawn from
// copies of 50 trial streams, it must name the lowest word a bit-flip
// inject from the same stream changes, word_count() for a draw without
// events, and a lower bound under stuck-at faults (an event on a bit that
// already holds its value changes nothing), without writing the image or
// the model.
TEST(Injector, LowestDrawnWordPredictsInject) {
  ut::Rng init(7);
  auto net = std::make_shared<nn::Sequential>();
  net->add(std::make_shared<nn::Linear>(512, 512, true, init));
  const auto clean_twin = std::make_shared<nn::Sequential>();
  clean_twin->add(std::make_shared<nn::Linear>(512, 512, true, init));
  quant::ParamImage image(*net);
  image.restore();
  nn::copy_state(*net, *clean_twin);
  Injector inj(image);

  bool empty_draw = false;
  bool strict_bound = false;
  ut::Rng root(20);
  for (const double rate : ev::paper_fault_rates()) {
    for (int s = 0; s < 50; ++s) {
      for (const FaultType type :
           {FaultType::bit_flip, FaultType::stuck_at_one}) {
        SCOPED_TRACE(::testing::Message() << "rate " << rate << ", stream "
                                          << s << ", " << to_string(type));
        FaultModel model;
        model.type = type;
        model.bit_error_rate = rate;
        ut::Rng stream = root.split();
        const std::uint64_t generation = image.generation();
        const std::uint64_t predicted = inj.lowest_drawn_word(model, stream);
        EXPECT_EQ(image.generation(), generation);
        expect_same_parameters(*net, *clean_twin, "after the query");

        const InjectionRecord rec = inj.inject(model, stream);
        if (rec.fault_events == 0) {
          EXPECT_EQ(predicted, inj.word_count());
          empty_draw = true;
        }
        if (type == FaultType::bit_flip) {
          EXPECT_EQ(predicted, inj.lowest_word());
        } else {
          EXPECT_LE(predicted, inj.lowest_word());
          strict_bound |= predicted < inj.lowest_word();
        }
        inj.restore();
      }
    }
  }
  // Both special cases occurred, so neither check above passed vacuously.
  EXPECT_TRUE(empty_draw);
  EXPECT_TRUE(strict_bound);
}

/// Every parameter word of `net` as bits, in named_parameters() order.
std::vector<std::uint32_t> param_bits(const nn::Module& net) {
  std::vector<std::uint32_t> bits;
  for (const auto& p : net.named_parameters()) {
    for (const float v : p.var.value().span()) {
      bits.push_back(std::bit_cast<std::uint32_t>(v));
    }
  }
  return bits;
}

// After the run every parameter word is the clean image's, bit for bit: a
// trial loop that skips its final restore() leaves the last trial's flips.
TEST(Campaign, RunsTrialsAndRestores) {
  auto net = small_net();
  quant::ParamImage img(*net);
  img.restore();
  const std::vector<std::uint32_t> clean = param_bits(*net);
  Injector inj(img);
  int evals = 0;
  int faulted_evals = 0;
  CampaignConfig cfg;
  cfg.bit_error_rate = 1e-3;
  cfg.trials = 7;
  const CampaignResult res = run_campaign(
      inj,
      [&] {
        ++evals;
        faulted_evals += param_bits(*net) != clean ? 1 : 0;
        return 0.5;
      },
      cfg);
  EXPECT_EQ(evals, 7);
  EXPECT_GT(faulted_evals, 0) << "no trial changed a parameter word";
  EXPECT_EQ(res.accuracies.size(), 7u);
  EXPECT_DOUBLE_EQ(res.mean_accuracy, 0.5);
  EXPECT_EQ(param_bits(*net), clean);
}

TEST(Campaign, StatisticsComputed) {
  auto net = small_net();
  quant::ParamImage img(*net);
  Injector inj(img);
  double v = 0.0;
  CampaignConfig cfg;
  cfg.trials = 5;
  const CampaignResult res = run_campaign(
      inj,
      [&] {
        v += 0.1;
        return v;
      },
      cfg);
  EXPECT_NEAR(res.min_accuracy, 0.1, 1e-12);
  EXPECT_NEAR(res.max_accuracy, 0.5, 1e-12);
  EXPECT_NEAR(res.mean_accuracy, 0.3, 1e-12);
}

TEST(Campaign, AggregationMatchesHandComputedFixture) {
  CampaignResult r;
  r.accuracies = {0.75, 0.10, 0.40, 0.95, 0.30};
  aggregate(r);
  EXPECT_DOUBLE_EQ(r.mean_accuracy, (0.75 + 0.10 + 0.40 + 0.95 + 0.30) / 5.0);
  EXPECT_DOUBLE_EQ(r.min_accuracy, 0.10);
  EXPECT_DOUBLE_EQ(r.max_accuracy, 0.95);

  CampaignResult empty;
  aggregate(empty);
  EXPECT_DOUBLE_EQ(empty.mean_accuracy, 0.0);
  EXPECT_DOUBLE_EQ(empty.min_accuracy, 0.0);
  EXPECT_DOUBLE_EQ(empty.max_accuracy, 0.0);
}

namespace {

// One lane = one independent replica of the same network: identical seed,
// own image/injector, and an evaluate that reads the lane's own (faulty)
// parameters, so any cross-lane interference or trial-stream reordering
// would show up as a result difference.
CampaignWorker make_replica_worker(std::size_t /*lane*/) {
  struct Lane {
    std::shared_ptr<nn::Sequential> net = small_net(3);
    quant::ParamImage image{*net};
    std::unique_ptr<Injector> injector;
  };
  auto ctx = std::make_shared<Lane>();
  ctx->injector = std::make_unique<Injector>(ctx->image);
  CampaignWorker w;
  w.keepalive = ctx;
  w.injector = ctx->injector.get();
  w.evaluate = [ctx] {
    double sum = 0.0;
    for (auto& p : ctx->net->named_parameters()) {
      for (const float v : p.var.value().span()) sum += v;
    }
    return sum;
  };
  return w;
}

}  // namespace

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  CampaignConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.trials = 12;
  cfg.seed = 2024;
  cfg.threads = 1;
  const CampaignResult serial = run_campaign(make_replica_worker, cfg);
  ASSERT_EQ(serial.accuracies.size(), 12u);

  for (const std::size_t threads : {2u, 8u}) {
    cfg.threads = threads;
    const CampaignResult parallel = run_campaign(make_replica_worker, cfg);
    EXPECT_EQ(serial.accuracies, parallel.accuracies)
        << "threads = " << threads;
    EXPECT_EQ(serial.flip_counts, parallel.flip_counts)
        << "threads = " << threads;
    EXPECT_DOUBLE_EQ(serial.mean_accuracy, parallel.mean_accuracy);
    EXPECT_DOUBLE_EQ(serial.min_accuracy, parallel.min_accuracy);
    EXPECT_DOUBLE_EQ(serial.max_accuracy, parallel.max_accuracy);
  }
}

TEST(Campaign, ParallelMatchesLegacySerialOverload) {
  // The factory engine at threads > 1 must reproduce what the original
  // single-injector entry point computes for the same seed.
  auto net = small_net(3);
  quant::ParamImage img(*net);
  Injector inj(img);
  CampaignConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.trials = 9;
  cfg.seed = 77;
  const auto probe = [&] {
    double sum = 0.0;
    for (auto& p : net->named_parameters()) {
      for (const float v : p.var.value().span()) sum += v;
    }
    return sum;
  };
  const CampaignResult legacy = run_campaign(inj, probe, cfg);
  cfg.threads = 4;
  const CampaignResult parallel = run_campaign(make_replica_worker, cfg);
  EXPECT_EQ(legacy.accuracies, parallel.accuracies);
  EXPECT_EQ(legacy.flip_counts, parallel.flip_counts);
}

TEST(Campaign, SerialThrowRestoresCleanImage) {
  auto net = small_net();
  quant::ParamImage img(*net);
  img.restore();
  std::vector<float> clean;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) clean.push_back(v);
  }
  Injector inj(img);
  CampaignConfig cfg;
  cfg.bit_error_rate = 1e-2;  // high rate: every trial flips something
  cfg.trials = 5;
  int evals = 0;
  EXPECT_THROW(run_campaign(
                   inj,
                   [&]() -> double {
                     if (++evals == 3) throw std::runtime_error("eval failed");
                     return 0.5;
                   },
                   cfg),
               std::runtime_error);
  // The model must be back on the clean image despite the mid-trial throw.
  std::size_t i = 0;
  for (auto& p : net->named_parameters()) {
    for (const float v : p.var.value().span()) {
      EXPECT_EQ(v, clean[i++]);
    }
  }
}

TEST(Campaign, ParallelThrowPropagatesToCaller) {
  CampaignConfig cfg;
  cfg.bit_error_rate = 1e-2;
  cfg.trials = 8;
  cfg.threads = 4;
  const auto throwing_factory = [](std::size_t lane) {
    CampaignWorker w = make_replica_worker(lane);
    w.evaluate = []() -> double {
      throw std::runtime_error("lane eval failed");
    };
    return w;
  };
  // The exception must surface on the calling thread, not std::terminate a
  // pool worker.
  EXPECT_THROW(run_campaign(throwing_factory, cfg), std::runtime_error);
}

TEST(Campaign, MoreLanesThanTrials) {
  CampaignConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.trials = 3;
  cfg.seed = 5;
  cfg.threads = 16;  // engine must clamp lanes to the trial count
  const CampaignResult r = run_campaign(make_replica_worker, cfg);
  EXPECT_EQ(r.accuracies.size(), 3u);
  cfg.threads = 1;
  const CampaignResult serial = run_campaign(make_replica_worker, cfg);
  EXPECT_EQ(serial.accuracies, r.accuracies);
}

TEST(Campaign, SessionRebuildsEveryCachedLaneOnInvalidate) {
  // Lanes clone a shared source at build time: an invalidated session must
  // rebuild them through the factory. A stale lane would keep evaluating
  // the pre-mutation parameter values, so reuse instead of rebuild shows up
  // as a result difference.
  const auto source = small_net(3);
  const auto make_source_clone_worker = [&source](std::size_t) {
    struct Lane {
      std::shared_ptr<nn::Sequential> net;
      std::unique_ptr<quant::ParamImage> image;
      std::unique_ptr<Injector> injector;
    };
    auto ctx = std::make_shared<Lane>();
    ctx->net = small_net(3);
    nn::copy_state(*source, *ctx->net);
    ctx->image = std::make_unique<quant::ParamImage>(*ctx->net);
    ctx->injector = std::make_unique<Injector>(*ctx->image);
    CampaignWorker w;
    w.keepalive = ctx;
    w.injector = ctx->injector.get();
    w.evaluate = [ctx] {
      double sum = 0.0;
      for (auto& p : ctx->net->named_parameters()) {
        for (const float v : p.var.value().span()) sum += v;
      }
      return sum;
    };
    return w;
  };

  CampaignConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.trials = 12;
  cfg.seed = 2024;
  cfg.threads = 4;
  CampaignSession session(make_source_clone_worker);
  const CampaignResult first = session.run(cfg);
  EXPECT_EQ(run_campaign(make_source_clone_worker, cfg).accuracies,
            first.accuracies);

  source->named_parameters()[0].var.value()[0] += 1.0f;
  session.invalidate();
  const CampaignResult rebuilt = session.run(cfg);
  const CampaignResult fresh = run_campaign(make_source_clone_worker, cfg);
  EXPECT_EQ(fresh.accuracies, rebuilt.accuracies);
  EXPECT_EQ(fresh.flip_counts, rebuilt.flip_counts);
  // The mutation must be visible in the results, or the rebuild check
  // above would pass vacuously on stale lanes.
  EXPECT_NE(first.accuracies, rebuilt.accuracies);

  // A narrow run after invalidate() still rebuilds the lanes it does not
  // use: lanes 2 and 3 must not carry the old source into the wider run.
  source->named_parameters()[0].var.value()[0] += 1.0f;
  session.invalidate();
  for (const std::size_t threads : {2u, 4u}) {
    cfg.threads = threads;
    const CampaignResult cached = session.run(cfg);
    const CampaignResult fresh_run = run_campaign(make_source_clone_worker, cfg);
    EXPECT_EQ(fresh_run.accuracies, cached.accuracies)
        << "threads = " << threads;
    EXPECT_EQ(fresh_run.flip_counts, cached.flip_counts)
        << "threads = " << threads;
  }
  EXPECT_EQ(session.lane_count(), 4u);
}

TEST(Campaign, ReproducibleWithSameSeed) {
  auto net = small_net();
  quant::ParamImage img(*net);
  Injector inj(img);
  CampaignConfig cfg;
  cfg.bit_error_rate = 5e-4;
  cfg.trials = 4;
  cfg.seed = 99;
  const auto probe = [&] {
    // Accuracy proxy: first parameter value (reflects injected faults).
    return static_cast<double>(net->named_parameters()[0].var.value()[0]);
  };
  const CampaignResult a = run_campaign(inj, probe, cfg);
  const CampaignResult b = run_campaign(inj, probe, cfg);
  EXPECT_EQ(a.accuracies, b.accuracies);
  EXPECT_EQ(a.flip_counts, b.flip_counts);
}

}  // namespace
}  // namespace fitact::fault
