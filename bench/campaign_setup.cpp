// Micro-benchmark for campaign setup cost: what a fault campaign pays
// *before* the first trial runs, and how much of it the session layer
// removes.
//
// Three measurements, all on real engine code paths:
//   1. make_model with the normal random init vs the init-skipping path
//      (ModelConfig::skip_init) used for replicas — the ROADMAP's
//      "replicate_model pays for a random init that copy_state immediately
//      overwrites" item;
//   2. one full worker-lane construction (replica model + ParamImage +
//      Injector), the per-lane cost a fresh engine pays at every rate;
//   3. an R-point rate grid with L lanes: per-rate setup of the fresh
//      engine (rebuild every lane at every rate) vs a CampaignSession (build
//      lanes once, then run the session at every rate). The session runs
//      at bit error rate 0, where every trial has no flips and returns the
//      clean top-1 without a forward, so its row is the engine's whole
//      per-run overhead: fan-out and hand-out over lanes reused as the
//      last run left them (the lanes are rebuilt only when the source
//      changes, which this grid never does).
//
// Usage: campaign_setup [--model resnet50] [--width 0.125] [--classes 10]
//                       [--lanes 4] [--rates 5] [--reps 3]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/protection.h"
#include "data/synthetic_cifar.h"
#include "eval/experiment.h"
#include "fault/campaign.h"
#include "fault/injector.h"
#include "models/registry.h"
#include "nn/serialize.h"
#include "quant/param_image.h"
#include "tensor/kernels/kernels.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const std::string model_name = cli.get("model", "resnet50");
  const std::int64_t classes = cli.get_int("classes", 10);
  const auto width = static_cast<float>(cli.get_double("width", 0.125));
  const std::size_t lanes = cli.get_count("lanes", 4);
  const int rates = static_cast<int>(cli.get_int("rates", 5));
  const int reps = static_cast<int>(cli.get_int("reps", 3));

  // A campaign-ready PreparedModel without the training stage: setup cost
  // does not depend on the parameter values.
  ev::PreparedModel pm;
  pm.model_name = model_name;
  pm.num_classes = classes;
  pm.model_config.num_classes = classes;
  pm.model_config.width_mult = width;
  pm.model_config.seed = 42;
  pm.model = models::make_model(model_name, pm.model_config);
  data::SyntheticCifarConfig dc;
  dc.num_classes = classes;
  dc.size = 32;
  pm.test = std::make_shared<data::SyntheticCifar>(dc);
  pm.train = pm.test;

  std::printf("Campaign setup cost: %s (width %.3f, %lld params), "
              "%zu lanes, %d-rate grid\n",
              model_name.c_str(), width,
              static_cast<long long>(pm.model->parameter_count()), lanes,
              rates);
  // Which kernel bodies this host ran, so a CI log shows whether its runner
  // took the AVX-512 ones.
  std::printf("kernels: backend %s, fp32 %s, int8 %s\n\n",
              kern::backend_name(kern::active_backend()), kern::fp32_variant(),
              kern::gemm_i8_variant());

  const auto avg_ms = [&](const auto& fn) {
    ut::Timer t;
    for (int r = 0; r < reps; ++r) fn();
    return t.elapsed_ms() / reps;
  };

  // 1. Model construction: random init vs the replica (skip-init) path.
  const double init_ms = avg_ms([&] {
    (void)models::make_model(model_name, pm.model_config);
  });
  models::ModelConfig skip_cfg = pm.model_config;
  skip_cfg.skip_init = true;
  const double skip_ms = avg_ms([&] {
    (void)models::make_model(model_name, skip_cfg);
  });

  // 2. One full worker lane: replica + image + injector (what the fresh
  //    engine pays per extra lane, at every rate). The "legacy" variant
  //    rebuilds the replica the pre-session way, with the random init that
  //    copy_state then overwrites — the engine this PR replaced.
  ev::EvalConfig ec;
  ec.max_samples = 8;
  const auto factory = ev::make_campaign_worker_factory(pm, ec);
  const double lane_ms = avg_ms([&] { (void)factory(1); });
  const auto legacy_lane = [&] {
    auto replica = models::make_model(model_name, pm.model_config);
    core::replicate_protection(*pm.model, *replica);
    nn::copy_state(*pm.model, *replica);
    replica->set_training(false);
    quant::ParamImage image(*replica);
    fault::Injector injector(image);
  };
  const double legacy_lane_ms = avg_ms(legacy_lane);

  // 3. Rate grid: per-rate lane rebuild (legacy random-init replicas, and
  //    today's skip-init replicas) vs session reuse. The rebuild rows run
  //    no trials; the session runs two flip-free trials per lane at every
  //    rate, which cost no forward, so the numbers isolate what stays in
  //    the per-rate loop.
  const double legacy_grid_ms = avg_ms([&] {
    for (int r = 0; r < rates; ++r) {
      (void)factory(0);  // lane 0 wraps the source; image + injector only
      for (std::size_t i = 1; i < lanes; ++i) legacy_lane();
    }
  });
  const double fresh_grid_ms = avg_ms([&] {
    for (int r = 0; r < rates; ++r) {
      std::vector<fault::CampaignWorker> workers;
      workers.reserve(lanes);
      for (std::size_t i = 0; i < lanes; ++i) workers.push_back(factory(i));
    }
  });
  fault::CampaignConfig flip_free;
  flip_free.bit_error_rate = 0.0;
  flip_free.trials = static_cast<std::int64_t>(2 * lanes);
  flip_free.threads = lanes;
  const double session_grid_ms = avg_ms([&] {
    fault::CampaignSession session(factory);
    for (int r = 0; r < rates; ++r) (void)session.run(flip_free);
  });
  const double legacy_per_rate = legacy_grid_ms / rates;
  const double fresh_per_rate = fresh_grid_ms / rates;
  const double session_per_rate = session_grid_ms / rates;

  ut::TextTable table({"setup path", "cost"});
  table.row({"make_model, random init",
             ut::TextTable::fixed(init_ms, 2) + " ms"});
  table.row({"make_model, skip-init (replica path)",
             ut::TextTable::fixed(skip_ms, 2) + " ms"});
  table.row({"one worker lane, legacy (random-init replica)",
             ut::TextTable::fixed(legacy_lane_ms, 2) + " ms"});
  table.row({"one worker lane, current (skip-init replica)",
             ut::TextTable::fixed(lane_ms, 2) + " ms"});
  table.row({"per-rate setup, legacy engine (pre-PR)",
             ut::TextTable::fixed(legacy_per_rate, 2) + " ms"});
  table.row({"per-rate setup, fresh skip-init lanes",
             ut::TextTable::fixed(fresh_per_rate, 2) + " ms"});
  table.row({"per-rate setup, session (amortised)",
             ut::TextTable::fixed(session_per_rate, 2) + " ms"});
  table.print();

  std::printf("\ninit-skip speedup on make_model: %.2fx\n",
              skip_ms > 0.0 ? init_ms / skip_ms : 0.0);
  std::printf("per-rate setup reduction, session vs legacy engine: %.2fx\n",
              session_per_rate > 0.0 ? legacy_per_rate / session_per_rate
                                     : 0.0);
  std::printf("per-rate setup reduction, session vs fresh skip-init: %.2fx\n",
              session_per_rate > 0.0 ? fresh_per_rate / session_per_rate
                                     : 0.0);
  return 0;
}
