// google-benchmark micro suite for the compute substrate: GEMM, conv2d
// forward, the activation-function family (the per-element cost behind
// Table I's runtime overhead), the fixed-point codec, and fault injection.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/activation.h"
#include "core/protection.h"
#include "models/registry.h"
#include "quant/fixed_point.h"
#include "quant/param_image.h"
#include "fault/injector.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fitact;

// The dispatched-vs-scalar pairs below (BM_Sgemm / BM_SgemmScalar, the
// activation family / BM_ActivationClipActScalar and
// BM_ActivationFitReluScalar, BM_ModelForwardPlanned /
// BM_ModelForwardPlannedScalar) are the kernel-dispatch A/B: the unsuffixed
// form runs whatever backend the process resolved (AVX2 where supported),
// the Scalar form pins the portable backend for the duration of the
// benchmark. On a host without AVX2 the pairs coincide. The GEMM and conv
// rows are labelled with the fp32 variant they ran (kern::fp32_variant():
// scalar, avx2, or avx2_avx512 where the avx2 tier runs the AVX-512 bodies).
//
// The GEMM and conv rows (BM_Sgemm*, BM_SgemmNarrow*, BM_Conv2dForward) time
// one core: each timed loop runs under ut::InlineKernelScope, the way
// campaign lanes and serving plans run their kernels, so a row reads what
// one lane pays for the kernel rather than the global pool's fan-out and
// hand-off, which also swings with the load of a shared host.
//
// The GEMM, conv and whole-model rows report aggregates over 5 repetitions
// (median, mean, stddev, cv) instead of one round: one-shot rounds of
// these rows swung by up to 1.9x between runs on a shared host.
void median_of_5(benchmark::internal::Benchmark* b) {
  b->Repetitions(5)->ReportAggregatesOnly(true);
}

void sgemm_bench(benchmark::State& state) {
  const auto n = state.range(0);
  ut::Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  const ut::InlineKernelScope one_core;
  for (auto _ : state) {
    sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
          c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(kern::fp32_variant());
}

void BM_Sgemm(benchmark::State& state) { sgemm_bench(state); }
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256)->Apply(median_of_5);

void BM_SgemmScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  sgemm_bench(state);
}
BENCHMARK(BM_SgemmScalar)->Arg(64)->Arg(128)->Arg(256)->Apply(median_of_5);

// Narrow products (n < 16 <= m), which sgemm runs transposed: Args are
// {m, n, k, trans_a}. 64x4x576 is a vgg16 conv over a 2x2 output map at the
// scaled width (64 filters, 64*3*3 patch rows); 576x4x64 with op(A) = W^T is
// the same layer's backward dX GEMM.
void sgemm_narrow_bench(benchmark::State& state) {
  const auto m = state.range(0);
  const auto n = state.range(1);
  const auto k = state.range(2);
  const bool trans_a = state.range(3) != 0;
  ut::Rng rng(1);
  const Tensor a = Tensor::randn(trans_a ? Shape{k, m} : Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c = Tensor::zeros(Shape{m, n});
  const ut::InlineKernelScope one_core;
  for (auto _ : state) {
    sgemm(trans_a, false, m, n, k, 1.0f, a.data(), trans_a ? m : k, b.data(),
          n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.SetLabel(kern::fp32_variant());
}

void BM_SgemmNarrow(benchmark::State& state) { sgemm_narrow_bench(state); }
BENCHMARK(BM_SgemmNarrow)
    ->Args({64, 4, 576, 0})
    ->Args({576, 4, 64, 1})
    ->Apply(median_of_5);

void BM_SgemmNarrowScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  sgemm_narrow_bench(state);
}
BENCHMARK(BM_SgemmNarrowScalar)
    ->Args({64, 4, 576, 0})
    ->Args({576, 4, 64, 1})
    ->Apply(median_of_5);

// Args: {channels in, channels out, map side, batch, kernel}; padding keeps
// the map's side. Stride-1 convs over maps of 16+ positions run
// kern::conv_direct per sample: vgg16's at the campaign's batch 64 (one
// row per map size, plus its first conv) and resnet50's 1x1 32->8 on a
// 32x32 map at serving's batch 8. {64, 64, 2, 64, 3} is vgg16's 2x2 convs,
// which run batch-wide through sgemm's panel.
void BM_Conv2dForward(benchmark::State& state) {
  const auto in_c = state.range(0);
  const auto out_c = state.range(1);
  const auto side = state.range(2);
  const auto batch = state.range(3);
  const auto kernel = state.range(4);
  ut::Rng rng(2);
  const Variable x(Tensor::randn(Shape{batch, in_c, side, side}, rng), false);
  const Variable w(Tensor::randn(Shape{out_c, in_c, kernel, kernel}, rng),
                   false);
  const NoGradGuard no_grad;
  const ut::InlineKernelScope one_core;
  for (auto _ : state) {
    const Variable y = ag::conv2d(x, w, Variable(), 1, kernel / 2);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetLabel(kern::fp32_variant());
}
BENCHMARK(BM_Conv2dForward)
    ->Args({8, 8, 32, 1, 3})
    ->Args({16, 16, 32, 1, 3})
    ->Args({32, 32, 32, 1, 3})
    ->Args({3, 8, 32, 64, 3})
    ->Args({8, 8, 32, 64, 3})
    ->Args({16, 16, 16, 64, 3})
    ->Args({32, 32, 8, 64, 3})
    ->Args({64, 64, 4, 64, 3})
    ->Args({32, 8, 32, 8, 1})
    ->Args({64, 64, 2, 64, 3})
    ->Apply(median_of_5);

// One FitAct post-training step, the body of core::post_train_bounds'
// loop: scaled vgg16 (width 0.125) under per-neuron FitReLU with every
// weight frozen, batch 32, one forward, cross-entropy and backward into the
// bounds. Arg 0 runs inline on one core, as BM_Sgemm does; arg 1 runs on
// the global pool, so the pair reads what the backward's fan-out buys.
// A step takes tens of milliseconds, so at a short --benchmark_min_time
// each repetition would time one step; the row's own minimum time (which
// takes precedence over the flag) makes every repetition time several.
void BM_PostTrainStep(benchmark::State& state) {
  constexpr std::int64_t kBatch = 32;
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.width_mult = 0.125f;
  cfg.seed = 7;
  const auto model = models::make_model("vgg16", cfg);
  model->set_training(false);
  const auto sites = core::collect_activations(*model);
  ut::Rng rng(8);
  const Variable x(Tensor::randn(Shape{kBatch, 3, 32, 32}, rng), false);
  {
    const NoGradGuard no_grad;
    for (const auto& site : sites) site->set_profiling(true);
    (void)model->forward(x);
    for (const auto& site : sites) site->set_profiling(false);
  }
  core::apply_protection(*model, core::Scheme::fitrelu);
  for (const auto& p : model->named_parameters()) {
    Variable weight = p.var;
    weight.set_requires_grad(false);
  }
  std::vector<Variable> bounds;
  for (const auto& site : sites) {
    site->bounds().set_requires_grad(true);
    bounds.push_back(site->bounds());
  }
  std::vector<std::int64_t> labels(kBatch);
  for (std::int64_t i = 0; i < kBatch; ++i) {
    labels[static_cast<std::size_t>(i)] = i % cfg.num_classes;
  }
  std::optional<ut::InlineKernelScope> one_core;
  if (state.range(0) == 0) one_core.emplace();
  for (auto _ : state) {
    for (auto& b : bounds) b.zero_grad();
    Variable loss = ag::softmax_cross_entropy(model->forward(x), labels);
    loss.backward();
    benchmark::DoNotOptimize(bounds.front().grad().data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(kern::fp32_variant());
}
BENCHMARK(BM_PostTrainStep)
    ->Arg(0)
    ->Arg(1)
    ->Apply(median_of_5)
    ->MinTime(0.3);

// Args: {channels, map side}; a 2x2 stride-2 pool at the campaign's batch
// 64. {8, 32} is scaled vgg16's first pool, {64, 4} its fourth.
void BM_MaxPool2d(benchmark::State& state) {
  const auto ch = state.range(0);
  const auto side = state.range(1);
  ut::Rng rng(5);
  const Variable x(Tensor::randn(Shape{64, ch, side, side}, rng), false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = ag::max_pool2d(x, 2, 2);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_MaxPool2d)->Args({8, 32})->Args({64, 4});

void activation_bench(benchmark::State& state, core::Scheme scheme) {
  constexpr std::int64_t kFeat = 16 * 16 * 16;
  ut::Rng rng(3);
  core::ActivationConfig cfg;
  cfg.scheme = scheme;
  cfg.granularity = core::Granularity::per_neuron;
  core::BoundedActivation act(cfg);
  const Variable x(
      Tensor::rand_uniform(Shape{4, 16, 16, 16}, rng, -1.0f, 3.0f), false);
  if (scheme != core::Scheme::relu) {
    act.set_profiling(true);
    act.forward(x);
    act.set_profiling(false);
    act.init_bounds_from_profile();
  }
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = act.forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * kFeat);
}

void BM_ActivationRelu(benchmark::State& state) {
  activation_bench(state, core::Scheme::relu);
}
void BM_ActivationClipAct(benchmark::State& state) {
  activation_bench(state, core::Scheme::clip_act);
}
void BM_ActivationRanger(benchmark::State& state) {
  activation_bench(state, core::Scheme::ranger);
}
void BM_ActivationFitReluNaive(benchmark::State& state) {
  activation_bench(state, core::Scheme::fitrelu_naive);
}
void BM_ActivationFitRelu(benchmark::State& state) {
  activation_bench(state, core::Scheme::fitrelu);
}
void BM_ActivationClipActScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  activation_bench(state, core::Scheme::clip_act);
}
void BM_ActivationFitReluScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  activation_bench(state, core::Scheme::fitrelu);
}

// FitReLU (k = 8, per-neuron bounds) on inputs drawn to match the census of
// a post-trained FitAct vgg16's activation inputs: ~52% have x <= 0, ~36%
// have t = k(l - x) >= 17, where the output is exactly x, and ~12% need the
// exp; 63% of aligned 8-lane groups hold no lane that needs it.
// BM_ActivationFitRelu's uniform inputs give almost no such group.
void BM_ActivationFitReluCensus(benchmark::State& state) {
  constexpr std::int64_t kFeat = 16 * 16 * 16;
  ut::Rng rng(3);
  core::ActivationConfig cfg;
  cfg.scheme = core::Scheme::fitrelu;
  cfg.granularity = core::Granularity::per_neuron;
  core::BoundedActivation act(cfg);
  const Tensor bounds = Tensor::rand_uniform(Shape{kFeat}, rng, 3.0f, 5.0f);
  act.set_bounds(bounds, true);
  Tensor x(Shape{4, 16, 16, 16});
  for (std::int64_t group = 0; group < x.numel(); group += 8) {
    // 37% of groups mix in exp lanes, at 31.6% of their lanes (11.7% of
    // all); the other lanes split 59:41 between x <= 0 and t >= 17.6.
    const bool mixed = rng.uniform(0.0f, 1.0f) < 0.37f;
    for (std::int64_t i = group; i < group + 8; ++i) {
      const float l = bounds[i % kFeat];
      if (mixed && rng.uniform(0.0f, 1.0f) < 0.316f) {
        x[i] = rng.uniform(l - 2.0f, l + 1.0f);  // t in (-8, 16]
      } else if (rng.uniform(0.0f, 1.0f) < 0.59f) {
        x[i] = rng.uniform(-3.0f, 0.0f);
      } else {
        x[i] = rng.uniform(0.05f, l - 2.2f);
      }
    }
  }
  const Variable xv(x, false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = act.forward(xv);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * kFeat);
}

BENCHMARK(BM_ActivationRelu);
BENCHMARK(BM_ActivationClipAct);
BENCHMARK(BM_ActivationClipActScalar);
BENCHMARK(BM_ActivationRanger);
BENCHMARK(BM_ActivationFitReluNaive);
BENCHMARK(BM_ActivationFitRelu);
BENCHMARK(BM_ActivationFitReluScalar);
BENCHMARK(BM_ActivationFitReluCensus);

// Whole-model inference A/B: the eager forward (fresh tensors per op, graph
// bookkeeping) vs the recorded plan (pre-planned arena, zero steady-state
// allocations) on the same protected tinycnn — the per-forward cost the
// serving lanes pay on each micro-batch. Arg = batch size.
std::shared_ptr<nn::Module> protected_tinycnn() {
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.seed = 7;
  auto model = models::make_tinycnn(cfg);
  model->set_training(false);
  const auto sites = core::collect_activations(*model);
  for (const auto& site : sites) site->set_profiling(true);
  ut::Rng rng(8);
  const NoGradGuard no_grad;
  (void)model->forward(Variable(Tensor::randn(Shape{2, 3, 32, 32}, rng),
                                false));
  for (const auto& site : sites) site->set_profiling(false);
  core::apply_protection(*model, core::Scheme::clip_act);
  return model;
}

void BM_ModelForwardEager(benchmark::State& state) {
  const auto batch = state.range(0);
  const auto model = protected_tinycnn();
  ut::Rng rng(9);
  const Variable x(Tensor::randn(Shape{batch, 3, 32, 32}, rng), false);
  const NoGradGuard no_grad;
  for (auto _ : state) {
    const Variable y = model->forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ModelForwardEager)->Arg(1)->Arg(8)->Apply(median_of_5);

void planned_forward_bench(benchmark::State& state, bool fuse) {
  const auto batch = state.range(0);
  const auto model = protected_tinycnn();
  const auto plan =
      nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8, fuse);
  ut::Rng rng(9);
  const Tensor x = Tensor::randn(Shape{batch, 3, 32, 32}, rng);
  std::memcpy(plan->input_view(batch).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  for (auto _ : state) {
    const Tensor& y = plan->execute(batch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

// Planned / Fused is the fusion A/B (same plan machinery, fusion pass off
// vs on); Planned / PlannedScalar stays the kernel-dispatch A/B.
void BM_ModelForwardPlanned(benchmark::State& state) {
  planned_forward_bench(state, /*fuse=*/false);
}
BENCHMARK(BM_ModelForwardPlanned)->Arg(1)->Arg(8)->Apply(median_of_5);

void BM_ModelForwardPlannedScalar(benchmark::State& state) {
  const kern::BackendGuard guard(kern::Backend::scalar);
  planned_forward_bench(state, /*fuse=*/false);
}
BENCHMARK(BM_ModelForwardPlannedScalar)->Arg(1)->Arg(8)->Apply(median_of_5);

void BM_ModelForwardFused(benchmark::State& state) {
  planned_forward_bench(state, /*fuse=*/true);
}
BENCHMARK(BM_ModelForwardFused)->Arg(1)->Arg(8)->Apply(median_of_5);

void BM_FixedPointEncode(benchmark::State& state) {
  ut::Rng rng(4);
  std::vector<float> src(65536);
  for (auto& v : src) v = rng.uniform(-100.0f, 100.0f);
  std::vector<std::int32_t> dst(src.size());
  for (auto _ : state) {
    quant::encode_span(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_FixedPointEncode);

void BM_FixedPointDecode(benchmark::State& state) {
  ut::Rng rng(5);
  std::vector<std::int32_t> src(65536);
  for (auto& v : src) v = static_cast<std::int32_t>(rng.next_u64());
  std::vector<float> dst(src.size());
  for (auto _ : state) {
    quant::decode_span(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_FixedPointDecode);

void BM_FaultInjection(benchmark::State& state) {
  ut::Rng rng(6);
  nn::Sequential net;
  net.add(std::make_shared<nn::Linear>(512, 512, true, rng));
  quant::ParamImage image(net);
  fault::Injector injector(image);
  ut::Rng fault_rng(7);
  for (auto _ : state) {
    injector.inject(1e-5, fault_rng);
    injector.restore();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.word_count()));
}
BENCHMARK(BM_FaultInjection);

}  // namespace
