// Tests for recorded inference plans (src/nn/plan.h): planned execution
// must be bit-identical to the eager forward path for every zoo model and
// batch size, steady-state execute must not touch the heap, int8 serving
// lanes must detect and scrub quantized weight corruption, and recording
// must fail loudly (naming the module) for train-only modules and modules
// without a record() override.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/activation.h"
#include "core/protection.h"
#include "eval/experiment.h"
#include "eval/serving.h"
#include "models/registry.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "serve/server.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"

// Allocation counting is meaningless under sanitizers (their runtimes own
// the allocator and allocate internally), so the counter and its test are
// compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FITACT_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FITACT_COUNT_ALLOCS 0
#else
#define FITACT_COUNT_ALLOCS 1
#endif
#else
#define FITACT_COUNT_ALLOCS 1
#endif

#if FITACT_COUNT_ALLOCS
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Counting replacements for the global allocation functions; only the
// unaligned forms are replaced (over-aligned allocations fall through to
// the default aligned operator new, uncounted — none occur on the plan
// execute path).
void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // FITACT_COUNT_ALLOCS

namespace fitact {
namespace {

/// A protection configuration of the plan matrices: the scheme every site
/// runs and the granularity of its bounds.
struct Protect {
  core::Scheme scheme;
  core::Granularity granularity;
};

std::string to_string(const Protect& p) {
  return core::to_string(p.scheme) + "_" + core::to_string(p.granularity);
}

/// Zoo model at test width, in eval mode, with bounds seeded from a short
/// random-input profiling pass when the scheme needs them.
std::shared_ptr<nn::Module> zoo_model(const std::string& name,
                                      const Protect& protect,
                                      std::uint64_t seed) {
  const core::Scheme scheme = protect.scheme;
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.width_mult = 0.125f;
  cfg.seed = seed;
  auto model = name == "tinycnn" ? models::make_tinycnn(cfg)
                                 : models::make_model(name, cfg);
  model->set_training(false);
  if (scheme != core::Scheme::relu) {
    const auto sites = core::collect_activations(*model);
    for (const auto& site : sites) site->set_profiling(true);
    ut::Rng rng(seed + 1);
    const NoGradGuard no_grad;
    for (int i = 0; i < 2; ++i) {
      (void)model->forward(
          Variable(Tensor::randn(Shape{2, 3, 32, 32}, rng), false));
    }
    for (const auto& site : sites) site->set_profiling(false);
    core::ProtectionOptions options = core::default_options(scheme);
    options.granularity = protect.granularity;
    core::apply_protection(*model, scheme, options);
  }
  return model;
}

/// zoo_model under the scheme's default (paper) granularity.
std::shared_ptr<nn::Module> zoo_model(const std::string& name,
                                      core::Scheme scheme,
                                      std::uint64_t seed) {
  return zoo_model(name, {scheme, core::default_options(scheme).granularity},
                   seed);
}

/// (zoo model, protection) parameter of the fusion and int8 matrices.
using ModelProtect = std::tuple<const char*, Protect>;

std::string model_protect_name(
    const ::testing::TestParamInfo<ModelProtect>& info) {
  return std::string(std::get<0>(info.param)) + "_" +
         to_string(std::get<1>(info.param));
}

void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const std::string& context) {
  ASSERT_EQ(got.numel(), want.numel()) << context;
  for (std::int64_t j = 0; j < got.numel(); ++j) {
    ASSERT_EQ(got[j], want[j]) << context << " element " << j;
  }
}

// Acceptance contract: for every zoo model, planned execution reproduces
// the eager forward bit-for-bit at batch sizes 1 / 3 / 8 (smaller batches
// use the first rows of each max_batch arena slot), including on repeated
// executes of the same plan (steady state).
class PlanZoo : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanZoo, PlanMatchesEagerBitForBitAcrossBatchSizes) {
  const auto model = zoo_model(GetParam(), core::Scheme::fitrelu, 7);
  const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8);
  EXPECT_GT(plan->op_count(), 0u);
  ut::Rng rng(99);
  const NoGradGuard no_grad;
  // The contract must hold on every kernel backend. Both engines call the
  // same dispatched kernels, so it holds by construction — this matrix
  // pins that construction under forced scalar and under the
  // best-available backend (identical when the host lacks AVX2). The
  // eager reference is recomputed inside the guard: plan-vs-eager
  // identity is within a backend, GEMM results differ across backends.
  for (const kern::Backend backend :
       {kern::Backend::scalar,
        kern::avx2_supported() ? kern::Backend::avx2 : kern::Backend::scalar}) {
    const kern::BackendGuard guard(backend);
    for (const std::int64_t b : {1, 3, 8}) {
      const Tensor x = Tensor::randn(Shape{b, 3, 32, 32}, rng);
      const Tensor want = model->forward(Variable(x, false)).value();
      Tensor& staging = plan->input_view(b);
      std::memcpy(staging.data(), x.data(),
                  sizeof(float) * static_cast<std::size_t>(x.numel()));
      for (int pass = 0; pass < 2; ++pass) {
        const Tensor& got = plan->execute(b);
        expect_bit_identical(got, want,
                             std::string(GetParam()) + " backend " +
                                 kern::backend_name(backend) + " batch " +
                                 std::to_string(b) + " pass " +
                                 std::to_string(pass));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanZoo,
                         ::testing::Values("tinycnn", "alexnet", "vgg16",
                                           "resnet50"));

// Fusion acceptance matrix: the conv/linear + bias + bound-clamp fusion
// pass must be a pure performance transform. For every zoo model and
// protection of the instantiations below, the fused plan reproduces both
// the eager forward and the unfused plan bit-for-bit at batch 1 / 3 / 8 on
// both kernel backends, and wherever a pair actually fuses the dead
// intermediate must shrink the arena.
class PlanFusion : public ::testing::TestWithParam<ModelProtect> {};

TEST_P(PlanFusion, FusedPlanMatchesEagerAndUnfusedBitForBit) {
  const std::string name = std::get<0>(GetParam());
  const auto model = zoo_model(name, std::get<1>(GetParam()), 43);
  const auto fused = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8,
                                                /*fuse=*/true);
  const auto unfused = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8,
                                                  /*fuse=*/false);
  EXPECT_EQ(unfused->fused_op_count(), 0u);
  // Each fused pair removes exactly one op from the sequence, and each
  // BN-folded triple removes one more on top of its pair's.
  EXPECT_EQ(fused->op_count() + fused->fused_op_count() +
                fused->bn_folded_op_count(),
            unfused->op_count());
  // Killing intermediates can only ever release liveness pressure.
  EXPECT_LE(fused->arena_bytes(), unfused->arena_bytes());
  // Every zoo model now fuses: direct conv->act / linear->act pairs, and
  // resnet50's conv->bn->act triples via the BatchNorm fold.
  EXPECT_GT(fused->fused_op_count(), 0u);
  if (name == "resnet50") {
    EXPECT_GT(fused->bn_folded_op_count(), 0u);
  } else {
    EXPECT_EQ(fused->bn_folded_op_count(), 0u);
  }
  if (name == "tinycnn" || name == "alexnet") {
    // Here an activation output participates in the peak-liveness set, so
    // the dead intermediate must shrink the arena strictly. (vgg16's peak
    // is conv-input + im2col scratch + conv-output at each back-to-back
    // conv pair with or without fusion, so its footprint merely ties.)
    EXPECT_LT(fused->arena_bytes(), unfused->arena_bytes());
  }

  ut::Rng rng(101);
  const NoGradGuard no_grad;
  for (const kern::Backend backend :
       {kern::Backend::scalar,
        kern::avx2_supported() ? kern::Backend::avx2 : kern::Backend::scalar}) {
    const kern::BackendGuard guard(backend);
    for (const std::int64_t b : {1, 3, 8}) {
      const Tensor x = Tensor::randn(Shape{b, 3, 32, 32}, rng);
      const Tensor want = model->forward(Variable(x, false)).value();
      const std::string context = name + " " +
                                  to_string(std::get<1>(GetParam())) +
                                  " backend " + kern::backend_name(backend) +
                                  " batch " + std::to_string(b);
      std::memcpy(fused->input_view(b).data(), x.data(),
                  sizeof(float) * static_cast<std::size_t>(x.numel()));
      std::memcpy(unfused->input_view(b).data(), x.data(),
                  sizeof(float) * static_cast<std::size_t>(x.numel()));
      const Tensor& got = fused->execute(b);
      expect_bit_identical(got, want, context + " fused vs eager");
      expect_bit_identical(unfused->execute(b), got,
                           context + " unfused vs fused");
    }
  }
}

// Fused clamp-event counting must tally exactly what the standalone
// activation op would have: same per-site events, same inspected totals.
// Inputs are drawn wider than the profiling pass so some pre-activations
// genuinely exceed their bounds and the event comparison is non-trivial.
// Plain ReLU has no bound and counts nothing on either plan.
TEST_P(PlanFusion, FusedClampCountsEqualUnfused) {
  const auto model =
      zoo_model(std::get<0>(GetParam()), std::get<1>(GetParam()), 47);
  const auto sites = core::collect_activations(*model);
  for (const auto& site : sites) site->set_clamp_counting(true);
  const auto fused = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 4,
                                                /*fuse=*/true);
  const auto unfused = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 4,
                                                  /*fuse=*/false);
  ASSERT_GT(fused->fused_op_count(), 0u);
  ut::Rng rng(53);
  const Tensor x = Tensor::rand_uniform(Shape{3, 3, 32, 32}, rng, -4.0f, 4.0f);
  const auto run = [&](nn::InferencePlan& plan) {
    core::reset_clamp_counters(sites);
    std::memcpy(plan.input_view(3).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    (void)plan.execute(3);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    counts.reserve(sites.size());
    for (const auto& site : sites) {
      counts.emplace_back(site->clamp_events(), site->clamp_total());
    }
    return counts;
  };
  const auto fused_counts = run(*fused);
  const auto unfused_counts = run(*unfused);
  ASSERT_EQ(fused_counts.size(), unfused_counts.size());
  std::uint64_t events = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fused_counts.size(); ++i) {
    EXPECT_EQ(fused_counts[i].first, unfused_counts[i].first)
        << "site " << i << " events";
    EXPECT_EQ(fused_counts[i].second, unfused_counts[i].second)
        << "site " << i << " total";
    events += fused_counts[i].first;
    total += fused_counts[i].second;
  }
  if (std::get<1>(GetParam()).scheme == core::Scheme::relu) {
    EXPECT_EQ(events, 0u);
    EXPECT_EQ(total, 0u);
  } else {
    EXPECT_GT(events, 0u) << "inputs wide enough to clamp somewhere";
    EXPECT_GT(total, 0u);
  }
  for (const auto& site : sites) site->set_clamp_counting(false);
  core::reset_clamp_counters(sites);
}

// A NaN reaching a clamp is a clamp event (kernels.h): one NaN pixel in the
// plan input poisons every first-conv output whose window covers it, and
// each of those raises the first site's event count — by the same amount
// on the fused and the unfused plan, on both kernel backends.
TEST(PlanFusion, NanInputRaisesFirstSiteClampEvents) {
  for (const Protect& protect :
       {Protect{core::Scheme::clip_act, core::Granularity::per_layer},
        Protect{core::Scheme::ranger, core::Granularity::per_channel},
        Protect{core::Scheme::fitrelu, core::Granularity::per_neuron}}) {
    const auto model = zoo_model("tinycnn", protect, 61);
    const auto sites = core::collect_activations(*model);
    for (const auto& site : sites) site->set_clamp_counting(true);
    const auto fused = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 2,
                                                  /*fuse=*/true);
    const auto unfused = nn::InferencePlan::compile(model, Shape{3, 32, 32},
                                                    2, /*fuse=*/false);
    ut::Rng rng(67);
    Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
    const auto first_site_events = [&](nn::InferencePlan& plan) {
      core::reset_clamp_counters(sites);
      std::memcpy(plan.input_view(2).data(), x.data(),
                  sizeof(float) * static_cast<std::size_t>(x.numel()));
      (void)plan.execute(2);
      return sites.front()->clamp_events();
    };
    for (const kern::Backend backend :
         {kern::Backend::scalar, kern::avx2_supported()
                                     ? kern::Backend::avx2
                                     : kern::Backend::scalar}) {
      const kern::BackendGuard guard(backend);
      const std::string context =
          to_string(protect) + " backend " + kern::backend_name(backend);
      const std::uint64_t clean = first_site_events(*fused);
      EXPECT_EQ(first_site_events(*unfused), clean) << context;
      float& pixel = x.data()[10 * 32 + 10];  // sample 0, channel 0
      const float saved = pixel;
      pixel = std::numeric_limits<float>::quiet_NaN();
      const std::uint64_t poisoned = first_site_events(*fused);
      EXPECT_GT(poisoned, clean) << context;
      EXPECT_EQ(first_site_events(*unfused), poisoned) << context;
      pixel = saved;
    }
    for (const auto& site : sites) site->set_clamp_counting(false);
    core::reset_clamp_counters(sites);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PlanFusion,
    ::testing::Combine(
        ::testing::Values("tinycnn", "alexnet", "vgg16", "resnet50"),
        ::testing::Values(
            Protect{core::Scheme::clip_act, core::Granularity::per_layer})),
    model_protect_name);

// The other schemes and bound extents, on the models whose fused ops have
// no folded BatchNorm. resnet50's fused ops all fold one, so they run the
// same producer, BatchNorm, activation-step sequence under every scheme;
// Zoo above and PlanZoo pin it under clip_act and fitrelu.
INSTANTIATE_TEST_SUITE_P(
    Schemes, PlanFusion,
    ::testing::Combine(
        ::testing::Values("tinycnn", "alexnet", "vgg16"),
        ::testing::Values(
            Protect{core::Scheme::relu, core::Granularity::per_neuron},
            Protect{core::Scheme::clip_act, core::Granularity::per_channel},
            Protect{core::Scheme::ranger, core::Granularity::per_layer},
            Protect{core::Scheme::fitrelu_naive,
                    core::Granularity::per_neuron},
            Protect{core::Scheme::fitrelu, core::Granularity::per_neuron})),
    model_protect_name);

// ---- Int8 quantized plans --------------------------------------------------

/// Max-abs over a tensor (the input calibration the serving layer runs).
float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    m = std::max(m, std::abs(t[i]));
  }
  return m;
}

// Int8 acceptance matrix: for every zoo model under a bounded clamp scheme,
// the quantization pass must convert at least one fused op, the int8 plan's
// outputs must stay close to the fp32 plan's (block-quantized weights and
// bound-derived activation scales keep per-layer error ~1%), and — the
// stronger contract — the int8 forward must be bit-identical across kernel
// backends (exact int32 GEMM + branch-identical quantize + FMA-free
// dequantize + the shared clamp kernel). The protections cover every bound extent (layer, channel,
// neuron) and both clamp modes; the finer extents run under ranger's
// saturating clamp, because under a zero-above clamp an element sitting at
// its bound lands at b in one precision and at 0 in the other, and
// closeness in L2 is then not a property of the model.
class PlanInt8 : public ::testing::TestWithParam<ModelProtect> {};

TEST_P(PlanInt8, ConvertsOpsStaysCloseToFp32AndMatchesAcrossBackends) {
  const char* const name = std::get<0>(GetParam());
  const auto model = zoo_model(name, std::get<1>(GetParam()), 43);
  ut::Rng rng(71);
  const NoGradGuard no_grad;
  std::vector<Tensor> inputs;
  float range = 0.0f;
  for (const std::int64_t b : {1, 3, 8}) {
    inputs.push_back(Tensor::randn(Shape{b, 3, 32, 32}, rng));
    range = std::max(range, max_abs(inputs.back()));
  }
  const auto fp32 = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8);
  const auto int8 = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8,
                                               /*fuse=*/true,
                                               nn::Precision::int8, range);
  EXPECT_EQ(int8->precision(), nn::Precision::int8);
  EXPECT_GT(int8->int8_op_count(), 0u);
  EXPECT_LE(int8->int8_op_count(), int8->fused_op_count());

  const auto run = [](nn::InferencePlan& plan, const Tensor& x) {
    const std::int64_t b = x.shape()[0];
    std::memcpy(plan.input_view(b).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    return plan.execute(b).clone();
  };
  // Closeness on both backends. Whole-model cross-backend bit-identity
  // does not hold here: the final classifier linear has no trailing
  // activation, so it stays fp32, and fp32 GEMM is only error-bounded
  // across backends. (FullyQuantizedForwardBitIdenticalAcrossBackends
  // below pins bit-identity on a model where every GEMM quantizes;
  // int8_gemm_fuzz_test pins it per kernel.)
  for (const Tensor& x : inputs) {
    const Tensor want = run(*fp32, x);
    for (const kern::Backend backend :
         {kern::Backend::scalar, kern::avx2_supported()
                                     ? kern::Backend::avx2
                                     : kern::Backend::scalar}) {
      const kern::BackendGuard guard(backend);
      const Tensor got = run(*int8, x);
      // Quantized logits track the fp32 logits in relative L2. The bound
      // is depth-tolerant (vgg16 stacks 13 quantized convs of random
      // weights, the worst accumulation case); the served-accuracy gate is
      // the bench's int8_top1_delta row, not this.
      double num = 0.0;
      double den = 0.0;
      for (std::int64_t j = 0; j < want.numel(); ++j) {
        const double d = static_cast<double>(got[j]) - want[j];
        num += d * d;
        den += static_cast<double>(want[j]) * want[j];
      }
      EXPECT_LT(std::sqrt(num), 0.25 * std::sqrt(den) + 1e-3)
          << name << " " << to_string(std::get<1>(GetParam())) << " batch "
          << x.shape()[0] << " backend " << kern::backend_name(backend);
    }
  }
}

// On a model whose every GEMM feeds a bounded activation, the quantization
// pass converts every fused op, and the whole int8 forward is bit-identical
// across kernel backends: exact int32 GEMM accumulation, branch-identical
// quantize, FMA-free dequantize, the bit-identical clamp kernel, and
// elementwise (backend-independent) pooling in between.
TEST(PlanInt8, FullyQuantizedForwardBitIdenticalAcrossBackends) {
  if (!kern::avx2_supported()) {
    GTEST_SKIP() << "single-backend host: nothing to compare";
  }
  ut::Rng rng(59);
  auto seq = std::make_shared<nn::Sequential>();
  seq->add(std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, true, rng));
  seq->add(std::make_shared<core::BoundedActivation>(core::ActivationConfig{}));
  seq->add(std::make_shared<nn::MaxPool2d>(2));  // 32 -> 16
  seq->add(std::make_shared<nn::Conv2d>(8, 16, 3, 1, 1, true, rng));
  seq->add(std::make_shared<core::BoundedActivation>(core::ActivationConfig{}));
  seq->add(std::make_shared<nn::MaxPool2d>(4));  // 16 -> 4
  seq->add(std::make_shared<nn::Flatten>());
  seq->add(std::make_shared<nn::Linear>(16 * 4 * 4, 32, true, rng));
  seq->add(std::make_shared<core::BoundedActivation>(core::ActivationConfig{}));
  seq->add(std::make_shared<nn::Linear>(32, 10, true, rng));
  seq->add(std::make_shared<core::BoundedActivation>(core::ActivationConfig{}));
  seq->set_training(false);
  const auto sites = core::collect_activations(*seq);
  for (const auto& site : sites) site->set_profiling(true);
  const NoGradGuard no_grad;
  (void)seq->forward(Variable(Tensor::randn(Shape{2, 3, 32, 32}, rng), false));
  for (const auto& site : sites) site->set_profiling(false);
  core::apply_protection(*seq, core::Scheme::clip_act);

  const Tensor x = Tensor::randn(Shape{3, 3, 32, 32}, rng);
  const auto plan = nn::InferencePlan::compile(seq, Shape{3, 32, 32}, 4,
                                               /*fuse=*/true,
                                               nn::Precision::int8,
                                               max_abs(x));
  ASSERT_EQ(plan->int8_op_count(), 4u);
  ASSERT_EQ(plan->int8_op_count(), plan->fused_op_count());
  Tensor got_scalar;
  {
    const kern::BackendGuard guard(kern::Backend::scalar);
    std::memcpy(plan->input_view(3).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    got_scalar = plan->execute(3).clone();
  }
  const kern::BackendGuard guard(kern::Backend::avx2);
  std::memcpy(plan->input_view(3).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  expect_bit_identical(plan->execute(3), got_scalar,
                       "fully quantized scalar vs avx2");
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PlanInt8,
    ::testing::Combine(
        ::testing::Values("tinycnn", "alexnet", "vgg16", "resnet50"),
        ::testing::Values(
            Protect{core::Scheme::clip_act, core::Granularity::per_layer})),
    model_protect_name);

// Saturating clamps at every bound extent, on the models whose int8 ops
// have no folded BatchNorm (as for PlanFusion's Schemes).
INSTANTIATE_TEST_SUITE_P(
    Schemes, PlanInt8,
    ::testing::Combine(
        ::testing::Values("tinycnn", "alexnet", "vgg16"),
        ::testing::Values(
            Protect{core::Scheme::ranger, core::Granularity::per_layer},
            Protect{core::Scheme::ranger, core::Granularity::per_channel},
            Protect{core::Scheme::ranger, core::Granularity::per_neuron})),
    model_protect_name);

// Compile-time contract: int8 without bounded clamp sites (plain ReLU) has
// nothing to quantize and must fail loudly instead of serving fp32 under an
// int8 label; int8 without fusion is a configuration error.
TEST(PlanInt8, RejectsUnboundedModelsAndUnfusedPlans) {
  const auto relu_model = zoo_model("tinycnn", core::Scheme::relu, 5);
  EXPECT_THROW((void)nn::InferencePlan::compile(relu_model, Shape{3, 32, 32},
                                                2, /*fuse=*/true,
                                                nn::Precision::int8, 4.0f),
               nn::PlanError);
  const auto bounded = zoo_model("tinycnn", core::Scheme::clip_act, 5);
  EXPECT_THROW((void)nn::InferencePlan::compile(bounded, Shape{3, 32, 32}, 2,
                                                /*fuse=*/false,
                                                nn::Precision::int8, 4.0f),
               std::invalid_argument);
  // Unknown input range: the first layer can't quantize, but deeper layers
  // (fed by bounded activations) still can.
  const auto deep = nn::InferencePlan::compile(bounded, Shape{3, 32, 32}, 2,
                                               /*fuse=*/true,
                                               nn::Precision::int8, -1.0f);
  EXPECT_GT(deep->int8_op_count(), 0u);
}

// Fault lifecycle on the int8 weight space: corrupting the live quantized
// bytes must inflate the clamp-event statistic (the serve-time detector's
// signal), and restore_int8_weights() must bring outputs back bit-identical
// to the clean run.
TEST(PlanInt8, WeightCorruptionRaisesClampEventsAndRestoreRecovers) {
  const auto model = zoo_model("tinycnn", core::Scheme::clip_act, 47);
  const auto sites = core::collect_activations(*model);
  for (const auto& site : sites) site->set_clamp_counting(true);
  ut::Rng rng(83);
  const NoGradGuard no_grad;
  const Tensor x = Tensor::randn(Shape{4, 3, 32, 32}, rng);
  const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 4,
                                               /*fuse=*/true,
                                               nn::Precision::int8,
                                               max_abs(x));
  ASSERT_GT(plan->int8_op_count(), 0u);
  const auto run = [&] {
    core::reset_clamp_counters(sites);
    std::memcpy(plan->input_view(4).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    const Tensor out = plan->execute(4).clone();
    std::uint64_t events = 0;
    for (const auto& site : sites) events += site->clamp_events();
    return std::make_pair(out, events);
  };
  const auto [clean, clean_events] = run();

  const auto [bytes, count] = plan->int8_weight_span(0);
  ASSERT_GT(count, 0u);
  // Saturate the first layer's quantized weights at -128 — the value
  // quantization never emits, only faults produce.
  for (std::size_t i = 0; i < count; ++i) bytes[i] = -128;
  const auto [corrupt, corrupt_events] = run();
  EXPECT_GT(corrupt_events, clean_events);

  plan->restore_int8_weights();
  const auto [recovered, recovered_events] = run();
  expect_bit_identical(recovered, clean, "post-restore int8 outputs");
  EXPECT_EQ(recovered_events, clean_events);
  EXPECT_THROW((void)plan->int8_weight_span(plan->int8_op_count()),
               std::out_of_range);
  for (const auto& site : sites) site->set_clamp_counting(false);
  core::reset_clamp_counters(sites);
}

// Unbounded ReLU models plan too (no bounds required at record time).
TEST(Plan, ReluSchemeMatchesEager) {
  const auto model = zoo_model("tinycnn", core::Scheme::relu, 13);
  const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 4);
  ut::Rng rng(17);
  const NoGradGuard no_grad;
  const Tensor x = Tensor::randn(Shape{4, 3, 32, 32}, rng);
  const Tensor want = model->forward(Variable(x, false)).value();
  std::memcpy(plan->input_view(4).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  expect_bit_identical(plan->execute(4), want, "relu tinycnn");
}

// Re-protection after compile stays visible: the plan reads each site's
// scheme and bound storage at execute time, so switching schemes on the
// live model switches the planned outputs with it.
TEST(Plan, SeesSchemeChangesAppliedAfterCompile) {
  const auto model = zoo_model("tinycnn", core::Scheme::clip_act, 23);
  const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 2);
  ut::Rng rng(29);
  const NoGradGuard no_grad;
  const Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  core::apply_protection(*model, core::Scheme::fitrelu);
  const Tensor want = model->forward(Variable(x, false)).value();
  std::memcpy(plan->input_view(2).data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  expect_bit_identical(plan->execute(2), want, "post-compile fitrelu");
}

#if FITACT_COUNT_ALLOCS
// Acceptance contract: steady-state execute performs zero heap
// allocations, at max_batch and at smaller batches over the same arena
// layout. Per batch size, two warm-up executes pay the one-time lazy costs
// (the GEMM pack buffer is thread_local), then eight measured executes
// must leave the global allocation counter untouched. The models cover
// every conv route (ag::conv2d_route): tinycnn's and vgg16's stride-1 convs
// run the direct kernel over a zero-bordered copy, vgg16's convs over 2x2
// maps run batch-wide, and resnet50 adds 1x1 convs that read their input in
// place and stride-2 convs that run im2col + sgemm.
TEST(PlanAllocations, SteadyStateExecuteDoesNotTouchTheHeap) {
  for (const char* name : {"tinycnn", "vgg16", "resnet50"}) {
    const auto model = zoo_model(name, core::Scheme::clip_act, 11);
    const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 4);
    ut::Rng rng(5);
    const Tensor x = Tensor::randn(Shape{4, 3, 32, 32}, rng);
    std::memcpy(plan->input_view(4).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    for (const std::int64_t b : {4, 1, 3}) {
      (void)plan->execute(b);
      (void)plan->execute(b);
      const std::uint64_t before =
          g_alloc_count.load(std::memory_order_relaxed);
      for (int i = 0; i < 8; ++i) (void)plan->execute(b);
      const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0u)
          << name << " batch " << b << ": steady-state execute allocated "
          << (after - before) << " times";
    }
  }
}
#endif  // FITACT_COUNT_ALLOCS

// The arena is allocated 64-byte aligned, so every value's slot (offsets
// are multiples of 16 floats) starts on a cache line whatever the heap's
// history: odd-sized allocations left live between compiles must not move
// the input or the output off one.
TEST(PlanArena, SlotsStayCacheLineAlignedWhateverTheHeapHistory) {
  std::vector<std::unique_ptr<char[]>> odd;
  for (const char* name : {"tinycnn", "resnet50"}) {
    const auto model = zoo_model(name, core::Scheme::clip_act, 13);
    for (std::size_t rep = 0; rep < 4; ++rep) {
      odd.push_back(std::make_unique<char[]>(24 + 40 * rep));
      const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 2);
      const auto in =
          reinterpret_cast<std::uintptr_t>(plan->input_view(1).data());
      const auto out =
          reinterpret_cast<std::uintptr_t>(plan->execute(1).data());
      EXPECT_EQ(in % 64, 0u) << name << " compile " << rep;
      EXPECT_EQ(out % 64, 0u) << name << " compile " << rep;
    }
  }
}

// summary() is what a traced perfbench run reads GEMM shapes from: every
// conv/linear op's line names its producer in its kind, carries its output
// dims after "-> [", and after "# " the module path of its weight (a fused
// op's label starts with its producer's path). Each conv/linear weight of
// the model shows up on exactly one such line, on the fused fp32 plan and
// on an int8 plan.
TEST(PlanSummary, GemmLinesNameProducerShapeAndWeight) {
  const auto model = zoo_model("resnet50", core::Scheme::clip_act, 19);
  std::set<std::string> weights;  // conv (rank 4) and linear (rank 2)
  for (const auto& p : model->named_parameters()) {
    const std::size_t rank = p.var.value().shape().rank();
    if (p.name.ends_with(".weight") && (rank == 4 || rank == 2)) {
      weights.insert(p.name);
    }
  }
  ASSERT_FALSE(weights.empty());
  for (const nn::Precision precision :
       {nn::Precision::fp32, nn::Precision::int8}) {
    const auto plan = nn::InferencePlan::compile(model, Shape{3, 32, 32}, 8,
                                                 /*fuse=*/true, precision,
                                                 4.0f);
    ASSERT_GT(plan->fused_op_count(), 0u);
    if (precision == nn::Precision::int8) {
      ASSERT_GT(plan->int8_op_count(), 0u);
    }
    std::set<std::string> seen;
    std::istringstream lines(plan->summary());
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("conv2d") == std::string::npos &&
          line.find("linear") == std::string::npos) {
        continue;
      }
      const auto eq = line.find(" = ");
      const auto paren = line.find('(');
      const auto arrow = line.find("-> [");
      const auto hash = line.find("# ");
      ASSERT_NE(eq, std::string::npos) << line;
      ASSERT_NE(paren, std::string::npos) << line;
      ASSERT_NE(arrow, std::string::npos) << line;
      ASSERT_NE(hash, std::string::npos) << line;
      const std::string kind = line.substr(eq + 3, paren - eq - 3);
      EXPECT_TRUE(kind.find("conv2d") != std::string::npos ||
                  kind.find("linear") != std::string::npos)
          << line;
      EXPECT_LT(arrow, hash) << line;
      std::string label = line.substr(hash + 2);
      label = label.substr(0, label.find(" + "));
      EXPECT_EQ(weights.count(label + ".weight"), 1u) << line;
      EXPECT_TRUE(seen.insert(label).second) << "second line for " << label;
    }
    EXPECT_EQ(seen.size(), weights.size());
  }
}

// A module with no record() override must fail at compile time (not at
// execute, not silently) with a message naming the module type.
class Unrecordable final : public nn::Module {
 public:
  Variable forward(const Variable& x) override { return x; }
};

TEST(PlanRecord, ModuleWithoutRecordOverrideFailsNamingTheType) {
  auto seq = std::make_shared<nn::Sequential>();
  seq->add(std::make_shared<nn::Flatten>());
  seq->add(std::make_shared<Unrecordable>());
  try {
    (void)nn::InferencePlan::compile(seq, Shape{3, 4, 4}, 1);
    FAIL() << "expected PlanError";
  } catch (const nn::PlanError& e) {
    EXPECT_NE(std::string(e.what()).find("Unrecordable"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("record"), std::string::npos)
        << e.what();
  }
}

// BatchNorm2d uses batch statistics in training mode, which a plan cannot
// reproduce; recording must require eval mode.
TEST(PlanRecord, TrainingModeBatchNormFails) {
  ut::Rng rng(4);
  auto seq = std::make_shared<nn::Sequential>();
  seq->add(std::make_shared<nn::BatchNorm2d>(3));
  seq->set_training(true);
  EXPECT_THROW((void)nn::InferencePlan::compile(seq, Shape{3, 4, 4}, 1),
               nn::PlanError);
}

// ServerOptions::validate is the single error path for the collapsed
// make_server configuration surface.
TEST(ServerOptions, ValidateRejectsBadConfigurations) {
  serve::ServerOptions good;
  EXPECT_NO_THROW(good.validate());

  serve::ServerOptions o = good;
  o.lanes = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = good;
  o.max_batch = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = good;
  o.batch_window = std::chrono::microseconds(-1);
  EXPECT_THROW(o.validate(), std::invalid_argument);

  o = good;
  o.detection = true;
  o.clamp_rate_threshold = -0.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);

  // A NaN threshold never compares below a batch's rate: detection would
  // be on but could never fire.
  o = good;
  o.detection = true;
  o.clamp_rate_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

// Int8 serving end to end: int8 lanes answer requests, corrupting a lane's
// live quantized weight bytes trips the clamp-rate detector, and the scrub
// (clean fp32 image + clean int8 image) restores bit-identical answers.
TEST(PlanServe, Int8LanesDetectAndRecoverFromQuantizedWeightCorruption) {
  ev::ExperimentScale scale = ev::ExperimentScale::scaled();
  scale.train_size = 96;
  scale.test_size = 48;
  scale.train_epochs = 2;
  scale.eval_samples = 24;
  ev::PreparedModel pm = ev::prepare_model("tinycnn", 10, scale, "", 31);
  (void)ev::protect_model(pm, core::Scheme::clip_act, scale);
  std::vector<Tensor> samples;
  for (std::int64_t i = 0; i < 8; ++i) {
    samples.push_back(pm.test->batch(i, 1, nullptr));
  }

  ev::ServeOptions options;
  options.server.lanes = 1;
  options.server.max_batch = 4;
  options.server.batch_window = std::chrono::microseconds(0);
  options.server.precision = nn::Precision::int8;
  const auto server = ev::make_server(pm, options);
  std::vector<Tensor> clean;
  for (const auto& s : samples) {
    clean.push_back(server->infer(s).logits.clone());
  }
  const std::uint64_t detections_before = server->stats().detections;

  server->with_lane(0, [](serve::Lane& lane) {
    ASSERT_TRUE(lane.plan != nullptr);
    ASSERT_GT(lane.plan->int8_op_count(), 0u);
    const std::size_t last = lane.plan->int8_op_count() - 1;
    const auto span = lane.plan->int8_weight_span(last);
    // Saturate the deepest quantized layer at +127. Its input is a clamped
    // activation map — nonnegative by construction — so coherent same-sign
    // weights blow every output past its bound on any nonzero sample: the
    // loud stuck-at fault the clamp-rate detector exists for, independent
    // of which test images happen to be served. (Sign-mixed or first-layer
    // corruptions can cancel inside the dot products and hide below
    // threshold — bounded activations confining them is the paper's point,
    // not a detection failure.)
    for (std::size_t i = 0; i < span.second; ++i) span.first[i] = 127;
  });

  std::vector<serve::RequestResult> results;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    results.push_back(server->infer(samples[i]));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_bit_identical(results[i].logits, clean[i],
                         "int8 post-corruption request " + std::to_string(i));
  }
  const serve::ServerStats stats = server->stats();
  EXPECT_GT(stats.detections, detections_before);
  EXPECT_GT(stats.recoveries, 0u);
}

}  // namespace
}  // namespace fitact
