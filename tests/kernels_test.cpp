// Cross-backend contract of the fp32 elementwise kernels (kernels.h): each
// one is bit-identical between the scalar and AVX2 backends, with a NaN
// result counting as equal to any other NaN. Inputs mix random values with
// the values hardware faults produce (NaN, +-Inf, +-0, subnormals, huge
// magnitudes), FitReLU exp arguments below expf's underflow threshold, span
// lengths that are not multiples of the vector width, and every bound
// extent (1, C, feat). FitReLU's exp-free lanes are checked against its
// formula evaluated in full, and table_expf, the exp inside fitrelu, is
// swept against std::exp. The fused fp32 variants of gemm_panel and
// conv_direct (the avx2 bodies and the AVX-512 ones the avx2 tier swaps
// in) are held to one fma chain, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autograd/op_kernels.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"

namespace fitact::kern {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool same(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Element-wise `same`; the vectors hold the scalar-backend (or reference)
/// result first, the result under test second.
void expect_same(const std::vector<float>& a, const std::vector<float>& b,
                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) {
      ADD_FAILURE() << what << ", element " << i << ": " << std::hexfloat
                    << a[i] << " vs " << b[i];
      return;
    }
  }
}

/// Uniform values in [lo, hi) with a special value at every 5th slot (which
/// special goes where depends on the seed).
std::vector<float> values(std::int64_t n, std::uint64_t seed, float lo,
                          float hi) {
  static constexpr float kSpecials[] = {
      kNaN,    kInf,   -kInf,   0.0f,   -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -3e-39f, 1e-40f, 1e30f,   -1e30f, std::numeric_limits<float>::max(),
      200.0f,  -200.0f};
  constexpr std::size_t kNumSpecials = std::size(kSpecials);
  ut::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 5 == 2 ? kSpecials[(i / 5 + seed) % kNumSpecials]
                      : rng.uniform(lo, hi);
  }
  return v;
}

/// Runs fn with the given backend forced, restoring the previous one.
template <class Fn>
auto on(Backend b, Fn fn) {
  const BackendGuard guard(b);
  return fn();
}

class KernelsCrossBackend : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2_supported()) GTEST_SKIP() << "host has no AVX2+FMA backend";
  }
};

// Span lengths around the 8-lane vector width.
const std::int64_t kLengths[] = {0, 1, 7, 8, 9, 16, 31, 100};

TEST_F(KernelsCrossBackend, ReluAddBias) {
  for (const std::int64_t n : kLengths) {
    const auto a = values(n, 1 + n, -4.0f, 4.0f);
    const auto b = values(n, 101 + n, -4.0f, 4.0f);
    const std::string at = " n=" + std::to_string(n);
    const auto relu_on = [&](Backend be) {
      std::vector<float> o(a.size());
      on(be, [&] { kern::relu(a.data(), o.data(), n); });
      return o;
    };
    expect_same(relu_on(Backend::scalar), relu_on(Backend::avx2),
                "relu" + at);
    const auto add_on = [&](Backend be) {
      std::vector<float> o(a.size());
      on(be, [&] { kern::add(a.data(), b.data(), o.data(), n); });
      return o;
    };
    expect_same(add_on(Backend::scalar), add_on(Backend::avx2), "add" + at);
    const auto bias_row_on = [&](Backend be) {
      std::vector<float> o = a;
      on(be, [&] { kern::bias_add_row(o.data(), b.data(), n); });
      return o;
    };
    expect_same(bias_row_on(Backend::scalar), bias_row_on(Backend::avx2),
                "bias_add_row" + at);
    for (const float value : {0.75f, -0.0f, kNaN, -kInf}) {
      const auto bias_const_on = [&](Backend be) {
        std::vector<float> o = a;
        on(be, [&] { kern::bias_add_const(o.data(), value, n); });
        return o;
      };
      expect_same(bias_const_on(Backend::scalar),
                  bias_const_on(Backend::avx2),
                  "bias_add_const" + at + " value=" + std::to_string(value));
    }
  }
}

/// Activation geometry: n = batch * channels * hw elements, feat = c * hw.
struct Geometry {
  std::int64_t batch, channels, hw;
};

// Per-channel spans shorter than, equal to and longer than a vector, FC
// rows (hw = 1), and partial trailing vectors everywhere.
const Geometry kGeometries[] = {
    {3, 5, 7}, {2, 4, 16}, {4, 13, 1}, {1, 3, 37}, {2, 8, 1}, {2, 6, 4}};

TEST_F(KernelsCrossBackend, BoundedActivationsEveryBoundExtent) {
  std::uint64_t seed = 1000;
  for (const Geometry& g : kGeometries) {
    const std::int64_t feat = g.channels * g.hw;
    const std::int64_t n = g.batch * feat;
    // Wide input range: x up to 200 against bounds near 1 drives FitReLU's
    // exp argument -|k(l - x)| far below expf's underflow threshold.
    const auto x = values(n, ++seed, -5.0f, 200.0f);
    // Single bounds of each sign and the non-finite ones, then per-channel
    // and per-neuron rows.
    const std::vector<float> bounds[] = {
        {1.5f},
        {-0.5f},
        {kNaN},
        {-kInf},
        values(g.channels, ++seed, -1.0f, 3.0f),
        values(feat, ++seed, -1.0f, 3.0f),
    };
    for (const auto& bound : bounds) {
      const auto extent = static_cast<std::int64_t>(bound.size());
      const std::string at =
          " batch=" + std::to_string(g.batch) +
          " C=" + std::to_string(g.channels) + " hw=" + std::to_string(g.hw) +
          " bound_numel=" + std::to_string(extent) +
          " bound[0]=" + std::to_string(bound[0]);

      for (const bool count : {false, true}) {
        for (const bool saturate : {false, true}) {
          const auto clip_on = [&](Backend be) {
            std::vector<float> o(x.size());
            const std::uint64_t events = on(be, [&] {
              return clipped_relu(x.data(), bound.data(), extent, feat, g.hw,
                                  saturate, o.data(), n, count);
            });
            o.push_back(static_cast<float>(events));
            return o;
          };
          expect_same(clip_on(Backend::scalar), clip_on(Backend::avx2),
                      "clipped_relu" + at + " saturate=" +
                          std::to_string(saturate) +
                          " count=" + std::to_string(count));
        }
        for (const float k : {8.0f, 0.5f, -3.0f, 0.0f, kInf}) {
          const auto fitrelu_on = [&](Backend be) {
            std::vector<float> o(x.size());
            const std::uint64_t events = on(be, [&] {
              return fitrelu(x.data(), bound.data(), extent, feat, g.hw, k,
                             o.data(), n, count);
            });
            o.push_back(static_cast<float>(events));
            return o;
          };
          expect_same(fitrelu_on(Backend::scalar), fitrelu_on(Backend::avx2),
                      "fitrelu" + at + " k=" + std::to_string(k) +
                          " count=" + std::to_string(count));
        }
      }
      // In place, as plans run it.
      const auto fitrelu_in_place_on = [&](Backend be) {
        std::vector<float> o = x;
        (void)on(be, [&] {
          return fitrelu(o.data(), bound.data(), extent, feat, g.hw, 8.0f,
                         o.data(), n, true);
        });
        return o;
      };
      expect_same(fitrelu_in_place_on(Backend::scalar),
                  fitrelu_in_place_on(Backend::avx2),
                  "fitrelu in place" + at);
    }
  }
}

// A NaN is a clamp event: the cascade writes 0 or the bound for it (both
// of its compares fail) and the tally counts it, on every backend, whether
// the NaN sits in a full 8-lane vector or in the n % 8 tail, under a single
// bound or a per-neuron bound row.
TEST(KernelsNaN, CountedAsClampEventInVectorBodyAndTail) {
  const std::int64_t n = 11;  // one full vector, then a 3-element tail
  const std::vector<float> bound_row(static_cast<std::size_t>(n), 1.0f);
  for (const Backend be :
       {Backend::scalar, avx2_supported() ? Backend::avx2 : Backend::scalar}) {
    const BackendGuard guard(be);
    for (const std::int64_t at : {std::int64_t{3}, std::int64_t{9}}) {
      std::vector<float> x(static_cast<std::size_t>(n), 0.5f);
      x[static_cast<std::size_t>(at)] = kNaN;
      for (const std::int64_t extent : {std::int64_t{1}, n}) {
        const std::string where = std::string(backend_name(be)) +
                                  " NaN at " + std::to_string(at) +
                                  " bound_numel=" + std::to_string(extent);
        for (const bool saturate : {false, true}) {
          std::vector<float> o(x.size());
          EXPECT_EQ(clipped_relu(x.data(), bound_row.data(), extent, n, 1,
                                 saturate, o.data(), n, true),
                    1u)
              << "clipped_relu, " << where;
          EXPECT_EQ(o[static_cast<std::size_t>(at)], saturate ? 1.0f : 0.0f)
              << "clipped_relu output, " << where;
        }
        std::vector<float> o(x.size());
        EXPECT_EQ(fitrelu(x.data(), bound_row.data(), extent, n, 1, 8.0f,
                          o.data(), n, true),
                  1u)
            << "fitrelu, " << where;
      }
    }
  }
}

/// fitrelu's per-element formula (kernels.h) evaluated in full, with no
/// shortcut: the exp and the division run for every x > 0.
float fitrelu_full(float x, float l, float k) {
  if (x <= 0.0f) return 0.0f;
  const float t = k * (l - x);
  const float e = table_expf(-std::fabs(t));
  return x * ((t >= 0.0f ? 1.0f : e) / (1.0f + e));
}

// Both backends skip the exp where the output is exactly 0 or x: x <= 0, or
// t = k(l - x) past the point where 1 + exp(-t) rounds to 1 (just above
// 24 ln 2 = 16.64; the kernels use 17). The expected values come from
// fitrelu_full, not from the other backend, so a threshold that is wrong
// the same way on both backends still fails. Lanes sweep t over [10, 24],
// straddle t = 17 and x = 0 by float neighbours, and carry NaN and +-Inf
// in x, l and k. Under per-neuron bounds they are laid out in 8-lane
// vectors that are all exp-free, all exp or mixed, and every prefix length
// runs the masked tail; single bounds take the same x values. The event
// count is !(x <= l) whatever path a lane takes.
TEST(KernelsFitRelu, ExpFreeLanesMatchTheFullFormula) {
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  constexpr float kMin = std::numeric_limits<float>::min();
  std::vector<Backend> backends{Backend::scalar};
  if (avx2_supported()) backends.push_back(Backend::avx2);
  for (const float k : {8.0f, 1.0f, 0.5f, -3.0f, 0.0f, kNaN, kInf, -kInf}) {
    // Candidate (x, l) lanes.
    std::vector<std::pair<float, float>> lanes;
    const bool finite_k = std::isfinite(k) && k != 0.0f;
    for (const float x : {0.5f, 3.0f, kDenorm, 1e-30f, 100.0f}) {
      for (int step = 0; step <= 112; ++step) {  // t = 10, 10.125, ..., 24
        const float t = 10.0f + 0.125f * static_cast<float>(step);
        lanes.emplace_back(x, x + (finite_k ? t / k : t));
      }
      if (finite_k) {  // l - x = 17 / k, then its float neighbours
        float up = x + 17.0f / k;
        float down = up;
        lanes.emplace_back(x, up);
        for (int i = 0; i < 3; ++i) {
          up = std::nextafter(up, kInf);
          down = std::nextafter(down, -kInf);
          lanes.emplace_back(x, up);
          lanes.emplace_back(x, down);
        }
      }
    }
    // x straddling 0: signed zeros, denormals and the smallest normals.
    for (const float x : {0.0f, -0.0f, kDenorm, -kDenorm, 1e-40f, -1e-40f,
                          kMin, -kMin, -1.0f, -kInf}) {
      for (const float l : {1.0f, 3.0f, 1e-39f, 0.0f, -2.0f}) {
        lanes.emplace_back(x, l);
      }
    }
    for (const float special : {kNaN, kInf, -kInf}) {
      for (const float other : {0.5f, 3.0f, -1.0f, 0.0f}) {
        lanes.emplace_back(special, other);
        lanes.emplace_back(other, special);
      }
      lanes.emplace_back(special, special);
    }
    // Split them by path. The 17 only shapes the layout; expected values
    // never use it.
    std::vector<std::pair<float, float>> free_lanes;
    std::vector<std::pair<float, float>> exp_lanes;
    for (const auto& lane : lanes) {
      const auto [x, l] = lane;
      (x <= 0.0f || k * (l - x) >= 17.0f ? free_lanes : exp_lanes)
          .push_back(lane);
    }
    ASSERT_FALSE(free_lanes.empty()) << "k=" << k;
    ASSERT_FALSE(exp_lanes.empty()) << "k=" << k;
    // Vectors by pattern (F exp-free, E exp) until both lists are used up.
    static constexpr const char* kPatterns[] = {
        "FFFFFFFF", "EEEEEEEE", "FEFEFEFE", "FFFFFFFE", "EFFFFFFF",
        "EEEEEEEF"};
    std::vector<float> x;
    std::vector<float> l;
    std::size_t next_free = 0;
    std::size_t next_exp = 0;
    for (std::size_t p = 0;
         next_free < free_lanes.size() || next_exp < exp_lanes.size(); ++p) {
      for (const char* c = kPatterns[p % std::size(kPatterns)]; *c; ++c) {
        const auto& lane =
            *c == 'F' ? free_lanes[next_free++ % free_lanes.size()]
                      : exp_lanes[next_exp++ % exp_lanes.size()];
        x.push_back(lane.first);
        l.push_back(lane.second);
      }
    }
    const auto size = static_cast<std::int64_t>(x.size());
    for (std::int64_t n = size; n > size - 8; --n) {  // every tail length
      // Bound extent n takes the per-neuron layout above, extent 1 one
      // bound for every lane.
      const auto check = [&](const float* bound, std::int64_t extent,
                             const std::string& what) {
        std::vector<float> want(static_cast<std::size_t>(n));
        std::uint64_t want_events = 0;
        for (std::size_t i = 0; i < want.size(); ++i) {
          const float li = bound[extent == 1 ? 0 : i];
          want[i] = fitrelu_full(x[i], li, k);
          want_events += !(x[i] <= li);
        }
        for (const Backend be : backends) {
          for (const bool count : {false, true}) {
            std::vector<float> got(want.size());
            const std::uint64_t events = on(be, [&] {
              return fitrelu(x.data(), bound, extent, n, 1, k, got.data(), n,
                             count);
            });
            const std::string at = std::string(backend_name(be)) +
                                   " k=" + std::to_string(k) +
                                   " n=" + std::to_string(n) + " " + what +
                                   " count=" + std::to_string(count);
            expect_same(want, got, "fitrelu vs full formula, " + at);
            EXPECT_EQ(events, count ? want_events : 0u) << at;
          }
        }
      };
      check(l.data(), n, "per-neuron");
      for (const float& single : {2.625f, 0.0f, kInf}) {
        check(&single, 1, "bound=" + std::to_string(single));
      }
    }
  }
}

/// True where glibc's expf is this algorithm with the same fused steps:
/// glibc >= 2.28 selects its FMA build on x86-64 hosts with FMA and AVX2.
bool std_exp_is_table_expf() {
#if defined(__GLIBC__) && defined(__x86_64__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
  return avx2_supported();
#else
  return false;
#endif
}

// The one float in [-103.97, 0] whose exp depends on fusing the range
// reduction r = fma(32/ln2, x, -k): left unfused, the result is 1 ulp low.
// (An exhaustive search found no input that the fusion of k or of the cubic
// changes.)
constexpr float kReductionHardCase = -0x1.f8cbb2p+5f;
constexpr float kReductionHardCaseExp = 0x1.f45326p-92f;

TEST_F(KernelsCrossBackend, FitReluFusesTheExpRangeReduction) {
  // l = 0 and k = 1 make t = -x exactly, so exp's argument is the hard case;
  // 9 elements run one full vector and a one-lane tail.
  const std::int64_t n = 9;
  const std::vector<float> x(n, -kReductionHardCase);
  const float bound = 0.0f;
  const float e = kReductionHardCaseExp;
  const float want = x[0] * (e / (1.0f + e));
  for (const Backend be : {Backend::scalar, Backend::avx2}) {
    std::vector<float> o(x.size());
    (void)on(be, [&] {
      return fitrelu(x.data(), &bound, 1, n, 1, 1.0f, o.data(), n, false);
    });
    for (const float v : o) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v),
                std::bit_cast<std::uint32_t>(want))
          << backend_name(be) << std::hexfloat << ": " << v << " vs " << want;
    }
  }
}

// ---- fp32 FMA variants -----------------------------------------------------
//
// gemm_panel and conv_direct have one body per variant (fp32_variants).
// Every variant after scalar, which runs the unfused chain, runs the fused
// one: each element starts from C's value (gemm_panel) or +0 (conv_direct)
// and takes one fma per term, in k order or (c, i, j) tap order, border
// zeros included. The avx2 body is held to that chain evaluated here with
// std::fma, and every later variant to the avx2 body, bit for bit.

/// gemm_panel's fused chain, element by element.
void panel_chain(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                 float alpha, const float* ap, const float* b,
                 std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < mb; ++i) {
    for (std::int64_t j = 0; j < nb; ++j) {
      float acc = c[i * ldc + j];
      for (std::int64_t p = 0; p < kb; ++p) {
        acc = std::fma(alpha * ap[i * kb + p], b[p * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

/// conv_direct's fused chain, element by element.
void conv_chain(std::int64_t out_c, std::int64_t in_c, std::int64_t hp,
                std::int64_t wp, std::int64_t kh, std::int64_t kw,
                const float* xp, const float* w, float* out) {
  const std::int64_t oh = hp - kh + 1;
  const std::int64_t ow = wp - kw + 1;
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        float acc = 0.0f;
        const float* wt = w + o * in_c * kh * kw;
        for (std::int64_t c = 0; c < in_c; ++c) {
          for (std::int64_t i = 0; i < kh; ++i) {
            for (std::int64_t j = 0; j < kw; ++j) {
              acc = std::fma(*wt++, xp[(c * hp + y + i) * wp + x + j], acc);
            }
          }
        }
        out[(o * oh + y) * ow + x] = acc;
      }
    }
  }
}

/// Uniform values in [-2, 2) with NaN, +Inf and -Inf at three seeded
/// positions when `specials` is set. values() puts a special in every
/// fifth slot, which would turn nearly every 40-term chain into NaN.
std::vector<float> operand(std::size_t n, std::uint64_t seed, bool specials) {
  ut::Rng rng(seed);
  std::vector<float> v(n);
  for (float& e : v) e = rng.uniform(-2.0f, 2.0f);
  if (specials && n > 0) {
    v[rng.next_u64() % n] = kNaN;
    v[rng.next_u64() % n] = kInf;
    v[rng.next_u64() % n] = -kInf;
  }
  return v;
}

TEST(KernelsFp32Variants, EveryFusedVariantMatchesTheAvx2Body) {
  const Fp32Variant* variants = nullptr;
  const std::size_t nv = fp32_variants(&variants);
  if (nv < 2) GTEST_SKIP() << "host has no AVX2+FMA backend";
  const Fp32Variant& avx2 = variants[1];
  ASSERT_STREQ(avx2.name, "avx2");
  std::uint64_t seed = 7000;

  // gemm_panel: rows straddle the 4- and 8-row tiles, columns the 16- and
  // 32-column ones, and kb sgemm's 256-deep K block; B and C sit in wider
  // matrices (ldb, ldc > nb), every third case carries NaN and Inf in A, B
  // and C, and alpha != 1 takes the multiply the unit path skips.
  struct PanelCase {
    std::int64_t mb, nb, kb;
  };
  std::vector<PanelCase> panels;
  for (const std::int64_t mb : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17}) {
    for (const std::int64_t nb : {1, 8, 15, 16, 17, 31, 32, 33, 48, 65}) {
      for (const std::int64_t kb : {1, 7, 40}) panels.push_back({mb, nb, kb});
    }
  }
  for (const std::int64_t kb : {255, 256, 257}) {
    panels.push_back({9, 33, kb});
    panels.push_back({16, 64, kb});
  }
  for (const PanelCase& pc : panels) {
    for (const float alpha : {1.0f, -0.75f}) {
      const bool specials = ++seed % 3 == 0;
      const std::int64_t ldb = pc.nb + 3;
      const std::int64_t ldc = pc.nb + 5;
      const auto ap = operand(static_cast<std::size_t>(pc.mb * pc.kb), seed,
                              specials);
      const auto b = operand(static_cast<std::size_t>(pc.kb * ldb), seed + 1,
                             specials);
      const auto c0 = operand(static_cast<std::size_t>(pc.mb * ldc), seed + 2,
                              specials);
      const std::string at = " mb=" + std::to_string(pc.mb) +
                             " nb=" + std::to_string(pc.nb) +
                             " kb=" + std::to_string(pc.kb) +
                             " alpha=" + std::to_string(alpha) +
                             (specials ? " NaN/Inf" : "");
      const auto run = [&](GemmPanelFn fn) {
        std::vector<float> c = c0;
        fn(pc.mb, pc.nb, pc.kb, alpha, ap.data(), b.data(), ldb, c.data(),
           ldc);
        return c;
      };
      std::vector<float> want = c0;
      panel_chain(pc.mb, pc.nb, pc.kb, alpha, ap.data(), b.data(), ldb,
                  want.data(), ldc);
      const std::vector<float> got = run(avx2.gemm_panel);
      expect_same(want, got, "gemm_panel avx2 vs fma chain" + at);
      for (std::size_t v = 2; v < nv; ++v) {
        expect_same(got, run(variants[v].gemm_panel),
                    std::string("gemm_panel ") + variants[v].name +
                        " vs avx2" + at);
      }
    }
  }

  // conv_direct: kernels 1, 3 and 5 at the pads that keep the map, square
  // maps of side 1 to 32 and a 3x5 map, in_c 1, 3 and 32 (32 only on maps
  // up to 8 wide, to bound the reference's cost), and out_c around the 4-,
  // 8- and 16-channel tiles (all of 1 to 17 on maps up to 8 wide). Every
  // other case puts NaN and Inf in the input and an Inf weight on tap
  // (0, 0, 0), which meets a border zero wherever the kernel is wider than
  // 1: Inf * 0 = NaN there, since padding taps are multiplied.
  std::vector<std::pair<std::int64_t, std::int64_t>> maps{{3, 5}};
  for (std::int64_t side = 1; side <= 32; ++side) maps.emplace_back(side, side);
  int cycle = 0;
  for (const auto& [kernel, pad] :
       {std::pair<std::int64_t, std::int64_t>{1, 0}, {3, 1}, {5, 2}}) {
    for (const auto& [h, w] : maps) {
      const bool small = std::max(h, w) <= 8;
      std::vector<std::int64_t> outs{3, 8, 17};
      if (small) {
        outs.resize(17);
        std::iota(outs.begin(), outs.end(), 1);
      }
      for (const std::int64_t out_c : outs) {
        const std::int64_t in_c =
            std::array<std::int64_t, 3>{1, 3, small ? 32 : 2}[cycle % 3];
        const bool specials = ++cycle % 2 == 0;
        const std::int64_t hp = h + 2 * pad;
        const std::int64_t wp = w + 2 * pad;
        std::vector<float> xp(static_cast<std::size_t>(in_c * hp * wp), 0.0f);
        const auto interior = operand(static_cast<std::size_t>(in_c * h * w),
                                      ++seed, specials);
        for (std::int64_t c = 0; c < in_c; ++c) {
          for (std::int64_t y = 0; y < h; ++y) {
            for (std::int64_t x = 0; x < w; ++x) {
              xp[static_cast<std::size_t>((c * hp + y + pad) * wp + x + pad)] =
                  interior[static_cast<std::size_t>((c * h + y) * w + x)];
            }
          }
        }
        std::vector<float> wt = operand(
            static_cast<std::size_t>(out_c * in_c * kernel * kernel), ++seed,
            false);
        if (specials) wt[0] = kInf;
        const std::string at = " k=" + std::to_string(kernel) + " map " +
                               std::to_string(h) + "x" + std::to_string(w) +
                               " channels " + std::to_string(in_c) + "->" +
                               std::to_string(out_c) +
                               (specials ? " NaN/Inf" : "");
        const std::size_t out_n = static_cast<std::size_t>(out_c * h * w);
        const auto run = [&](ConvDirectFn fn) {
          std::vector<float> out(out_n, kNaN);
          fn(out_c, in_c, hp, wp, kernel, kernel, xp.data(), wt.data(),
             out.data());
          return out;
        };
        std::vector<float> want(out_n);
        conv_chain(out_c, in_c, hp, wp, kernel, kernel, xp.data(), wt.data(),
                   want.data());
        const std::vector<float> got = run(avx2.conv_direct);
        expect_same(want, got, "conv_direct avx2 vs fma chain" + at);
        for (std::size_t v = 2; v < nv; ++v) {
          expect_same(got, run(variants[v].conv_direct),
                      std::string("conv_direct ") + variants[v].name +
                          " vs avx2" + at);
        }
      }
    }
  }
  if (nv < 3) {
    GTEST_SKIP() << "host has no AVX-512F: checked the avx2 body against "
                    "the fma chain, no other fused variant runs here";
  }
}

TEST(TableExpf, MatchesStdExpOnAStridedSweepOfAllFloats) {
  const bool exact = std_exp_is_table_expf();
  std::uint64_t checked = 0;
  // A prime stride visits every exponent and sign with varied mantissas.
  for (std::uint64_t u = 0; u <= 0xffffffffull; u += 997) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    const float got = table_expf(x);
    const float want = std::exp(x);
    ++checked;
    if (std::isnan(want)) {
      ASSERT_TRUE(std::isnan(got)) << std::hexfloat << x;
      continue;
    }
    const auto gi = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(got));
    const auto wi =
        static_cast<std::int64_t>(std::bit_cast<std::int32_t>(want));
    if (exact) {
      ASSERT_EQ(gi, wi) << "x = " << std::hexfloat << x << ": " << got
                        << " vs std::exp " << want;
    } else {
      ASSERT_LE(std::llabs(gi - wi), 1)
          << "x = " << std::hexfloat << x << ": " << got << " vs std::exp "
          << want;
    }
  }
  EXPECT_GT(checked, 4'000'000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(table_expf(kReductionHardCase)),
            std::bit_cast<std::uint32_t>(kReductionHardCaseExp));
  EXPECT_EQ(table_expf(-kInf), 0.0f);
  EXPECT_EQ(table_expf(kInf), kInf);
  EXPECT_TRUE(std::isnan(table_expf(kNaN)));
}

TEST(TableExpf, FitReluMatchesTheStdExpSigmoidForm) {
  // Where std::exp is table_expf, the kernel reproduces the two-branch
  // stable_sigmoid form bit for bit, on both backends.
  if (!std_exp_is_table_expf()) GTEST_SKIP() << "std::exp is another expf";
  const Geometry g{4, 6, 9};
  const std::int64_t feat = g.channels * g.hw;
  const std::int64_t n = g.batch * feat;
  const auto x = values(n, 5, -5.0f, 40.0f);
  const auto bound = values(feat, 6, 0.0f, 6.0f);
  const float k = 8.0f;
  std::vector<float> want(x.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const float xi = x[static_cast<std::size_t>(i)];
    const float li = bound[static_cast<std::size_t>(i % feat)];
    want[static_cast<std::size_t>(i)] =
        xi <= 0.0f ? 0.0f : xi * ag::stable_sigmoid(k * (li - xi));
  }
  for (const Backend be : {Backend::scalar, Backend::avx2}) {
    std::vector<float> got(x.size());
    (void)on(be, [&] {
      return fitrelu(x.data(), bound.data(), feat, feat, g.hw, k, got.data(),
                     n, false);
    });
    expect_same(want, got,
                std::string("fitrelu vs stable_sigmoid on ") +
                    backend_name(be));
  }
}

}  // namespace
}  // namespace fitact::kern
