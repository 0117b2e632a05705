// Int8 kernel fuzz sweep (the quantized-path analogue of gemm_fuzz_test).
//
// The int8 contract is stronger than fp32 GEMM's error bound: every entry
// point — GEMM, quantize, the dequantize kernels — must be bit-identical
// across the scalar and AVX2 backends (kernels.h, int8 section). So where
// gemm_fuzz_test compares to a forward-error bound, this suite compares
// with EXPECT_EQ / memcmp: int32 accumulators against an int64 naive
// reference (which also proves no int32 overflow), quantized bytes and
// dequantized float bit patterns scalar-vs-AVX2. The dequantization *accuracy*
// test bounds the int8 path against a double-precision fp reference by the
// per-channel scales, mirroring the quantization error analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "quant/int8.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"

namespace fitact {
namespace {

std::vector<kern::Backend> backends_under_test() {
  return {kern::Backend::scalar,
          kern::avx2_supported() ? kern::Backend::avx2 : kern::Backend::scalar};
}

struct GemmCase {
  std::int64_t m = 1, n = 1, k = 1;
  std::int64_t pad_a = 0, pad_b = 0, pad_c = 0;  ///< leading-dim slack
};

std::string describe(const GemmCase& c) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " pads=" + std::to_string(c.pad_a) +
         "/" + std::to_string(c.pad_b) + "/" + std::to_string(c.pad_c);
}

/// Runs one shape under every backend against an int64 naive reference.
/// Values span the full int8 range including -128 (the value quantization
/// never emits but a fault bit flip can).
void run_gemm_case(const GemmCase& c, ut::Rng& rng, const std::string& ctx) {
  const std::int64_t lda = c.k + c.pad_a;
  const std::int64_t ldb = c.k + c.pad_b;
  const std::int64_t ldc = c.n + c.pad_c;
  std::vector<std::int8_t> a(static_cast<std::size_t>(c.m * lda));
  std::vector<std::int8_t> b(static_cast<std::size_t>(c.n * ldb));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.next_int(-128, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.next_int(-128, 127));

  std::vector<std::int64_t> ref(static_cast<std::size_t>(c.m * c.n), 0);
  for (std::int64_t i = 0; i < c.m; ++i) {
    for (std::int64_t j = 0; j < c.n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < c.k; ++p) {
        acc += static_cast<std::int64_t>(a[static_cast<std::size_t>(
                   i * lda + p)]) *
               static_cast<std::int64_t>(b[static_cast<std::size_t>(
                   j * ldb + p)]);
      }
      ref[static_cast<std::size_t>(i * c.n + j)] = acc;
    }
  }

  constexpr std::int32_t kSentinel = 0x5AFE1234;
  const auto check = [&](const std::int32_t* out, const std::string& who) {
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        // int64 equality against the int32 result also proves the
        // accumulation never needed more than 32 bits for these shapes.
        EXPECT_EQ(static_cast<std::int64_t>(
                      out[static_cast<std::size_t>(i * ldc + j)]),
                  ref[static_cast<std::size_t>(i * c.n + j)])
            << ctx << " " << who << " element (" << i << ", " << j << ")";
      }
      for (std::int64_t j = c.n; j < ldc; ++j) {
        EXPECT_EQ(out[static_cast<std::size_t>(i * ldc + j)], kSentinel)
            << ctx << " " << who << " wrote into ldc slack at (" << i << ", "
            << j << ")";
      }
    }
  };
  for (const kern::Backend backend : backends_under_test()) {
    const kern::BackendGuard guard(backend);
    std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * ldc),
                                  kSentinel);
    kern::gemm_i8_dot(c.m, c.n, c.k, a.data(), lda, b.data(), ldb, out.data(),
                      ldc);
    check(out.data(),
          std::string("backend ") + kern::backend_name(backend));
  }
  // The dispatcher binds one microkernel per backend (on a VNNI host the
  // avx2 tier upgrades its GEMM), so also run every variant this host can
  // execute directly — the plain avx2 kernel must stay bit-exact even where
  // dispatch bypasses it.
  const kern::GemmI8Variant* variants = nullptr;
  const std::size_t nv = kern::gemm_i8_variants(&variants);
  for (std::size_t v = 0; v < nv; ++v) {
    std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * ldc),
                                  kSentinel);
    variants[v].fn(c.m, c.n, c.k, a.data(), lda, b.data(), ldb, out.data(),
                   ldc);
    check(out.data(), std::string("variant ") + variants[v].name);
  }
}

/// The u8xs8 companion sweep: one operand constrained to [0,127] (the
/// contract FitAct's clamp guarantees for quantized activations), the other
/// spanning the full int8 range including -128. Both a_unsigned orientations
/// run under the dispatched entry point per backend and under every variant
/// this host executes, against the same int64 naive reference — so every
/// u8xs8 kernel is pinned bit-identical to the signed scalar GEMM on the
/// same bytes.
void run_gemm_u8_case(const GemmCase& c, ut::Rng& rng, const std::string& ctx) {
  const std::int64_t lda = c.k + c.pad_a;
  const std::int64_t ldb = c.k + c.pad_b;
  const std::int64_t ldc = c.n + c.pad_c;
  for (const bool a_unsigned : {true, false}) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(c.m * lda));
    std::vector<std::int8_t> b(static_cast<std::size_t>(c.n * ldb));
    for (auto& v : a)
      v = static_cast<std::int8_t>(a_unsigned ? rng.next_int(0, 127)
                                              : rng.next_int(-128, 127));
    for (auto& v : b)
      v = static_cast<std::int8_t>(a_unsigned ? rng.next_int(-128, 127)
                                              : rng.next_int(0, 127));

    std::vector<std::int64_t> ref(static_cast<std::size_t>(c.m * c.n), 0);
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        std::int64_t acc = 0;
        for (std::int64_t p = 0; p < c.k; ++p) {
          acc += static_cast<std::int64_t>(
                     a[static_cast<std::size_t>(i * lda + p)]) *
                 static_cast<std::int64_t>(
                     b[static_cast<std::size_t>(j * ldb + p)]);
        }
        ref[static_cast<std::size_t>(i * c.n + j)] = acc;
      }
    }

    constexpr std::int32_t kSentinel = 0x5AFE1234;
    const std::string orient = a_unsigned ? " a_unsigned" : " b_unsigned";
    const auto check = [&](const std::int32_t* out, const std::string& who) {
      for (std::int64_t i = 0; i < c.m; ++i) {
        for (std::int64_t j = 0; j < c.n; ++j) {
          EXPECT_EQ(static_cast<std::int64_t>(
                        out[static_cast<std::size_t>(i * ldc + j)]),
                    ref[static_cast<std::size_t>(i * c.n + j)])
              << ctx << orient << " " << who << " element (" << i << ", " << j
              << ")";
        }
        for (std::int64_t j = c.n; j < ldc; ++j) {
          EXPECT_EQ(out[static_cast<std::size_t>(i * ldc + j)], kSentinel)
              << ctx << orient << " " << who << " wrote into ldc slack at ("
              << i << ", " << j << ")";
        }
      }
    };
    for (const kern::Backend backend : backends_under_test()) {
      const kern::BackendGuard guard(backend);
      std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * ldc),
                                    kSentinel);
      kern::gemm_i8u8_dot(c.m, c.n, c.k, a.data(), lda, b.data(), ldb,
                          out.data(), ldc, a_unsigned);
      check(out.data(), std::string("backend ") + kern::backend_name(backend));
    }
    const kern::GemmI8U8Variant* variants = nullptr;
    const std::size_t nv = kern::gemm_i8u8_variants(&variants);
    for (std::size_t v = 0; v < nv; ++v) {
      std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * ldc),
                                    kSentinel);
      variants[v].fn(c.m, c.n, c.k, a.data(), lda, b.data(), ldb, out.data(),
                     ldc, a_unsigned);
      check(out.data(), std::string("variant ") + variants[v].name);
    }
  }
}

TEST(Int8GemmFuzz, PinnedBlockBoundaryShapes) {
  ut::Rng rng(20250801);
  // k pins straddle the 32-wide vector block; n pins straddle the AVX2
  // kernel's 4-column tile; m = 1 covers the linear single-row case.
  const std::vector<GemmCase> cases = {
      {1, 1, 1, 0, 0, 0},    {1, 1, 32, 0, 0, 0},   {1, 4, 31, 0, 0, 0},
      {1, 5, 33, 0, 0, 0},   {3, 3, 31, 1, 2, 3},   {4, 4, 32, 0, 0, 0},
      {5, 5, 33, 2, 1, 1},   {2, 16, 64, 0, 0, 0},  {7, 3, 65, 0, 3, 2},
      {8, 12, 96, 0, 0, 0},  {16, 17, 128, 1, 1, 1}, {9, 1, 160, 0, 0, 0},
      {1, 31, 320, 0, 0, 4},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    run_gemm_case(cases[i], rng,
                  "pinned case " + std::to_string(i) + " [" +
                      describe(cases[i]) + "]");
    run_gemm_u8_case(cases[i], rng,
                     "pinned u8 case " + std::to_string(i) + " [" +
                         describe(cases[i]) + "]");
  }
}

TEST(Int8GemmFuzz, RandomizedSweep) {
  ut::Rng rng(20250802);
  constexpr int kCases = 120;
  for (int t = 0; t < kCases; ++t) {
    GemmCase c;
    const auto dim = [&]() -> std::int64_t {
      switch (rng.next_below(3)) {
        case 0:
          return rng.next_int(1, 6);
        case 1:
          return rng.next_int(1, 40);
        default:
          return rng.next_int(24, 72);
      }
    };
    c.m = dim();
    c.n = dim();
    // Skew k toward the 32-block boundary region.
    c.k = rng.next_below(2) == 0 ? rng.next_int(1, 80)
                                 : 32 * rng.next_int(1, 4) + rng.next_int(-1, 1);
    c.pad_a = rng.next_int(0, 4);
    c.pad_b = rng.next_int(0, 4);
    c.pad_c = rng.next_int(0, 4);
    run_gemm_case(c, rng,
                  "random case " + std::to_string(t) + " [" + describe(c) +
                      "]");
    run_gemm_u8_case(c, rng,
                     "random u8 case " + std::to_string(t) + " [" +
                         describe(c) + "]");
  }
}

TEST(Int8GemmFuzz, QuantizeBitIdenticalAcrossBackends) {
  ut::Rng rng(20250803);
  for (const std::int64_t n : {1LL, 7LL, 31LL, 32LL, 33LL, 64LL, 257LL}) {
    std::vector<float> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.normal() * 64.0f;
    if (n >= 7) {
      // Values only faults produce must still quantize identically.
      x[1] = std::nanf("");
      x[2] = HUGE_VALF;
      x[3] = -HUGE_VALF;
      x[4] = -0.0f;
      x[5] = 2.5f;   // round-to-nearest-even tie at the scale below
      x[6] = -2.5f;
    }
    const float inv_scale = 1.0f;
    std::vector<std::vector<std::int8_t>> results;
    for (const kern::Backend backend : backends_under_test()) {
      const kern::BackendGuard guard(backend);
      std::vector<std::int8_t> q(static_cast<std::size_t>(n), 99);
      kern::quantize_i8(x.data(), inv_scale, q.data(), n);
      results.push_back(std::move(q));
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], results[1]) << "n=" << n;
    // Reference semantics on the scalar result.
    for (std::int64_t i = 0; i < n; ++i) {
      const float r = x[static_cast<std::size_t>(i)] * inv_scale;
      const std::int8_t got = results[0][static_cast<std::size_t>(i)];
      if (std::isnan(r)) {
        EXPECT_EQ(got, 0) << "i=" << i;
      } else {
        const float clamped = std::fmin(127.0f, std::fmax(-127.0f, r));
        EXPECT_EQ(got, static_cast<std::int8_t>(std::lrintf(clamped)))
            << "i=" << i << " x=" << x[static_cast<std::size_t>(i)];
      }
      EXPECT_GE(got, -127) << "quantize must never emit -128";
    }
  }
}

/// The dequantize kernels, scalar vs AVX2: the plain per-plane form and
/// the per-element row form (with a bias row and with a null one) must
/// write the same float bit patterns (memcmp over the raw buffers), and
/// those must be float(acc) * scale + bias with two roundings.
TEST(Int8GemmFuzz, DequantEpiloguesBitIdenticalAcrossBackends) {
  ut::Rng rng(20250804);
  for (const std::int64_t n : {1LL, 5LL, 8LL, 9LL, 24LL, 100LL}) {
    std::vector<std::int32_t> acc0(static_cast<std::size_t>(n));
    std::vector<float> scale_row(static_cast<std::size_t>(n));
    std::vector<float> bias_row(static_cast<std::size_t>(n));
    for (auto& v : acc0) v = static_cast<std::int32_t>(
        rng.next_int(-4000000, 4000000));
    for (auto& v : scale_row) v = static_cast<float>(rng.next_double() * 2e-5);
    for (auto& v : bias_row) v = rng.normal() * 0.5f;
    const float scale_c = 1.5e-5f;
    const float bias_c = 0.25f;

    // variant id -> runs the kernel on `acc`.
    const auto run = [&](int variant, std::vector<std::int32_t>& acc) {
      switch (variant) {
        case 0:
          kern::dequant_i32(acc.data(), scale_c, bias_c, n);
          break;
        case 1:
          kern::dequant_i32_row(acc.data(), scale_row.data(), bias_row.data(),
                                n);
          break;
        default:  // null bias row == all-zero bias
          kern::dequant_i32_row(acc.data(), scale_row.data(), nullptr, n);
          break;
      }
    };
    for (int variant = 0; variant <= 2; ++variant) {
      std::vector<std::vector<std::int32_t>> outs;
      for (const kern::Backend backend : backends_under_test()) {
        const kern::BackendGuard guard(backend);
        std::vector<std::int32_t> acc = acc0;
        run(variant, acc);
        outs.push_back(std::move(acc));
      }
      EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                            static_cast<std::size_t>(n) * 4),
                0)
          << "variant " << variant << " n=" << n;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        const float sc = variant == 0 ? scale_c : scale_row[s];
        const float bi = variant == 0 ? bias_c
                         : variant == 1 ? bias_row[s]
                                        : 0.0f;
        const float product = static_cast<float>(acc0[s]) * sc;
        const float want = product + bi;
        float got;
        std::memcpy(&got, &outs[0][s], sizeof(got));
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
            << "variant " << variant << " n=" << n << " i=" << i;
      }
    }
  }
}

/// End-to-end dequantization accuracy: quantize weights per output channel
/// and activations with a bound-derived scale, run the int8 GEMM + combined
/// dequantize, and bound the error against a double-precision reference.
/// Per product, |w*x - sw*sx*qw*qx| <= |w|*sx/2 + |x|*sw/2 + sw*sx/4
/// (round-to-nearest on both quantizations), summed over k.
TEST(Int8GemmFuzz, DequantErrorBoundedByChannelScales) {
  ut::Rng rng(20250805);
  constexpr std::int64_t kRows = 17;
  constexpr std::int64_t kCols = 100;  // pads to 128
  const float range = 4.0f;            // activation bound
  std::vector<float> w(static_cast<std::size_t>(kRows * kCols));
  std::vector<float> x(static_cast<std::size_t>(kCols));
  for (auto& v : w) v = rng.normal() * 0.5f;
  for (auto& v : x)
    v = static_cast<float>(rng.next_double() * 2.0 - 1.0) * range;

  quant::Int8Weights qw = quant::quantize_weights_i8(w.data(), kRows, kCols);
  ASSERT_EQ(qw.cols_padded, 128);
  qw.set_act_scale(range / 127.0f);

  std::vector<std::int8_t> qx(static_cast<std::size_t>(qw.cols_padded), 0);
  kern::quantize_i8(x.data(), qw.inv_act_scale, qx.data(), kCols);

  std::vector<std::int32_t> acc(static_cast<std::size_t>(kRows), 0);
  kern::gemm_i8_dot(kRows, 1, qw.cols_padded, qw.q.data(), qw.cols_padded,
                    qx.data(), qw.cols_padded, acc.data(), 1);

  const float sx = qw.act_scale;
  for (std::int64_t r = 0; r < kRows; ++r) {
    const float sw = qw.scales[static_cast<std::size_t>(r)];
    double ref = 0.0;
    double bound = 1e-6;
    for (std::int64_t cidx = 0; cidx < kCols; ++cidx) {
      const double wv = w[static_cast<std::size_t>(r * kCols + cidx)];
      const double xv = x[static_cast<std::size_t>(cidx)];
      ref += wv * xv;
      bound += std::abs(wv) * sx / 2.0 + std::abs(xv) * sw / 2.0 +
               static_cast<double>(sw) * sx / 4.0;
    }
    const float got = static_cast<float>(acc[static_cast<std::size_t>(r)]) *
                      qw.combined[static_cast<std::size_t>(r)];
    EXPECT_LE(std::abs(static_cast<double>(got) - ref), bound + 1e-4 *
                                                            std::abs(ref))
        << "row " << r;
  }

  // Round-trip invariants of the weight quantizer itself.
  for (std::int64_t r = 0; r < kRows; ++r) {
    const float sw = qw.scales[static_cast<std::size_t>(r)];
    for (std::int64_t cidx = 0; cidx < kCols; ++cidx) {
      const std::int8_t qv =
          qw.q[static_cast<std::size_t>(r * qw.cols_padded + cidx)];
      EXPECT_GE(qv, -127);
      EXPECT_LE(std::fabs(sw * static_cast<float>(qv) -
                          w[static_cast<std::size_t>(r * kCols + cidx)]),
                sw * 0.5f + 1e-7f)
          << "(" << r << ", " << cidx << ")";
    }
    for (std::int64_t cidx = kCols; cidx < qw.cols_padded; ++cidx) {
      EXPECT_EQ(qw.q[static_cast<std::size_t>(r * qw.cols_padded + cidx)], 0)
          << "padding must stay zero";
    }
  }
}

/// Scrub contract: corrupting live bytes then restore() gives back the
/// pristine image.
TEST(Int8GemmFuzz, RestoreRecoversCleanImage) {
  ut::Rng rng(20250806);
  std::vector<float> w(static_cast<std::size_t>(6 * 40));
  for (auto& v : w) v = rng.normal();
  quant::Int8Weights qw = quant::quantize_weights_i8(w.data(), 6, 40);
  const std::vector<std::int8_t> clean = qw.q;
  for (int i = 0; i < 10; ++i) {
    qw.q[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(qw.q.size())))] ^= 0x40;
  }
  qw.q[0] = -128;  // the fault-only value
  EXPECT_NE(qw.q, clean);
  qw.restore();
  EXPECT_EQ(qw.q, clean);
}

}  // namespace
}  // namespace fitact
