// Randomized SGEMM fuzz sweep: the blocked/parallel kernel against the
// naive triple-loop reference across ~200 random shapes, transpose flags,
// alpha/beta values, and padded leading dimensions, with exact per-element
// tolerance accounting (a forward-error bound computed from each output
// element's own |a||b| mass, not a one-size-fits-all epsilon). Narrow
// products, which sgemm runs in a transposed orientation, are held to a
// stricter contract: bit-identity with the row-panel path.
//
// Thread counts: the global pool's width is fixed at first use, so CMake
// registers this binary three times with FITACT_GEMM_FUZZ_THREADS=1/2/8;
// the static initializer below pins the pool before gtest runs. Unset, the
// test runs at the default pool width.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fitact {
namespace {

const bool g_threads_pinned = [] {
  if (const char* env = std::getenv("FITACT_GEMM_FUZZ_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) (void)ut::set_global_threads(static_cast<std::size_t>(n));
  }
  return true;
}();

struct FuzzCase {
  std::int64_t m = 1, n = 1, k = 1;
  bool trans_a = false, trans_b = false;
  float alpha = 1.0f, beta = 0.0f;
  std::int64_t pad_a = 0, pad_b = 0, pad_c = 0;  ///< extra leading-dim slack
};

/// Forward-error bound for element (i, j): both kernels accumulate k
/// products (the fast path in float, the reference in double but rounded
/// back to float), so the difference is bounded by a small multiple of
/// k * eps * sum_p |op(A)_ip * op(B)_pj| plus the beta term's rounding.
/// The (k + 8) factor and FLT_EPSILON (= 2 * unit roundoff) give ~4x
/// headroom over the textbook gamma_k bound — tight enough that a real
/// indexing or accumulation bug (errors at the scale of the values
/// themselves) still fails by orders of magnitude.
double element_bound(double abs_mass, float alpha, float beta, float c0,
                     std::int64_t k) {
  const double mass = std::abs(static_cast<double>(alpha)) * abs_mass +
                      std::abs(static_cast<double>(beta) * c0);
  return static_cast<double>(FLT_EPSILON) * (static_cast<double>(k) + 8.0) *
             mass +
         1e-30;
}

void run_case(const FuzzCase& c, ut::Rng& rng, const std::string& context) {
  const std::int64_t a_rows = c.trans_a ? c.k : c.m;
  const std::int64_t a_cols = c.trans_a ? c.m : c.k;
  const std::int64_t b_rows = c.trans_b ? c.n : c.k;
  const std::int64_t b_cols = c.trans_b ? c.k : c.n;
  const std::int64_t lda = a_cols + c.pad_a;
  const std::int64_t ldb = b_cols + c.pad_b;
  const std::int64_t ldc = c.n + c.pad_c;

  const auto fill = [&](std::int64_t rows, std::int64_t ld) {
    std::vector<float> v(static_cast<std::size_t>(rows * ld));
    for (auto& x : v) x = rng.normal();
    return v;
  };
  const std::vector<float> a = fill(a_rows, lda);
  const std::vector<float> b = fill(b_rows, ldb);
  std::vector<float> c_fast = fill(c.m, ldc);
  std::vector<float> c_ref = c_fast;
  const std::vector<float> c_orig = c_fast;

  sgemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
        ldb, c.beta, c_fast.data(), ldc);
  sgemm_reference(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), lda,
                  b.data(), ldb, c.beta, c_ref.data(), ldc);

  const auto at = [](const std::vector<float>& v, std::int64_t ld,
                     std::int64_t r, std::int64_t col, bool trans) {
    return trans ? v[static_cast<std::size_t>(col * ld + r)]
                 : v[static_cast<std::size_t>(r * ld + col)];
  };
  for (std::int64_t i = 0; i < c.m; ++i) {
    for (std::int64_t j = 0; j < c.n; ++j) {
      double abs_mass = 0.0;
      for (std::int64_t p = 0; p < c.k; ++p) {
        abs_mass += std::abs(static_cast<double>(at(a, lda, i, p, c.trans_a)) *
                             static_cast<double>(at(b, ldb, p, j, c.trans_b)));
      }
      // The beta=0 contract ignores prior C content entirely, so its term
      // contributes nothing to the bound (and garbage/NaN must not leak).
      const float c0 = c.beta == 0.0f
                           ? 0.0f
                           : c_orig[static_cast<std::size_t>(i * ldc + j)];
      const double got =
          static_cast<double>(c_fast[static_cast<std::size_t>(i * ldc + j)]);
      const double want =
          static_cast<double>(c_ref[static_cast<std::size_t>(i * ldc + j)]);
      EXPECT_LE(std::abs(got - want),
                element_bound(abs_mass, c.alpha, c.beta, c0, c.k))
          << context << " element (" << i << ", " << j << "): got " << got
          << " want " << want;
    }
  }
  // Rows beyond n (leading-dim slack) must never be written.
  if (c.pad_c > 0) {
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = c.n; j < ldc; ++j) {
        EXPECT_EQ(c_fast[static_cast<std::size_t>(i * ldc + j)],
                  c_ref[static_cast<std::size_t>(i * ldc + j)])
            << context << " wrote into ldc slack at (" << i << ", " << j
            << ")";
      }
    }
  }
}

std::string describe(const FuzzCase& c) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " tA=" + std::to_string(c.trans_a) +
         " tB=" + std::to_string(c.trans_b) +
         " alpha=" + std::to_string(c.alpha) +
         " beta=" + std::to_string(c.beta) +
         " pads=" + std::to_string(c.pad_a) + "/" + std::to_string(c.pad_b) +
         "/" + std::to_string(c.pad_c);
}

TEST(GemmFuzz, PinnedEdgeCases) {
  ASSERT_TRUE(g_threads_pinned);
  ut::Rng rng(20240901);
  const std::vector<FuzzCase> cases = {
      {1, 1, 1, false, false, 1.0f, 0.0f, 0, 0, 0},
      {1, 1, 1, true, true, -2.0f, 1.0f, 1, 1, 1},
      {1, 96, 33, false, false, 1.0f, 0.0f, 0, 0, 0},
      {96, 1, 33, false, false, 1.0f, 1.0f, 0, 0, 0},
      {33, 96, 1, false, false, 0.5f, -1.0f, 0, 0, 0},
      // k = 0: pure beta scaling, nothing accumulated.
      {7, 9, 0, false, false, 1.0f, 0.5f, 0, 0, 0},
      {7, 9, 0, false, false, 1.0f, 0.0f, 0, 0, 0},
      // alpha = 0 short-circuit must still apply beta.
      {17, 13, 21, false, false, 0.0f, 0.5f, 0, 0, 0},
      {17, 13, 21, false, false, 0.0f, 0.0f, 0, 0, 0},
      // Block-boundary shapes (kBlockM = 64, kBlockN = 256, kBlockK = 256).
      {63, 255, 255, false, false, 1.0f, 0.0f, 0, 0, 0},
      {64, 256, 256, false, false, 1.0f, 0.0f, 0, 0, 0},
      {65, 257, 257, false, false, 1.0f, 1.0f, 0, 0, 0},
      // Transpose combinations with padded leading dims.
      {24, 40, 56, true, false, 1.5f, 0.0f, 3, 2, 5},
      {40, 24, 56, false, true, -1.0f, 0.5f, 2, 3, 1},
      {24, 24, 24, true, true, 2.0f, -0.5f, 1, 4, 2},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    run_case(cases[i], rng, "edge case " + std::to_string(i) + " [" +
                                describe(cases[i]) + "]");
  }
}

// The same edge-case matrix under an explicitly forced scalar backend, then
// explicitly forced best-available: whatever FITACT_KERNELS or the host
// selected for the other tests, both backends get exercised against the
// reference on every CI runner. element_bound covers the AVX2 kernel's FMA
// accumulation-order difference; a dispatch-layer bug (wrong panel math,
// wrong edge handling) fails by orders of magnitude.
TEST(GemmFuzz, EdgeCasesAgreeUnderBothKernelBackends) {
  ASSERT_TRUE(g_threads_pinned);
  const std::vector<FuzzCase> cases = {
      {1, 1, 1, false, false, 1.0f, 0.0f, 0, 0, 0},
      {5, 17, 3, false, false, 1.0f, 0.5f, 2, 1, 3},
      // Tile boundaries of the AVX2 panel kernel (4-row x 16-col tiles).
      {3, 15, 9, false, false, 1.0f, 0.0f, 0, 0, 0},
      {4, 16, 9, false, false, 1.0f, 0.0f, 0, 0, 0},
      {5, 17, 9, false, false, -1.5f, 1.0f, 0, 0, 0},
      {8, 33, 40, false, false, 1.0f, 0.0f, 1, 2, 1},
      // Block boundaries of the outer loops.
      {64, 256, 256, false, false, 1.0f, 0.0f, 0, 0, 0},
      {65, 257, 257, false, false, 0.5f, -1.0f, 0, 0, 0},
  };
  for (const kern::Backend backend :
       {kern::Backend::scalar,
        kern::avx2_supported() ? kern::Backend::avx2 : kern::Backend::scalar}) {
    const kern::BackendGuard guard(backend);
    ASSERT_EQ(kern::active_backend(), backend);
    ut::Rng rng(20240902);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      run_case(cases[i], rng,
               std::string("backend ") + kern::backend_name(backend) +
                   " case " + std::to_string(i) + " [" + describe(cases[i]) +
                   "]");
    }
  }
}

// Regression: the panel kernel used to skip accumulation for zero A
// elements ("if (aval == 0.0f) continue"), which is wrong in IEEE
// arithmetic — 0 * NaN and 0 * Inf are NaN, and hardware faults produce
// exactly these values in B. A zero in the *packed A panel* must not stop
// a NaN/Inf in B from poisoning the output row. Checked under both
// backends: non-finite results cannot be compared to the reference by
// error bound, so the test compares IEEE classification element-wise.
TEST(GemmFuzz, NonFiniteOperandsPropagateThroughPanelKernel) {
  ASSERT_TRUE(g_threads_pinned);
  struct Dims {
    std::int64_t m, n, k;
  };
  // The second shape (n < 16 <= m) runs in sgemm's transposed
  // narrow-product orientation, where B becomes the packed panel.
  for (const auto& [m, n, k] : {Dims{9, 21, 17}, Dims{20, 14, 17}}) {
    const std::string shape = "m=" + std::to_string(m) +
                              " n=" + std::to_string(n) +
                              " k=" + std::to_string(k);
    ut::Rng rng(20240903);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    // Zero out two full A columns; the old skip made these positions inert.
    for (std::int64_t i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(i * k + 3)] = 0.0f;
      a[static_cast<std::size_t>(i * k + 11)] = 0.0f;
    }
    // Non-finite B values reachable *only* through the zeroed A columns.
    b[static_cast<std::size_t>(3 * n + 5)] = std::nanf("");
    b[static_cast<std::size_t>(11 * n + 13)] = HUGE_VALF;  // +Inf
    for (const kern::Backend backend :
         {kern::Backend::scalar, kern::avx2_supported()
                                     ? kern::Backend::avx2
                                     : kern::Backend::scalar}) {
      const kern::BackendGuard guard(backend);
      const std::string context =
          shape + " backend " + kern::backend_name(backend);
      std::vector<float> c_fast(static_cast<std::size_t>(m * n), 0.5f);
      std::vector<float> c_ref = c_fast;
      sgemm(false, false, m, n, k, 2.0f, a.data(), k, b.data(), n, 0.0f,
            c_fast.data(), n);
      sgemm_reference(false, false, m, n, k, 2.0f, a.data(), k, b.data(), n,
                      0.0f, c_ref.data(), n);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float got = c_fast[static_cast<std::size_t>(i * n + j)];
          const float want = c_ref[static_cast<std::size_t>(i * n + j)];
          EXPECT_EQ(std::isnan(got), std::isnan(want))
              << context << " element (" << i << ", " << j << "): got "
              << got << " want " << want;
          if (std::isfinite(want)) {
            EXPECT_TRUE(std::isfinite(got))
                << context << " element (" << i << ", " << j << "): got "
                << got << " want " << want;
          }
        }
      }
      // Columns 5 (through the NaN) and 13 (through the Inf) must be
      // poisoned: 0 * NaN = NaN and 0 * Inf = NaN reach every output row.
      for (std::int64_t i = 0; i < m; ++i) {
        EXPECT_TRUE(std::isnan(c_fast[static_cast<std::size_t>(i * n + 5)]))
            << context << " row " << i;
        EXPECT_TRUE(std::isnan(c_fast[static_cast<std::size_t>(i * n + 13)]))
            << context << " row " << i;
      }
    }
  }
}

// Narrow products (n < 16 <= m) run transposed, C^T = op(B)^T * op(A)^T
// (tensor/gemm.cpp). That orientation's contract is bit-identity, not an
// error bound: every element must equal, bit for bit, the same element of
// the row-panel product with B zero-padded to 16 columns — under both
// backends and at every pool width this binary is registered with — and the
// ldc slack beyond column n must stay untouched.
TEST(GemmFuzz, NarrowProductsMatchZeroPaddedRowPanelBitForBit) {
  ASSERT_TRUE(g_threads_pinned);
  constexpr std::int64_t kWide = 16;
  constexpr std::int64_t kSlack = 3;
  constexpr float kSentinel = -1234.5f;
  const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  for (const kern::Backend backend :
       {kern::Backend::scalar,
        kern::avx2_supported() ? kern::Backend::avx2 : kern::Backend::scalar}) {
    const kern::BackendGuard guard(backend);
    ut::Rng rng(20240904);
    int cases = 0;
    int failed = 0;
    for (const std::int64_t m : {16, 17, 64, 65, 130}) {
      for (const std::int64_t k : {1, 27, 256, 257, 576}) {
        for (const bool trans_a : {false, true}) {
          // One draw of op(A), a 16-column B and C serves every n, alpha
          // and beta of this (m, k, trans_a).
          const std::int64_t lda = trans_a ? m : k;
          std::vector<float> a(static_cast<std::size_t>(m * k));
          std::vector<float> b_wide(static_cast<std::size_t>(k * kWide));
          std::vector<float> c_init(static_cast<std::size_t>(m * kWide));
          for (auto& x : a) x = rng.normal();
          for (auto& x : b_wide) x = rng.normal();
          for (auto& x : c_init) x = rng.normal();
          for (std::int64_t n = 1; n < kWide; ++n) {
            std::vector<float> b(static_cast<std::size_t>(k * n));
            std::vector<float> b_pad(static_cast<std::size_t>(k * kWide),
                                     0.0f);
            for (std::int64_t p = 0; p < k; ++p) {
              for (std::int64_t j = 0; j < n; ++j) {
                const float v = b_wide[static_cast<std::size_t>(p * kWide + j)];
                b[static_cast<std::size_t>(p * n + j)] = v;
                b_pad[static_cast<std::size_t>(p * kWide + j)] = v;
              }
            }
            const std::int64_t ldc = n + kSlack;
            for (const float alpha : {1.0f, -1.5f}) {
              for (const float beta : {0.0f, 1.0f, 0.5f}) {
                std::vector<float> c_narrow(static_cast<std::size_t>(m * ldc));
                for (std::int64_t i = 0; i < m; ++i) {
                  for (std::int64_t j = 0; j < ldc; ++j) {
                    c_narrow[static_cast<std::size_t>(i * ldc + j)] =
                        j < n ? c_init[static_cast<std::size_t>(i * kWide + j)]
                              : kSentinel;
                  }
                }
                std::vector<float> c_pad = c_init;
                sgemm(trans_a, false, m, n, k, alpha, a.data(), lda, b.data(),
                      n, beta, c_narrow.data(), ldc);
                sgemm(trans_a, false, m, kWide, k, alpha, a.data(), lda,
                      b_pad.data(), kWide, beta, c_pad.data(), kWide);
                ++cases;
                std::string mismatch;
                for (std::int64_t i = 0; i < m && mismatch.empty(); ++i) {
                  for (std::int64_t j = 0; j < ldc && mismatch.empty(); ++j) {
                    const float got =
                        c_narrow[static_cast<std::size_t>(i * ldc + j)];
                    const float want =
                        j < n ? c_pad[static_cast<std::size_t>(i * kWide + j)]
                              : kSentinel;
                    if (bits(got) != bits(want)) {
                      std::ostringstream os;
                      os << (j < n ? "element (" : "ldc slack (") << i << ", "
                         << j << "): got " << std::setprecision(9) << got
                         << " want " << want;
                      mismatch = os.str();
                    }
                  }
                }
                if (!mismatch.empty() && ++failed <= 10) {
                  ADD_FAILURE()
                      << "backend " << kern::backend_name(backend) << " m=" << m
                      << " n=" << n << " k=" << k << " tA=" << trans_a
                      << " alpha=" << alpha << " beta=" << beta << " "
                      << mismatch;
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(cases, 15 * 5 * 5 * 2 * 2 * 3);
    EXPECT_EQ(failed, 0) << "backend " << kern::backend_name(backend) << ": "
                         << failed << " of " << cases
                         << " narrow products differ from the padded product";
  }
}

TEST(GemmFuzz, RandomizedSweep) {
  ASSERT_TRUE(g_threads_pinned);
  ut::Rng rng(987654321);
  const float alphas[] = {0.0f, 1.0f, -1.0f, 0.5f, 2.5f};
  const float betas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  constexpr int kCases = 200;
  for (int t = 0; t < kCases; ++t) {
    FuzzCase c;
    // Skew small: degenerate and tiny shapes exercise the edge handling,
    // occasional larger ones cross the cache-block boundaries.
    const auto dim = [&]() -> std::int64_t {
      switch (rng.next_below(4)) {
        case 0:
          return rng.next_int(1, 4);
        case 1:
          return rng.next_int(1, 32);
        case 2:
          return rng.next_int(33, 96);
        default:
          return rng.next_int(60, 70);  // straddles kBlockM
      }
    };
    c.m = dim();
    c.n = dim();
    c.k = dim();
    c.trans_a = rng.next_below(2) == 1;
    c.trans_b = rng.next_below(2) == 1;
    c.alpha = rng.next_below(3) == 0
                  ? alphas[rng.next_below(5)]
                  : static_cast<float>(rng.next_double() * 4.0 - 2.0);
    c.beta = rng.next_below(3) == 0
                 ? betas[rng.next_below(4)]
                 : static_cast<float>(rng.next_double() * 2.0 - 1.0);
    c.pad_a = rng.next_int(0, 4);
    c.pad_b = rng.next_int(0, 4);
    c.pad_c = rng.next_int(0, 4);
    run_case(c, rng, "random case " + std::to_string(t) + " [" + describe(c) +
                         "]");
  }
}

}  // namespace
}  // namespace fitact
