// Backend resolution and the dispatched entry points (kernels.h).
//
// One atomic table pointer serves the whole process. It is resolved lazily
// on the first kernel call: cpuid picks the best backend the host executes,
// then the FITACT_KERNELS environment variable ("scalar" | "avx2" | "auto")
// may narrow it — a forced-scalar run on an AVX2 host is the A/B lever the
// fuzz tests, plan tests and benches use; forcing avx2 on a host without it
// falls back to scalar rather than faulting. force_backend() (and its RAII
// form kern::BackendGuard) is the same lever programmatically.
#include "tensor/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "tensor/kernels/kernel_table.h"
#include "util/log.h"

namespace fitact::kern {
namespace {

bool cpu_has_avx2_fma() noexcept {
#if defined(FITACT_HAVE_AVX2_KERNELS) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512f() noexcept {
#if defined(FITACT_HAVE_AVX512F_KERNELS) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

bool cpu_has_avx512_vnni() noexcept {
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

const KernelTable* table_for(Backend b) noexcept {
#if defined(FITACT_HAVE_AVX2_KERNELS)
  if (b == Backend::avx2) {
    // The AVX-512 bodies are in-tier upgrades, not backends: same public
    // Backend::avx2, same table except the swapped slots, bit-identical
    // results. Which slots swap is a property of the host, fixed for the
    // process.
    static const KernelTable table = [] {
      KernelTable t = avx2_table();
#if defined(FITACT_HAVE_AVX512F_KERNELS)
      if (cpu_has_avx512f()) {
        t.gemm_panel = avx2_avx512_gemm_panel;
        t.conv_direct = avx2_avx512_conv_direct;
      }
#endif
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS)
      if (cpu_has_avx512_vnni()) {
        t.gemm_i8_dot = avx2_vnni_gemm_i8_dot;
        t.gemm_i8u8_dot = avx2_vnni_gemm_i8u8_dot;
      }
#endif
      return t;
    }();
    return &table;
  }
#else
  (void)b;
#endif
  return &scalar_table();
}

Backend best_backend() noexcept {
  return cpu_has_avx2_fma() ? Backend::avx2 : Backend::scalar;
}

/// Environment-configured startup backend. Unknown values warn and mean
/// auto; requesting avx2 on an unsupported host warns and falls back.
Backend startup_backend() noexcept {
  Backend b = best_backend();
  const char* env = std::getenv("FITACT_KERNELS");
  if (env == nullptr || std::strcmp(env, "auto") == 0) return b;
  if (std::strcmp(env, "scalar") == 0) return Backend::scalar;
  if (std::strcmp(env, "avx2") == 0) {
    if (b != Backend::avx2) {
      ut::log_warn() << "FITACT_KERNELS=avx2 but this host/build has no AVX2 "
                        "kernels; using scalar";
    }
    return b;
  }
  ut::log_warn() << "FITACT_KERNELS: unknown value '" << env
                 << "' (expect scalar|avx2|auto); using auto";
  return b;
}

/// Active table. Memory order: release stores publish a table, acquire
/// loads read it. The tables themselves are immutable once built, but the
/// avx2 tier's table is a function-local static built on first use, so a
/// thread that reads it through this pointer (a pool worker inside a GEMM)
/// must synchronise with the thread that built it; a relaxed load would let
/// it see the pointer before the table's contents. On x86 both orders compile
/// to plain moves. (Backend switches mid-forward are excluded by the
/// force_backend contract, not by this pointer.)
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::scalar};

const KernelTable& active_table() noexcept {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  // First use (possibly concurrent: both writers install identical values).
  const Backend b = startup_backend();
  g_backend.store(b, std::memory_order_relaxed);
  t = table_for(b);
  g_table.store(t, std::memory_order_release);
  return *t;
}

}  // namespace

bool avx2_supported() noexcept { return cpu_has_avx2_fma(); }

std::size_t gemm_i8_variants(const GemmI8Variant** out) noexcept {
  static const GemmI8Variant variants[] = {
      {"scalar", scalar_gemm_i8_dot},
#if defined(FITACT_HAVE_AVX2_KERNELS)
      {"avx2", avx2_gemm_i8_dot},
#endif
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS)
      {"avx2_vnni", avx2_vnni_gemm_i8_dot},
#endif
  };
  std::size_t n = 1;  // scalar always runs
  if (cpu_has_avx2_fma()) ++n;
  if (cpu_has_avx512_vnni()) ++n;
  // The array is ordered by capability, so the executable prefix is exactly
  // the first n entries (a VNNI host necessarily executes AVX2).
  *out = variants;
  return n;
}

std::size_t gemm_i8u8_variants(const GemmI8U8Variant** out) noexcept {
  static const GemmI8U8Variant variants[] = {
      {"scalar", scalar_gemm_i8u8_dot},
#if defined(FITACT_HAVE_AVX2_KERNELS)
      {"avx2", avx2_gemm_i8u8_dot},
#endif
#if defined(FITACT_HAVE_AVX512VNNI_KERNELS)
      {"avx2_vnni", avx2_vnni_gemm_i8u8_dot},
#endif
  };
  std::size_t n = 1;  // scalar always runs
  if (cpu_has_avx2_fma()) ++n;
  if (cpu_has_avx512_vnni()) ++n;
  // Same capability ordering as gemm_i8_variants: the executable prefix is
  // exactly the first n entries.
  *out = variants;
  return n;
}

std::size_t fp32_variants(const Fp32Variant** out) noexcept {
  static const Fp32Variant variants[] = {
      {"scalar", scalar_table().gemm_panel, scalar_table().conv_direct},
#if defined(FITACT_HAVE_AVX2_KERNELS)
      {"avx2", avx2_table().gemm_panel, avx2_table().conv_direct},
#endif
#if defined(FITACT_HAVE_AVX512F_KERNELS)
      {"avx2_avx512", avx2_avx512_gemm_panel, avx2_avx512_conv_direct},
#endif
  };
  std::size_t n = 1;  // scalar always runs
  if (cpu_has_avx2_fma()) {
    ++n;
    if (cpu_has_avx512f()) ++n;
  }
  // Ordered by capability like gemm_i8_variants: the executable prefix is
  // exactly the first n entries.
  *out = variants;
  return n;
}

const char* fp32_variant() noexcept {
  const GemmPanelFn fn = active_table().gemm_panel;
  const Fp32Variant* variants = nullptr;
  const std::size_t n = fp32_variants(&variants);
  for (std::size_t i = 0; i < n; ++i) {
    if (variants[i].gemm_panel == fn) return variants[i].name;
  }
  return "unknown";
}

const char* gemm_i8_variant() noexcept {
  const GemmI8Fn fn = active_table().gemm_i8_dot;
  const GemmI8Variant* variants = nullptr;
  const std::size_t n = gemm_i8_variants(&variants);
  for (std::size_t i = 0; i < n; ++i) {
    if (variants[i].fn == fn) return variants[i].name;
  }
  return "unknown";
}

Backend active_backend() noexcept {
  (void)active_table();  // resolve the env override on first call
  return g_backend.load(std::memory_order_relaxed);
}

const char* backend_name(Backend b) noexcept {
  return b == Backend::avx2 ? "avx2" : "scalar";
}

Backend force_backend(Backend b) noexcept {
  if (b == Backend::avx2 && !cpu_has_avx2_fma()) b = Backend::scalar;
  g_backend.store(b, std::memory_order_relaxed);
  g_table.store(table_for(b), std::memory_order_release);
  return b;
}

// ---- dispatched entry points ----------------------------------------------

void gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb, float alpha,
                const float* ap, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc) noexcept {
  active_table().gemm_panel(mb, nb, kb, alpha, ap, b, ldb, c, ldc);
}

void conv_direct(std::int64_t out_c, std::int64_t in_c, std::int64_t hp,
                 std::int64_t wp, std::int64_t kh, std::int64_t kw,
                 const float* xp, const float* w, float* out) noexcept {
  active_table().conv_direct(out_c, in_c, hp, wp, kh, kw, xp, w, out);
}

void relu(const float* x, float* o, std::int64_t n) noexcept {
  active_table().relu(x, o, n);
}

void add(const float* a, const float* b, float* o, std::int64_t n) noexcept {
  active_table().add(a, b, o, n);
}

void bias_add_row(float* row, const float* bias, std::int64_t n) noexcept {
  active_table().bias_add_row(row, bias, n);
}

void bias_add_const(float* row, float value, std::int64_t n) noexcept {
  active_table().bias_add_const(row, value, n);
}

std::uint64_t clipped_relu(const float* x, const float* bound,
                           std::int64_t bound_numel, std::int64_t feat,
                           std::int64_t hw, bool saturate, float* o,
                           std::int64_t n, bool count) noexcept {
  return active_table().clipped_relu(x, bound, bound_numel, feat, hw, saturate,
                                     o, n, count);
}

std::uint64_t fitrelu(const float* x, const float* lambda,
                      std::int64_t lambda_numel, std::int64_t feat,
                      std::int64_t hw, float k, float* o, std::int64_t n,
                      bool count) noexcept {
  return active_table().fitrelu(x, lambda, lambda_numel, feat, hw, k, o, n,
                                count);
}

void gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                 std::int64_t ldb, std::int32_t* c, std::int64_t ldc) noexcept {
  active_table().gemm_i8_dot(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, std::int64_t lda,
                   const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc, bool a_unsigned) noexcept {
  active_table().gemm_i8u8_dot(m, n, k, a, lda, b, ldb, c, ldc, a_unsigned);
}

void quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                 std::int64_t n) noexcept {
  active_table().quantize_i8(x, inv_scale, q, n);
}

void dequant_i32(std::int32_t* acc, float scale, float bias,
                 std::int64_t n) noexcept {
  active_table().dequant_i32(acc, scale, bias, n);
}

void dequant_i32_row(std::int32_t* acc, const float* scale, const float* bias,
                     std::int64_t n) noexcept {
  active_table().dequant_i32_row(acc, scale, bias, n);
}

}  // namespace fitact::kern
