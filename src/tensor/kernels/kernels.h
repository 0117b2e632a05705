// Runtime-dispatched CPU microkernels for the serving hot path.
//
// Every compute inner loop that serving throughput depends on — the SGEMM
// panel kernel, the direct stride-1 convolution, ReLU / bound-clamp /
// FitReLU / bias-add elementwise passes, and the int8 GEMM, quantize and
// dequantize kernels — funnels through the entry points declared here.
// There is one bound-clamp kernel: a fused plan op runs its producer, then
// clipped_relu (or fitrelu) in place, and that pass is also the only count
// of clamp events behind the fault detector. A process-wide dispatch table
// binds each entry point to one backend:
//
//   scalar — portable C++ loops, the reference semantics (kernels_scalar.cpp)
//   avx2   — AVX2/FMA vector kernels (kernels_avx2.cpp, only compiled when
//            the toolchain can target AVX2; only *selected* when cpuid says
//            the host executes it). On a host that also executes AVX-512F
//            the tier's gemm_panel and conv_direct run 16-lane bodies
//            (kernels_avx2_avx512.cpp), and on AVX-512 VNNI its int8 GEMM
//            runs kernels_avx2_vnni_i8.cpp: slot swaps inside the tier,
//            bit-identical to the bodies they replace, not backends.
//
// Dispatch is deliberately per-process, not per-thread or per-call site:
// campaign determinism across thread counts and the plan-vs-eager
// bit-identity contract both require every forward in a process to run the
// same arithmetic. The backend is resolved once, at first use, from the
// FITACT_KERNELS environment variable ("scalar" | "avx2" | "auto", default
// auto = best supported); tests and benches may override it at runtime with
// force_backend() to A/B both paths on any host — callers own restoring it
// (see BackendGuard).
//
// Semantics contract per backend:
//   * Elementwise kernels (relu / clip / add / bias / fitrelu), and the
//     clamp-event counts clip and fitrelu return, are bit-identical across
//     backends, including NaN/Inf handling and signed zeros (where the
//     result is NaN it is NaN on both; the payload is not part of the
//     contract) — the vector forms mirror the scalar branch structure
//     exactly. fitrelu's sigmoid needs an exp, and both backends evaluate
//     the same one: table_expf, glibc's table-driven expf algorithm, in
//     double with the same fused steps. kernels_test pins all of this.
//   * gemm_panel accumulates in a backend-specific order (the AVX2 kernel
//     uses FMA), so backends agree only to the per-element forward-error
//     bound gemm_fuzz_test enforces — never rely on cross-backend
//     bit-equality of GEMM results. conv_direct runs each output element
//     through the same chain as its backend's gemm_panel, so it equals
//     im2col + sgemm bit for bit on one backend and inherits GEMM's bound
//     across backends. Within the avx2 tier the chain is fixed, whatever
//     the register tile: the AVX2 and AVX-512 bodies of both slots give
//     the same bits (NaN payloads aside), which kernels_test pins over
//     every variant in fp32_variants.
//   * No kernel skips work based on operand values where that could change
//     a result: a NaN or Inf anywhere in the inputs reaches the output
//     exactly as IEEE arithmetic dictates. (Hardware faults produce exactly
//     these values; swallowing them blinds the fault detector.
//     gemm_fuzz_test pins this; conv_direct multiplies its border zeros
//     like any operand, which autograd_test pins.) fitrelu skips its exp
//     only where the full formula's result is exactly 0 or x, and a NaN
//     fails that test (kernels_test pins it against the full formula). The
//     one deliberate exception is the clamp cascade of clipped_relu, which
//     maps a NaN to 0 or b by its branch structure — and counts it as a
//     clamp event, so the detector still sees it.
#pragma once

#include <cstdint>

namespace fitact::kern {

enum class Backend : int {
  scalar = 0,
  avx2 = 1,
};

/// True when this binary carries the AVX2 kernels *and* the executing host
/// supports AVX2+FMA.
[[nodiscard]] bool avx2_supported() noexcept;

/// The backend every kernel entry point currently dispatches to. Resolves
/// the FITACT_KERNELS environment override on first call.
[[nodiscard]] Backend active_backend() noexcept;

/// Short stable name ("scalar" / "avx2") for logs, benches and CSVs.
[[nodiscard]] const char* backend_name(Backend b) noexcept;

/// Process-wide override, effective immediately for all subsequent kernel
/// calls. Requesting avx2 on a host without it falls back to scalar (the
/// returned value is what actually got installed). Not synchronised with
/// in-flight forwards: switch backends only between forwards (tests and
/// startup configuration), never while another thread is inside a kernel.
Backend force_backend(Backend b) noexcept;

/// Signatures of the two fp32 FMA microkernels (the gemm_panel and
/// conv_direct contracts below).
using GemmPanelFn = void (*)(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                             float alpha, const float* ap, const float* b,
                             std::int64_t ldb, float* c,
                             std::int64_t ldc) noexcept;
using ConvDirectFn = void (*)(std::int64_t out_c, std::int64_t in_c,
                              std::int64_t hp, std::int64_t wp,
                              std::int64_t kh, std::int64_t kw,
                              const float* xp, const float* w,
                              float* out) noexcept;

/// One pair of fp32 FMA bodies (gemm_panel and conv_direct) this binary
/// carries and this host can execute.
struct Fp32Variant {
  const char* name;  ///< "scalar" | "avx2" | "avx2_avx512"
  GemmPanelFn gemm_panel;
  ConvDirectFn conv_direct;
};

/// Executable fp32 variants, scalar first. The dispatcher binds exactly one
/// per backend (the avx2 tier upgrades to avx2_avx512 when the host has
/// AVX-512F), so tests use this to hold every fused variant to the avx2
/// body bit for bit, including the one dispatch currently bypasses. Not an
/// option: nothing selects a variant by name.
[[nodiscard]] std::size_t fp32_variants(const Fp32Variant** out) noexcept;

/// Name of the variant the active table's gemm_panel and conv_direct
/// dispatch to.
[[nodiscard]] const char* fp32_variant() noexcept;

/// Signature of an int8 GEMM microkernel (the gemm_i8_dot contract below).
using GemmI8Fn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb,
                          std::int32_t* c, std::int64_t ldc) noexcept;

/// One int8 GEMM microkernel this binary carries and this host can execute.
struct GemmI8Variant {
  const char* name;  ///< "scalar" | "avx2" | "avx2_vnni"
  GemmI8Fn fn;
};

/// Executable int8 GEMM variants, scalar first. The dispatcher binds exactly
/// one per backend (the avx2 tier upgrades to avx2_vnni when the host has
/// AVX-512 VNNI), so the fuzz tests use this to run the bit-identity matrix
/// over every variant — including the ones dispatch currently bypasses.
[[nodiscard]] std::size_t gemm_i8_variants(const GemmI8Variant** out) noexcept;

/// Name of the variant the active table's gemm_i8_dot dispatches to.
[[nodiscard]] const char* gemm_i8_variant() noexcept;

/// Signature of a mixed-sign int8 GEMM microkernel (gemm_i8u8_dot below):
/// identical to GemmI8Fn plus the flag naming the operand whose bytes the
/// caller guarantees to be in [0,127].
using GemmI8U8Fn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                            const std::int8_t* a, std::int64_t lda,
                            const std::int8_t* b, std::int64_t ldb,
                            std::int32_t* c, std::int64_t ldc,
                            bool a_unsigned) noexcept;

/// One mixed-sign GEMM microkernel this binary carries and this host can
/// execute.
struct GemmI8U8Variant {
  const char* name;  ///< "scalar" | "avx2" | "avx2_vnni"
  GemmI8U8Fn fn;
};

/// Executable mixed-sign GEMM variants, scalar first — the u8xs8 companion
/// to gemm_i8_variants, used by the fuzz tests to pin every variant to the
/// scalar signed reference (same bytes, same bits).
[[nodiscard]] std::size_t gemm_i8u8_variants(
    const GemmI8U8Variant** out) noexcept;

/// RAII for tests/benches that A/B backends: forces `b` now, restores the
/// previously active backend on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) noexcept
      : previous_(active_backend()) {
    (void)force_backend(b);
  }
  ~BackendGuard() { (void)force_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

// ---- dispatched kernel entry points ---------------------------------------

/// SGEMM inner panel: C[mb, nb] += alpha * Ap[mb, kb] * B[kb, nb], where Ap
/// is a packed row-major panel (contiguous kb-stride rows) and B/C point
/// into full row-major matrices with leading dimensions ldb/ldc. The caller
/// (tensor/gemm.cpp) owns blocking, packing, beta handling and threading.
/// Per element, the avx2 tier runs one chain: C's value, then
/// fma(alpha * a[p], b[p], acc) for p = 0..kb-1, tile edges included. Its
/// AVX2 body holds it in 4-row x 16-column register tiles, its AVX-512
/// body in 8-row x 32-column ones with masked column edges; scalar runs
/// acc + (alpha * a[p]) * b[p], unfused.
void gemm_panel(std::int64_t mb, std::int64_t nb, std::int64_t kb, float alpha,
                const float* ap, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc) noexcept;

/// Direct stride-1 convolution of one sample, without an im2col matrix.
/// xp is the sample already zero-bordered to [in_c, hp, wp] (for a pad-0
/// conv, the input itself); out receives [out_c, oh, ow], oh = hp - kh + 1,
/// ow = wp - kw + 1, with w laid out [out_c, in_c, kh, kw]:
///   out[o][y][x] = sum over taps (c, i, j) of w[o][c][i][j] * xp[c][y+i][x+j]
/// Each element is the chain the backend's gemm_panel runs for the im2col
/// product: from +0, taps in (c, i, j) order, border zeros multiplied like
/// any other operand (never skipped), each step an fma on avx2 (tile edges
/// included, in both its AVX2 and AVX-512 bodies) and an unfused
/// acc + w * x on scalar. So on one backend the result equals im2col +
/// sgemm (beta 0, alpha 1) bit for bit, NaN and Inf included; across
/// backends it agrees only to GEMM's error bound. Any kernel size and map
/// shape is accepted, and no read or write leaves xp's planes or out. Adds
/// no bias and allocates nothing.
void conv_direct(std::int64_t out_c, std::int64_t in_c, std::int64_t hp,
                 std::int64_t wp, std::int64_t kh, std::int64_t kw,
                 const float* xp, const float* w, float* out) noexcept;

/// o[i] = x[i] > 0 ? x[i] : 0 (NaN -> 0, matching the scalar branch).
void relu(const float* x, float* o, std::int64_t n) noexcept;

/// o[i] = a[i] + b[i].
void add(const float* a, const float* b, float* o, std::int64_t n) noexcept;

/// row[j] += bias[j] for j in [0, n) — the per-row bias of a linear layer.
void bias_add_row(float* row, const float* bias, std::int64_t n) noexcept;

/// row[i] += value for i in [0, n) — the per-channel-plane bias of a conv.
void bias_add_const(float* row, float value, std::int64_t n) noexcept;

/// Bounded-ReLU forward with fused clamp-event counting, over n contiguous
/// elements laid out as complete per-sample feature rows (n % feat == 0).
/// This clamp cascade is the one every bounded activation in the library
/// runs, eager or planned, fp32 or int8; only planned execution asks it to
/// count. Per element, with b = the element's broadcast bound:
///   x <= 0  -> 0
///   x <= b  -> x
///   else    -> saturate ? b : 0        (NaN lands here: both compares fail)
/// The bound index of flat feature fi is: fi (bound_numel == feat), fi / hw
/// (bound_numel == channels), 0 (bound_numel == 1) — FeatureBroadcast's map.
/// Returns the number of elements with !(x <= b) — above the bound, or NaN
/// (the clamp-event statistic: the cascade maps a NaN to 0 or b, and counts
/// it as an event so the fault detector sees it) — when `count` is set, 0
/// otherwise. The non-counting path skips the tally entirely; counting
/// never changes the written output.
std::uint64_t clipped_relu(const float* x, const float* bound,
                           std::int64_t bound_numel, std::int64_t feat,
                           std::int64_t hw, bool saturate, float* o,
                           std::int64_t n, bool count) noexcept;

/// From this t = k(l - x) on, FitReLU's sigmoid is exactly 1: e = exp(-t) <=
/// exp(-17) < 2^-24, half an ulp of 1, so 1 + e rounds to 1 (the least such
/// t is just above 24 ln 2 = 16.64). Both fitrelu backends return x there
/// without the exp, and so does the backward (ag::fitrelu) for s. A NaN t
/// fails the ordered t >= compare and takes the full path.
inline constexpr float kFitReluUnitT = 17.0f;

/// Trainable FitReLU forward (paper Eq. 6) with fused clamp-event counting,
/// over n elements laid out as for clipped_relu (same bound broadcast,
/// lambda being the bound). Per element, with l = the element's bound and
/// t = k * (l - x):
///   x <= 0  -> 0
///   else    -> x * s, s = (t >= 0 ? 1 : e) / (1 + e), e = table_expf(-|t|)
/// s is the sigmoid of t; a NaN x, or a NaN t where x > 0, gives NaN. For
/// t >= 17, e < 2^-24 and 1 + e rounds to 1, so the result is exactly x:
/// both backends return it without the exp (avx2 for any 8-lane vector
/// whose lanes are all x <= 0 or t >= 17), which changes no output bit.
/// Returns the number of elements with !(x <= l) (a NaN x counts, as in
/// clipped_relu) when `count` is set, 0 otherwise.
std::uint64_t fitrelu(const float* x, const float* lambda,
                      std::int64_t lambda_numel, std::int64_t feat,
                      std::int64_t hw, float k, float* o, std::int64_t n,
                      bool count) noexcept;

/// exp(x) in float by the table-driven algorithm glibc's expf uses since
/// 2.28 (32-entry 2^(i/32) table, cubic in double, both range-reduction
/// products fused): below ln 2^-150 -> 0, above ln 2^128 -> +inf, NaN ->
/// x + x. Not dispatched: this is the exp both fitrelu backends compute,
/// lane for lane. It equals std::exp bit for bit where glibc >= 2.28
/// selects its FMA build (x86-64 with FMA and AVX2), so there fitrelu
/// equals the std::exp form of the sigmoid (ag::stable_sigmoid); glibc's
/// other builds differ from it by at most 1 ulp.
[[nodiscard]] float table_expf(float x) noexcept;

// ---- int8 quantized path ---------------------------------------------------
//
// The quantized serving path (quant/int8.h + the fused int8 plan ops) runs
// quantize -> int8 GEMM -> dequantize, then the same clipped_relu pass the
// fp32 ops end in. Its cross-backend contract is *stronger* than fp32
// GEMM's error bound: the GEMM accumulates in exact int32 arithmetic
// (integer adds are order-independent), quantize_i8 mirrors the scalar
// rounding branch-for-branch, and the dequantize kernels use a separate
// multiply and add (no FMA), so every int8 entry point — and therefore the
// whole int8 forward — is bit-identical across backends.
// int8_gemm_fuzz_test pins this. The no-value-based-skipping rule holds here
// too: a corrupted int8 weight byte (including -128, which quantization never
// emits but a bit flip can) flows through the exact integer arithmetic.

/// Int8 GEMM in dot-product ("row times row") layout:
///   c[i*ldc + j] = sum_k a[i*lda + k] * b[j*ldb + k]   (int32 accumulation)
/// Both operands are row-major along k — A holds quantized weight rows, B
/// holds quantized activation rows (im2row patches or batch rows). Callers
/// pad k to quant::kQ8Block with zero bytes so the vector kernel runs whole
/// 32-wide blocks; any k is accepted (scalar tail). Overflow: |a|,|b| <= 128
/// keeps every 32-element block sum within +/-2^19, safe for k beyond 10^8.
void gemm_i8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                 std::int64_t ldb, std::int32_t* c, std::int64_t ldc) noexcept;

/// gemm_i8_dot with the caller's extra guarantee that every byte of one
/// operand (a when a_unsigned, else b) lies in [0,127]. FitAct's clamp
/// makes every post-activation tensor nonnegative, so its quantization
/// always satisfies this — which unlocks u8xs8 instructions
/// (maddubs on AVX2, vpdpbusd on AVX-512 VNNI) at double the MAC density of
/// the widen-to-int16 signed kernel. With the unsigned operand <= 127 their
/// intermediate pair sums cannot saturate, so the result is bit-identical
/// to gemm_i8_dot on the same bytes (a byte in [0,127] reads the same as u8
/// and as s8). Faulted bytes in the *signed* operand (including -128) are
/// handled exactly; the unsigned-side guarantee covers activations, which
/// fault injection never touches.
void gemm_i8u8_dot(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, std::int64_t lda,
                   const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc, bool a_unsigned) noexcept;

/// Symmetric fp32 -> int8 quantization: q[i] = round-to-nearest-even of
/// x[i] * inv_scale, clamped to [-127, 127] (never -128, so a clean
/// activation can't alias the one value only faults produce); NaN -> 0.
void quantize_i8(const float* x, float inv_scale, std::int8_t* q,
                 std::int64_t n) noexcept;

/// Dequantize in place over the accumulator span (reads int32, writes fp32
/// to the same bytes): out[i] = float(acc[i]) * scale + bias, a multiply
/// then an add (two IEEE roundings, never fused). One call per conv channel
/// plane, whose scale and bias are constant.
void dequant_i32(std::int32_t* acc, float scale, float bias,
                 std::int64_t n) noexcept;

/// dequant_i32 over one linear output row, with one scale and one bias per
/// element: out[i] = float(acc[i]) * scale[i] + bias[i]. A null bias row
/// adds 0.0f to every element.
void dequant_i32_row(std::int32_t* acc, const float* scale, const float* bias,
                     std::int64_t n) noexcept;

}  // namespace fitact::kern
