// Define-then-execute inference plans (the serving hot path's forward API).
//
// The eager Module::forward path allocates every intermediate tensor on
// every call — fine for training, where autograd needs the graph anyway,
// but pure overhead for serving, where the op sequence of a model is fixed.
// An InferencePlan splits define from execute, ggml-style:
//
//   record    Module::record(PlanBuilder&) walks the model once and appends
//             plan ops (conv2d / linear / batch_norm2d / pools / flatten /
//             bounded activation / residual add), capturing parameter
//             tensors by shared storage — live fault injection and clean-
//             image scrubs through quant::ParamImage remain visible to the
//             plan because they write through that same storage.
//   fuse      A peephole pass (on by default; serving always fuses) gives
//             each conv2d/linear op whose output feeds only a bounded
//             activation (through a conv's eval-mode BatchNorm, if any) an
//             epilogue: the op takes over the activation's site (and the
//             BatchNorm's tensors) and its output slot. The producer (bias
//             included) writes the slot, the BatchNorm and then the
//             activation step (clamp + clamp-event counting) rewrite it in
//             place — the pre-activation tensor never occupies a slot of
//             its own. The epilogue is the routine the standalone
//             batch_norm2d and activation ops run, so fused, unfused and
//             eager forwards run one kernel sequence and stay
//             bit-identical; the activation site is read at execute time,
//             so re-protection after compile stays visible exactly as on
//             the unfused path.
//   plan      A liveness pass gives every value a live range over the final
//             op list, and the arena planner places each value once, sized
//             for max_batch, in one pre-sized activation arena (first-fit
//             over live ranges, which degenerates to ping-pong for chain
//             models). A batch of b samples uses the first b rows of each
//             slot.
//   execute   Batches run through the recorded ops with zero heap
//             allocations in steady state: kernels come from
//             autograd/op_kernels.h (the same inline code the eager ops
//             run, so outputs are bit-identical to eager forwards), nested
//             GEMM parallelism is disabled via ut::InlineKernelScope (lane
//             threads already saturate the cores), and input/output views
//             are pre-built non-owning Tensors over the arena.
//
// Recording fails with PlanError — listing the offending module's path —
// for module types without a record() override and for train-only behavior
// (BatchNorm2d in training mode). Every recorded op writes a value of its
// own; only flatten records no op (its output aliases its input).
//
// Thread safety: a plan is mutable state (its arena); drive it from one
// thread at a time. Serving lanes hold their lane mutex across execute.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "autograd/op_kernels.h"
#include "nn/module.h"
#include "quant/int8.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace fitact::core {
class BoundedActivation;
}

namespace fitact::nn {

/// Arithmetic the plan's fused conv/linear ops execute with.
///
/// int8 converts every conv/linear op with an activation epilogue whose input
/// range is statically known (see compile()'s input_range and the
/// bound-derived range propagation in plan.cpp) to block-quantized int8
/// GEMM, dequantized (bias included) in place and then run through the same
/// epilogue as fp32 ops. Ops that don't qualify (unbounded schemes, unknown
/// ranges, FitReLU's sigmoid shaping) stay fp32, so a plan
/// is int8 *where the bounds allow* — compile throws PlanError when nothing
/// qualifies rather than silently serving fp32 under an int8 label.
///
/// Fault model of an int8 op: its live quantized bytes (Int8Weights::q) are
/// the deployed weight storage — fp32 weight faults injected through
/// ParamImage after compile are not visible to it (the fp32 tensor is no
/// longer read), while bias / BatchNorm / bound tensors stay fp32-live and
/// fault-visible exactly as before. restore_int8_weights() is the matching
/// scrub.
enum class Precision : std::uint8_t {
  fp32 = 0,
  int8 = 1,
};

/// Recording failed: the model cannot run under planned execution (the
/// message names the offending module path). ev::make_server propagates it:
/// a model that does not record cannot be served.
class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Accumulates the op sequence and value list while Module::record walks a
/// model. Values are per-sample shapes (no batch dimension); the batch
/// dimension is bound at execute time.
class PlanBuilder {
 public:
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  // -- ops (each returns the output value id) -----------------------------
  PlanValueId conv2d(const Tensor& weight, const Tensor& bias,
                     std::int64_t stride, std::int64_t padding,
                     PlanValueId in);
  PlanValueId linear(const Tensor& weight, const Tensor& bias,
                     PlanValueId in);
  PlanValueId batch_norm2d(const Tensor& gamma, const Tensor& beta,
                           const Tensor& running_mean,
                           const Tensor& running_var, float eps,
                           PlanValueId in);
  PlanValueId max_pool2d(std::int64_t kernel, std::int64_t stride,
                         PlanValueId in);
  PlanValueId global_avg_pool(PlanValueId in);
  /// Pure view: no op is recorded and no arena space is assigned — the
  /// flattened value aliases its source.
  PlanValueId flatten(PlanValueId in);
  /// Bounded activation with clamp counting fused into the same pass over
  /// the data. The site is captured by pointer and its scheme/bounds are
  /// read at execute time, so re-protection (set_bounds replaces the bound
  /// storage) stays visible to the plan.
  PlanValueId activation(core::BoundedActivation* site, PlanValueId in);
  /// Elementwise sum (residual shortcuts).
  PlanValueId add(PlanValueId a, PlanValueId b);

  /// Per-sample shape of a recorded value.
  [[nodiscard]] const Shape& value_shape(PlanValueId v) const;

  /// Record `child` under `name` so PlanError messages carry the module
  /// path ("features.7.act1").
  PlanValueId record_child(const std::string& name, Module& child,
                           PlanValueId in);

  /// Throw PlanError anchored at the current module path.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  friend class InferencePlan;

  /// What produces an op's output. Fusion and int8 are not kinds of their
  /// own: they live in the epilogue and q8 fields of Op.
  enum class OpKind : std::uint8_t {
    conv2d,
    linear,
    batch_norm2d,
    max_pool2d,
    global_avg_pool,
    activation,
    add,
  };

  /// A recorded value. root names the value that owns its arena slot: the
  /// value itself, or a flatten view's source. The liveness pass fills in
  /// def and last_use on roots (def -1: the plan input, or a value fusion
  /// removed the producer of), and the arena planner the offset.
  struct Value {
    Shape sample_shape;
    std::int64_t sample_numel = 0;
    PlanValueId root = -1;
    std::int32_t def = -1;       ///< op index that writes it
    std::int32_t last_use = -1;  ///< last op index that reads it
    std::size_t offset = 0;      ///< arena offset in floats
  };

  /// One op: its producer (the kind), then its epilogue in its own output
  /// slot — the eval-mode BatchNorm when gamma is defined, then the
  /// activation step when site is set. A standalone batch_norm2d or
  /// activation op is an epilogue alone, over in0. The fusion pass moves a
  /// BatchNorm and activation that only feed each other into the epilogue
  /// of the conv2d/linear before them; the quantization pass sets q8 on the
  /// fused ops it converts to int8 GEMM.
  struct Op {
    OpKind kind;
    PlanValueId in0 = -1;
    PlanValueId in1 = -1;
    PlanValueId out = -1;
    std::string label;  ///< module path at record time (diagnostics)

    // conv2d
    Conv2dGeometry geo{};
    std::int64_t out_c = 0;
    // linear
    std::int64_t in_f = 0, out_f = 0;
    // max_pool2d
    std::int64_t kernel = 0, stride = 0;
    // conv2d / linear parameters (shared storage with the module's live
    // parameters)
    Tensor weight;
    Tensor bias;
    // Epilogue: eval-mode BatchNorm (shared storage with the module's live
    // parameters); defined gamma means the op carries one.
    Tensor gamma, beta, running_mean, running_var;
    float eps = 0.0f;
    // Epilogue: the bounded activation site, whose scheme, bounds and
    // geometry are read at execute time.
    core::BoundedActivation* site = nullptr;
    // int8 producer: block-quantized weights + scales (quantization pass
    // product); the op runs fp32 when null.
    std::shared_ptr<quant::Int8Weights> q8;
    // int8 producer: the quantization pass proved this op's input
    // nonnegative (it flows from a clamp output through only sign-preserving
    // ops), so its quantized activation bytes are all in [0,127] and execute
    // may use the u8xs8 GEMM (kern::gemm_i8u8_dot) instead of the signed one.
    bool q8_in_nonneg = false;
  };

  explicit PlanBuilder(Shape sample_shape);

  /// A new value of `sample_shape`; a view of `root` when root >= 0.
  PlanValueId new_value(Shape sample_shape, PlanValueId root = -1);
  /// Append `op` (its inputs set), labelled with the current module path,
  /// writing a new value of `out_shape`; returns that value.
  PlanValueId push(Op op, Shape out_shape);
  const Value& value(PlanValueId v) const;
  [[nodiscard]] std::string scope_path() const;

  std::vector<Value> values_;
  std::vector<Op> ops_;
  std::vector<std::string> scope_;
};

/// A recorded, arena-planned inference program for one model replica. See
/// the file comment for the lifecycle.
class InferencePlan {
 public:
  /// Record `model`'s inference op sequence for per-sample inputs of shape
  /// `sample_shape` ([C,H,W]) and batches of 1..max_batch, run the fusion
  /// peephole (unless `fuse` is false: tests compare the unfused program,
  /// which runs the same kernels through separate arena slots), then plan
  /// the arena. Throws PlanError when the model cannot
  /// be recorded (message names the module), std::invalid_argument for bad
  /// arguments. The plan keeps `model` alive (ops point into its parameter
  /// storage).
  ///
  /// Precision::int8 additionally runs the quantization pass: fused ops
  /// whose input activation range is statically known get int8 GEMM
  /// producers (see Precision). `input_range` is the max-abs of the plan
  /// *input* (callers calibrate it over sample data; <= 0 means unknown, so
  /// the first layer stays fp32); ranges of deeper layers come from the
  /// clamp bounds themselves. Requires fuse=true; throws PlanError when no
  /// op qualifies.
  static std::shared_ptr<InferencePlan> compile(
      std::shared_ptr<Module> model, const Shape& sample_shape,
      std::int64_t max_batch, bool fuse = true,
      Precision precision = Precision::fp32, float input_range = -1.0f);

  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  /// Staging view for the next batch's input, shaped [batch, C, H, W] over
  /// the arena. Fill it (memcpy per sample), then call execute(batch).
  /// Valid until the plan is destroyed; no allocation.
  [[nodiscard]] Tensor& input_view(std::int64_t batch);

  /// Run the recorded ops over the staged input. Returns the logits view
  /// [batch, classes]; the view's contents are valid until the next
  /// execute/input_view fill. Performs zero heap allocations in steady
  /// state (after each thread's first GEMM warmed its pack buffer).
  Tensor& execute(std::int64_t batch);

  [[nodiscard]] std::int64_t max_batch() const noexcept { return max_batch_; }
  [[nodiscard]] const Shape& sample_shape() const;
  [[nodiscard]] std::size_t op_count() const noexcept { return ops_.size(); }
  /// Number of conv/linear ops the fusion pass gave an activation epilogue
  /// (0 when compiled with fuse=false or when no pair qualified). BN-folded
  /// triples count once here too.
  [[nodiscard]] std::size_t fused_op_count() const noexcept {
    return fused_ops_;
  }
  /// Number of conv -> batch_norm -> activation triples the fusion pass
  /// folded (each removes *two* ops from the program, unlike a pair's one).
  [[nodiscard]] std::size_t bn_folded_op_count() const noexcept {
    return bn_folded_;
  }
  /// Number of fused ops the quantization pass converted to int8.
  [[nodiscard]] std::size_t int8_op_count() const noexcept {
    return int8_ops_;
  }
  [[nodiscard]] Precision precision() const noexcept { return precision_; }
  /// Scrub every int8 op's live quantized weights back to the clean image
  /// captured at compile time (the int8 analogue of ParamImage::restore;
  /// no-op on fp32 plans). The serving recovery path calls both.
  void restore_int8_weights();
  /// Live quantized weight bytes of int8 op `index` (0-based, program
  /// order) — the int8 fault space, exposed so tests and benches can inject
  /// corruption. Throws std::out_of_range past int8_op_count().
  [[nodiscard]] std::pair<std::int8_t*, std::size_t> int8_weight_span(
      std::size_t index);
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_floats_ * sizeof(float);
  }
  /// One line per op plus arena accounting (diagnostics, bench output).
  [[nodiscard]] std::string summary() const;

 private:
  using Op = PlanBuilder::Op;
  using Value = PlanBuilder::Value;

  InferencePlan() = default;

  /// Live range [def, last_use] of every root value over the current op
  /// list; the plan input and output stay live for the whole program.
  void finalize_liveness();
  void fuse_ops();
  void quantize_ops(float input_range);
  /// An int8 op's producer, from x into o: quantize, int8 GEMM into o's
  /// bytes, then dequantize (bias included) in place. execute() then runs
  /// the op's epilogue over o.
  void int8_producer(const Op& op, std::int64_t batch, const float* x,
                     float* o);
  /// fp32 scratch floats a batch of max_batch samples needs.
  [[nodiscard]] std::size_t scratch_floats() const;
  void plan_arena();
  void check_batch(std::int64_t batch) const;

  std::shared_ptr<Module> model_;
  std::vector<Value> values_;
  std::vector<Op> ops_;
  PlanValueId output_ = -1;
  std::size_t fused_ops_ = 0;
  std::size_t bn_folded_ = 0;
  std::size_t int8_ops_ = 0;
  Precision precision_ = Precision::fp32;
  std::int64_t max_batch_ = 0;
  std::unique_ptr<std::int8_t[]> scratch_i8_;
  /// Releases the 64-byte aligned arena plan_arena allocates.
  struct ArenaFree {
    void operator()(float* p) const noexcept;
  };

  std::size_t arena_floats_ = 0;
  std::unique_ptr<float[], ArenaFree> arena_;
  std::vector<Tensor> input_views_;   ///< per batch size 1..max_batch
  std::vector<Tensor> output_views_;  ///< per batch size 1..max_batch
};

}  // namespace fitact::nn
