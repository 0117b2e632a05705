#include "nn/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>

#include "core/activation.h"
#include "tensor/kernels/kernels.h"
#include "util/thread_pool.h"

namespace fitact::nn {
namespace {

/// Sentinel last_use for values that must stay live for the whole program:
/// the plan input (the caller stages the next batch into it before execute)
/// and the plan output (the caller reads it after execute returns). Keeping
/// both always-live means the arena planner can never overlap them with an
/// intermediate — or each other — so a caller filling the next input cannot
/// clobber logits it has not copied out yet.
constexpr std::int32_t kLiveForever = std::numeric_limits<std::int32_t>::max();

/// Arena offsets are aligned to 16 floats (one 64-byte cache line) so
/// values never share a line across lanes' false-sharing boundaries. The
/// arena itself is allocated at that alignment, so every slot starts on a
/// line whatever the heap's history.
constexpr std::size_t kAlignFloats = 16;
constexpr std::align_val_t kArenaAlign{kAlignFloats * sizeof(float)};

/// `bytes` zeroed bytes at kArenaAlign (at least one, so the pointer is
/// never null); InferencePlan::AlignedFree releases them.
void* zeroed_aligned(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 1);
  void* p = ::operator new[](bytes, kArenaAlign);
  std::memset(p, 0, bytes);
  return p;
}

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

Shape batched(std::int64_t batch, const Shape& sample) {
  std::vector<std::int64_t> dims;
  dims.reserve(sample.rank() + 1);
  dims.push_back(batch);
  dims.insert(dims.end(), sample.dims().begin(), sample.dims().end());
  return Shape(std::move(dims));
}

/// Int8 scratch offsets are 64-byte aligned (vector load friendliness); the
/// scratch itself comes from zeroed_aligned, so its sub-buffers start on a
/// cache line whatever the heap's history.
std::size_t align_up_bytes(std::size_t n) { return (n + 63) / 64 * 64; }

/// True when the scheme's forward is the clip cascade, whose [0, bound]
/// output range fixes an int8 activation scale (FitReLU's sigmoid shaping
/// and plain ReLU's missing bound both disqualify).
bool clampable_scheme(core::Scheme s) {
  return s == core::Scheme::clip_act || s == core::Scheme::ranger ||
         s == core::Scheme::fitrelu_naive;
}

/// Output range of an activation site, from its clamp bounds: every output
/// lands in [0, max(bound)] under both clamp modes. -1 when the scheme is
/// not clampable or bounds are missing/degenerate — the range (and int8
/// eligibility) is then unknown.
float site_output_range(const core::BoundedActivation* site) {
  if (site == nullptr || !clampable_scheme(site->scheme()) ||
      !site->has_bounds()) {
    return -1.0f;
  }
  const Tensor& bt = site->bounds().value();
  float maxb = 0.0f;
  const float* b = bt.data();
  for (std::int64_t i = 0; i < bt.numel(); ++i) {
    maxb = std::max(maxb, b[i]);
  }
  return maxb > 0.0f ? maxb : -1.0f;
}

/// CHW int8 -> HWC int8 (channel-fastest), the layout im2row_i8 gathers
/// from. The transpose costs one pass over the sample but turns every patch
/// row of the gather into contiguous byte copies — the gather is the int8
/// conv's second-largest cost after the GEMM, the transpose is noise.
void chw_to_hwc_i8(const std::int8_t* chw, std::int8_t* hwc, std::int64_t c_n,
                   std::int64_t hw) {
  for (std::int64_t c = 0; c < c_n; ++c) {
    const std::int8_t* src = chw + c * hw;
    for (std::int64_t i = 0; i < hw; ++i) hwc[i * c_n + c] = src[i];
  }
}

/// im2row for quantized conv input: the [out_h*out_w, C*kh*kw] patch matrix
/// (the transpose of the fp32 path's im2col), padded to row_stride columns
/// with zeros so the int8 GEMM runs whole blocks. Every row is rewritten in
/// full, so a dirty shared scratch buffer is fine.
///
/// The k-axis is ordered [kh][kw][c] — channel fastest — and the input is
/// the HWC image chw_to_hwc_i8 produces. quantize_ops packs the weights
/// with the same permutation, and an integer dot product is invariant under
/// any shared k-permutation, so GEMM results (and cross-backend
/// bit-identity) are untouched. What the order buys: for each (oh, ow, kh)
/// the patch bytes [kw0..kw1) x [0..C) are one contiguous source run of the
/// image and one contiguous destination run of the row — a single memcpy of
/// (kw1-kw0)*C bytes replaces a per-element bounds-checked gather.
void im2row_i8(const Conv2dGeometry& g, const std::int8_t* hwc,
               std::int8_t* rows, std::int64_t row_stride) {
  // One upfront memset covers both the halo zeros and the row_stride
  // padding tail, so the copies below only ever move valid image bytes.
  // (It also serves as a streaming prefetch of the destination: narrowing
  // it to just the halo bytes measures slightly slower.)
  const std::int64_t ow_n = g.out_w();
  const std::int64_t c_n = g.in_channels;
  std::memset(rows, 0,
              static_cast<std::size_t>(g.out_h() * ow_n * row_stride));
  for (std::int64_t oh = 0; oh < g.out_h(); ++oh) {
    std::int8_t* base = rows + oh * ow_n * row_stride;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const std::int64_t ih = oh * g.stride - g.padding + kh;
      if (ih < 0 || ih >= g.in_h) continue;
      const std::int8_t* src_row = hwc + ih * g.in_w * c_n;
      std::int8_t* col = base + kh * g.kernel_w * c_n;
      for (std::int64_t ow = 0; ow < ow_n; ++ow) {
        const std::int64_t iw0 = ow * g.stride - g.padding;
        const std::int64_t klo = std::max<std::int64_t>(0, -iw0);
        const std::int64_t khi =
            std::min<std::int64_t>(g.kernel_w, g.in_w - iw0);
        std::memcpy(col + ow * row_stride + klo * c_n,
                    src_row + (iw0 + klo) * c_n,
                    static_cast<std::size_t>((khi - klo) * c_n));
      }
    }
  }
}

/// The activation step an activation epilogue runs: the site's scheme over
/// n elements from x into o (in place when x == o), its clamp counts added
/// to `entry`. Scheme, bounds and geometry are read from the site on every
/// call, so re-protection after compile stays visible.
void activation_step(const core::BoundedActivation& site,
                     const std::string& label, const float* x, float* o,
                     std::int64_t n, InferencePlan::ClampCount& entry) {
  if (site.profiling() || site.has_input_corruptor()) {
    throw std::logic_error(
        "InferencePlan: activation site '" + label +
        "' entered profiling/corruptor mode after compile; planned lanes "
        "serve clean inference only");
  }
  const core::Scheme scheme = site.scheme();
  if (scheme == core::Scheme::relu) {
    ag::relu_forward(x, o, n);
    return;
  }
  if (!site.has_bounds()) {
    throw std::logic_error("BoundedActivation(" + core::to_string(scheme) +
                           "): bounds not initialised");
  }
  const Tensor& bt = site.bounds().value();
  const ag::FeatureBroadcast& fb = site.geometry();
  fb.validate_bound(bt.numel());
  entry.events +=
      scheme == core::Scheme::fitrelu
          ? ag::fitrelu_forward(x, bt.data(), bt.numel(), fb, site.steepness(),
                                o, n, /*count=*/true)
          : ag::clipped_relu_forward(x, bt.data(), bt.numel(), fb,
                                     scheme == core::Scheme::ranger
                                         ? ag::ClipMode::saturate
                                         : ag::ClipMode::zero_above,
                                     o, n, /*count=*/true);
  entry.total += static_cast<std::uint64_t>(n);
}

}  // namespace

// ---- PlanBuilder -----------------------------------------------------------

PlanBuilder::PlanBuilder(Shape sample_shape) {
  if (sample_shape.numel() <= 0) {
    throw std::invalid_argument("InferencePlan: empty sample shape " +
                                sample_shape.str());
  }
  new_value(std::move(sample_shape));
}

PlanValueId PlanBuilder::new_value(Shape sample_shape, PlanValueId root) {
  const auto id = static_cast<PlanValueId>(values_.size());
  Value v;
  v.sample_numel = sample_shape.numel();
  v.sample_shape = std::move(sample_shape);
  v.root = root >= 0 ? root : id;
  values_.push_back(std::move(v));
  return id;
}

PlanValueId PlanBuilder::push(Op op, Shape out_shape) {
  op.label = scope_path();
  op.out = new_value(std::move(out_shape));
  ops_.push_back(std::move(op));
  return ops_.back().out;
}

const PlanBuilder::Value& PlanBuilder::value(PlanValueId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= values_.size()) {
    throw std::logic_error("PlanBuilder: invalid value id " +
                           std::to_string(v));
  }
  return values_[static_cast<std::size_t>(v)];
}

const Shape& PlanBuilder::value_shape(PlanValueId v) const {
  return value(v).sample_shape;
}

std::string PlanBuilder::scope_path() const {
  std::string path;
  for (const auto& s : scope_) {
    if (!path.empty()) path += ".";
    path += s;
  }
  return path;
}

void PlanBuilder::fail(const std::string& message) const {
  const std::string at = scope_path();
  throw PlanError(at.empty() ? message : at + ": " + message);
}

PlanValueId PlanBuilder::record_child(const std::string& name, Module& child,
                                      PlanValueId in) {
  scope_.push_back(name);
  const PlanValueId out = child.record(*this, in);
  // Not popped on throw: fail() builds its message from the scope stack as
  // it stands, and a throwing builder is discarded.
  scope_.pop_back();
  return out;
}

PlanValueId PlanBuilder::conv2d(const Tensor& weight, const Tensor& bias,
                                std::int64_t stride, std::int64_t padding,
                                PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("conv2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  if (weight.shape().rank() != 4 || weight.shape()[1] != xs[0]) {
    fail("conv2d weight " + weight.shape().str() +
         " incompatible with input " + xs.str());
  }
  Op op;
  op.kind = OpKind::conv2d;
  op.in0 = in;
  op.geo.in_channels = xs[0];
  op.geo.in_h = xs[1];
  op.geo.in_w = xs[2];
  op.geo.kernel_h = weight.shape()[2];
  op.geo.kernel_w = weight.shape()[3];
  op.geo.stride = stride;
  op.geo.padding = padding;
  op.out_c = weight.shape()[0];
  if (op.geo.out_h() <= 0 || op.geo.out_w() <= 0) {
    fail("conv2d output collapses to zero extent for input " + xs.str());
  }
  if (bias.defined() && bias.numel() != op.out_c) {
    fail("conv2d bias extent " + std::to_string(bias.numel()) +
         " != out channels " + std::to_string(op.out_c));
  }
  op.weight = weight;
  op.bias = bias;
  Shape out{op.out_c, op.geo.out_h(), op.geo.out_w()};
  return push(std::move(op), std::move(out));
}

PlanValueId PlanBuilder::linear(const Tensor& weight, const Tensor& bias,
                                PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 1) {
    fail("linear expects a flattened [F] per-sample input, got " + xs.str());
  }
  if (weight.shape().rank() != 2 || weight.shape()[1] != xs[0]) {
    fail("linear weight " + weight.shape().str() + " incompatible with input " +
         xs.str());
  }
  Op op;
  op.kind = OpKind::linear;
  op.in0 = in;
  op.in_f = weight.shape()[1];
  op.out_f = weight.shape()[0];
  if (bias.defined() && bias.numel() != op.out_f) {
    fail("linear bias extent " + std::to_string(bias.numel()) +
         " != out features " + std::to_string(op.out_f));
  }
  op.weight = weight;
  op.bias = bias;
  Shape out{op.out_f};
  return push(std::move(op), std::move(out));
}

PlanValueId PlanBuilder::batch_norm2d(const Tensor& gamma, const Tensor& beta,
                                      const Tensor& running_mean,
                                      const Tensor& running_var, float eps,
                                      PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("batch_norm2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  const std::int64_t ch = xs[0];
  if (gamma.numel() != ch || beta.numel() != ch ||
      running_mean.numel() != ch || running_var.numel() != ch) {
    fail("batch_norm2d per-channel extent mismatch with input " + xs.str());
  }
  Op op;
  op.kind = OpKind::batch_norm2d;
  op.in0 = in;
  op.gamma = gamma;
  op.beta = beta;
  op.running_mean = running_mean;
  op.running_var = running_var;
  op.eps = eps;
  return push(std::move(op), xs);
}

PlanValueId PlanBuilder::max_pool2d(std::int64_t kernel, std::int64_t stride,
                                    PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("max_pool2d expects a [C,H,W] per-sample input, got " + xs.str());
  }
  const std::int64_t oh = (xs[1] - kernel) / stride + 1;
  const std::int64_t ow = (xs[2] - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    fail("max_pool2d output collapses to zero extent for input " + xs.str());
  }
  Op op;
  op.kind = OpKind::max_pool2d;
  op.in0 = in;
  op.kernel = kernel;
  op.stride = stride;
  return push(std::move(op), Shape{xs[0], oh, ow});
}

PlanValueId PlanBuilder::global_avg_pool(PlanValueId in) {
  const Shape& xs = value_shape(in);
  if (xs.rank() != 3) {
    fail("global_avg_pool expects a [C,H,W] per-sample input, got " +
         xs.str());
  }
  Op op;
  op.kind = OpKind::global_avg_pool;
  op.in0 = in;
  return push(std::move(op), Shape{xs[0]});
}

PlanValueId PlanBuilder::flatten(PlanValueId in) {
  const Value& v = value(in);
  if (v.sample_shape.rank() == 1) return in;
  // Pure view: same storage, flat shape. Batched layout is unchanged
  // because samples are contiguous.
  return new_value(Shape{v.sample_numel}, v.root);
}

PlanValueId PlanBuilder::activation(const core::BoundedActivation* site,
                                    PlanValueId in) {
  if (site == nullptr) fail("activation: null site");
  const Value& v = value(in);
  if (site->feature_count() != v.sample_numel) {
    fail("activation site geometry (" + std::to_string(site->feature_count()) +
         " features) does not match its input " + v.sample_shape.str());
  }
  Op op;
  op.kind = OpKind::activation;
  op.in0 = in;
  op.site = site;
  return push(std::move(op), v.sample_shape);
}

PlanValueId PlanBuilder::add(PlanValueId a, PlanValueId b) {
  const Shape& as = value_shape(a);
  const Shape& bs = value_shape(b);
  if (as != bs) {
    fail("add operand shapes differ: " + as.str() + " vs " + bs.str());
  }
  Op op;
  op.kind = OpKind::add;
  op.in0 = a;
  op.in1 = b;
  return push(std::move(op), as);
}

// ---- InferencePlan ---------------------------------------------------------

std::shared_ptr<InferencePlan> InferencePlan::compile(
    std::shared_ptr<Module> model, const Shape& sample_shape,
    std::int64_t max_batch, bool fuse, Precision precision,
    float input_range) {
  if (!model) throw std::invalid_argument("InferencePlan: null model");
  if (max_batch < 1) {
    throw std::invalid_argument("InferencePlan: max_batch must be >= 1, got " +
                                std::to_string(max_batch));
  }
  if (precision == Precision::int8 && !fuse) {
    throw std::invalid_argument(
        "InferencePlan: precision=int8 requires fuse=true (the quantization "
        "pass converts fused clamp ops)");
  }
  if (model->subtree_pending_init()) {
    throw std::invalid_argument(
        "InferencePlan: model has pending-init parameters; install state "
        "before compiling");
  }

  PlanBuilder builder(sample_shape);
  const PlanValueId out = model->record(builder, 0);
  if (builder.ops_.empty()) {
    throw PlanError("InferencePlan: model recorded no ops");
  }

  auto plan = std::shared_ptr<InferencePlan>(new InferencePlan());
  plan->model_ = std::move(model);
  plan->values_ = std::move(builder.values_);
  plan->ops_ = std::move(builder.ops_);
  plan->output_ = out;
  plan->max_batch_ = max_batch;
  plan->precision_ = precision;

  if (fuse) {
    plan->finalize_liveness();  // fuse_ops reads the recorded live ranges
    plan->fuse_ops();
  }
  if (precision == Precision::int8) {
    plan->quantize_ops(input_range);
    if (plan->int8_ops_ == 0) {
      throw PlanError(
          "InferencePlan: precision=int8 but no fused clamp op qualified for "
          "quantization (needs bounded clampable activations and a positive "
          "input_range)");
    }
  }
  plan->finalize_liveness();

  // One clamp-count entry per distinct site, in the order the final program
  // first reaches it; a site two ops reach keeps one entry.
  std::vector<const core::BoundedActivation*> sites;
  for (auto& op : plan->ops_) {
    if (op.site == nullptr) continue;
    const auto it = std::find(sites.begin(), sites.end(), op.site);
    op.clamp_entry = static_cast<std::size_t>(it - sites.begin());
    if (it == sites.end()) sites.push_back(op.site);
  }
  plan->clamp_counts_.resize(sites.size());

  // Int8 scratch high-water mark (the fp32 scratch block is part of the
  // arena, see plan_arena).
  std::size_t scratch_i8 = 0;
  for (const auto& op : plan->ops_) {
    if (!op.q8) continue;
    if (op.kind == PlanBuilder::OpKind::conv2d) {
      // Quantized input sample, its HWC copy and the im2row patch matrix.
      const auto in_numel = static_cast<std::size_t>(
          plan->values_[static_cast<std::size_t>(op.in0)].sample_numel);
      scratch_i8 = std::max(
          scratch_i8,
          2 * align_up_bytes(in_numel) +
              static_cast<std::size_t>(op.geo.col_cols() * op.q8->cols_padded));
    } else {
      // Quantized batch rows, padded to the block width.
      scratch_i8 = std::max(
          scratch_i8, static_cast<std::size_t>(max_batch * op.q8->cols_padded));
    }
  }
  if (scratch_i8 > 0) {
    plan->scratch_i8_.reset(
        static_cast<std::int8_t*>(zeroed_aligned(scratch_i8)));
  }

  plan->plan_arena();
  return plan;
}

void InferencePlan::finalize_liveness() {
  // A view's reads count on its root, and a value's range starts at the op
  // that writes it. Roots no op writes any more (other than the plan
  // input) were fused away and keep def -1. Then pin the plan input and
  // output live forever (see kLiveForever above).
  for (auto& v : values_) {
    v.def = -1;
    v.last_use = -1;
  }
  const auto root_of = [&](PlanValueId v) -> Value& {
    return values_[static_cast<std::size_t>(
        values_[static_cast<std::size_t>(v)].root)];
  };
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const auto idx = static_cast<std::int32_t>(i);
    Value& o = root_of(op.out);
    o.def = idx;
    o.last_use = std::max(o.last_use, idx);
    for (const PlanValueId in : {op.in0, op.in1}) {
      if (in < 0) continue;
      Value& r = root_of(in);
      r.last_use = std::max(r.last_use, idx);
    }
  }
  root_of(0).last_use = kLiveForever;
  root_of(output_).last_use = kLiveForever;
}

void InferencePlan::fuse_ops() {
  // Peephole over the recorded program, with the live ranges
  // finalize_liveness computed for it: a conv2d / linear whose output only
  // an immediately following bounded activation reads takes that
  // activation as its epilogue, and a conv2d whose output only an eval-mode
  // BatchNorm reads, whose output only an activation reads (the ResNet
  // block shape), takes both. The producer's output value (and the
  // BatchNorm's) goes dead — the fused op writes straight into the
  // activation's slot — which is the arena saving fusion exists for. A
  // residual edge, a later re-read of a pre-activation value, or the plan
  // output (live forever) blocks fusion exactly as it must.
  //
  // The BatchNorm fold is structural rather than algebraic: execute replays
  // the exact eager kernel sequence (conv+bias, BN in place, clamp pass),
  // so bit-identity and live BN-parameter fault visibility both survive
  // (pre-scaling weights by gamma/sigma would bake BN faults out of the
  // served model).
  const auto is = [&](std::size_t j, PlanBuilder::OpKind kind) {
    return j < ops_.size() && ops_[j].kind == kind;
  };
  // Op j + 1 is the only reader of op j's output.
  const auto only_next_reads = [&](std::size_t j) {
    const PlanValueId v = ops_[j].out;
    return ops_[j + 1].in0 == v &&
           values_[static_cast<std::size_t>(v)].last_use ==
               static_cast<std::int32_t>(j) + 1;
  };
  std::vector<Op> fused;
  fused.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const bool conv = is(i, PlanBuilder::OpKind::conv2d);
    const bool fold_bn = conv && is(i + 1, PlanBuilder::OpKind::batch_norm2d) &&
                         is(i + 2, PlanBuilder::OpKind::activation) &&
                         only_next_reads(i) && only_next_reads(i + 1);
    const bool fuse = (conv || is(i, PlanBuilder::OpKind::linear)) &&
                      (fold_bn || (is(i + 1, PlanBuilder::OpKind::activation) &&
                                   only_next_reads(i)));
    Op f = std::move(ops_[i]);
    if (fuse) {
      if (fold_bn) {
        const Op& bn = ops_[++i];
        f.gamma = bn.gamma;
        f.beta = bn.beta;
        f.running_mean = bn.running_mean;
        f.running_var = bn.running_var;
        f.eps = bn.eps;
        if (!bn.label.empty()) f.label += " + " + bn.label;
        ++bn_folded_;
      }
      const Op& act = ops_[++i];
      f.site = act.site;
      if (!act.label.empty()) f.label += " + " + act.label;
      f.out = act.out;
      ++fused_ops_;
    }
    fused.push_back(std::move(f));
  }
  ops_ = std::move(fused);
}

void InferencePlan::quantize_ops(float input_range) {
  // Forward range propagation: range[v] > 0 when every element of value v
  // is statically known to lie in [-range, range]. The plan input's range
  // comes from calibration (compile's input_range); a clampable bounded
  // activation emits [0, max(bound)] by construction — FitAct's bounds are
  // what make static activation scales possible at all. Anything a GEMM or
  // BatchNorm produces is unbounded until the next clamp. A conv/linear op
  // with an activation epilogue and known input AND output range converts
  // to int8: weights quantize per output channel now, the input range fixes
  // the activation scale, and the op's own bounds keep feeding the
  // clamp-event detector through the activation step it ends in.
  //
  // Sign propagation alongside the ranges: nonneg[v] when every element of
  // value v is statically >= 0. Clamp outputs are nonnegative by the clip
  // cascade (even in detect-only mode an over-bound element becomes 0, not
  // its raw value), and pooling/add preserve the sign. An int8 op whose
  // input is proven nonnegative quantizes it into [0,127], which lets
  // execute use the u8xs8 GEMM at twice the vector MAC density.
  std::vector<float> range(values_.size(), -1.0f);
  std::vector<char> nonneg(values_.size(), 0);
  const auto slot = [&](PlanValueId v) {
    return static_cast<std::size_t>(values_[static_cast<std::size_t>(v)].root);
  };
  const auto rng = [&](PlanValueId v) { return range[slot(v)]; };
  const auto is_nonneg = [&](PlanValueId v) { return nonneg[slot(v)] != 0; };
  const auto set = [&](PlanValueId v, float r, bool nn) {
    range[slot(v)] = r;
    nonneg[slot(v)] = nn ? 1 : 0;
  };
  set(0, input_range > 0.0f ? input_range : -1.0f, false);
  for (auto& op : ops_) {
    switch (op.kind) {
      case PlanBuilder::OpKind::conv2d:
      case PlanBuilder::OpKind::linear: {
        if (op.site == nullptr) {  // no epilogue: an unbounded GEMM output
          set(op.out, -1.0f, false);
          break;
        }
        const float out_r = site_output_range(op.site);
        const float in_r = rng(op.in0);
        if (in_r > 0.0f && out_r > 0.0f) {
          const bool is_conv = op.kind == PlanBuilder::OpKind::conv2d;
          const std::int64_t rows = is_conv ? op.out_c : op.out_f;
          const std::int64_t cols = is_conv ? op.geo.col_rows() : op.in_f;
          const float* wsrc = op.weight.data();
          std::vector<float> wperm;
          if (is_conv) {
            // Permute each filter's k-axis from the tensor's [c][kh][kw] to
            // the [kh][kw][c] order im2row_i8 gathers (see its comment).
            // Per-channel max-abs is permutation-invariant, so every scale
            // comes out bit-identical to the unpermuted packing.
            const std::int64_t ck = op.geo.in_channels;
            const std::int64_t kh_n = op.geo.kernel_h;
            const std::int64_t kw_n = op.geo.kernel_w;
            wperm.resize(static_cast<std::size_t>(rows * cols));
            for (std::int64_t r = 0; r < rows; ++r) {
              const float* src = wsrc + r * cols;
              float* dst = wperm.data() + r * cols;
              for (std::int64_t c = 0; c < ck; ++c) {
                for (std::int64_t kh = 0; kh < kh_n; ++kh) {
                  for (std::int64_t kw = 0; kw < kw_n; ++kw) {
                    dst[(kh * kw_n + kw) * ck + c] =
                        src[(c * kh_n + kh) * kw_n + kw];
                  }
                }
              }
            }
            wsrc = wperm.data();
          }
          op.q8 = std::make_shared<quant::Int8Weights>(
              quant::quantize_weights_i8(wsrc, rows, cols));
          op.q8->set_act_scale(in_r / 127.0f);
          op.q8_in_nonneg = is_nonneg(op.in0);
          ++int8_ops_;
        }
        set(op.out, out_r, true);  // activation epilogue: the clip cascade
        break;
      }
      case PlanBuilder::OpKind::batch_norm2d:
        set(op.out, -1.0f, false);
        break;
      case PlanBuilder::OpKind::max_pool2d:
      case PlanBuilder::OpKind::global_avg_pool:
        // Max and mean of bounded values stay within the bound (and keep
        // their sign).
        set(op.out, rng(op.in0), is_nonneg(op.in0));
        break;
      case PlanBuilder::OpKind::add: {
        const float a = rng(op.in0);
        const float b = rng(op.in1);
        set(op.out, a > 0.0f && b > 0.0f ? a + b : -1.0f,
            is_nonneg(op.in0) && is_nonneg(op.in1));
        break;
      }
      case PlanBuilder::OpKind::activation:
        // The clip cascade's output is always in [0, b].
        set(op.out, site_output_range(op.site), true);
        break;
    }
  }
}

std::size_t InferencePlan::scratch_floats() const {
  // Conv needs what its route takes (ag::conv2d_scratch_floats), linear a
  // transposed weight; ops run one at a time, so one block serves all.
  // Int8 producers don't participate — their integer scratch is separate,
  // and they never fall back to fp32 (execute throws instead).
  std::int64_t floats = 0;
  for (const auto& op : ops_) {
    if (op.q8) continue;
    if (op.kind == PlanBuilder::OpKind::conv2d) {
      floats = std::max(
          floats, ag::conv2d_scratch_floats(op.geo, op.out_c, max_batch_));
    } else if (op.kind == PlanBuilder::OpKind::linear) {
      floats = std::max(floats, op.in_f * op.out_f);
    }
  }
  return static_cast<std::size_t>(floats);
}

void InferencePlan::plan_arena() {
  // One layout, sized for max_batch: every root value gets one slot of
  // max_batch samples, and a batch of b uses the first b rows of each slot
  // (the scratch block too: no route's scratch shrinks as batch grows).
  struct Placed {
    std::size_t offset, size;
    std::int32_t def, last;
  };
  // The shared scratch block is live for the whole program; placing it
  // first pins it at offset 0.
  std::vector<Placed> placed{{0, align_up(scratch_floats()), -1, kLiveForever}};
  for (std::size_t vi = 0; vi < values_.size(); ++vi) {
    Value& v = values_[vi];
    // Views resolve through their root. A value no op writes any more was
    // fused away and gets no slot; the caller writes the plan input.
    if (static_cast<std::size_t>(v.root) != vi) continue;
    if (vi > 0 && v.def < 0) continue;
    const auto size = align_up(static_cast<std::size_t>(v.sample_numel) *
                               static_cast<std::size_t>(max_batch_));
    // First-fit: scan occupied extents of time-overlapping blocks in
    // offset order and take the first gap large enough.
    std::vector<Placed> live;
    for (const auto& p : placed) {
      if (v.def <= p.last && p.def <= v.last_use) live.push_back(p);
    }
    std::sort(live.begin(), live.end(),
              [](const Placed& a, const Placed& b) {
                return a.offset < b.offset;
              });
    std::size_t offset = 0;
    for (const auto& p : live) {
      if (offset + size <= p.offset) break;
      offset = std::max(offset, p.offset + p.size);
    }
    v.offset = offset;
    placed.push_back({offset, size, v.def, v.last_use});
  }
  arena_floats_ = 0;
  for (const auto& p : placed) {
    arena_floats_ = std::max(arena_floats_, p.offset + p.size);
  }
  // Views read and write through their root's slot.
  for (auto& v : values_) {
    v.offset = values_[static_cast<std::size_t>(v.root)].offset;
  }

  arena_.reset(
      static_cast<float*>(zeroed_aligned(arena_floats_ * sizeof(float))));

  // Pre-built per-batch-size views: execute() and input_view() hand out
  // references to these, so steady state constructs no Shapes (a Shape copy
  // allocates its dims vector).
  const Value& in = values_[0];
  const Value& out = values_[static_cast<std::size_t>(output_)];
  input_views_.clear();
  output_views_.clear();
  input_views_.reserve(static_cast<std::size_t>(max_batch_));
  output_views_.reserve(static_cast<std::size_t>(max_batch_));
  for (std::int64_t b = 1; b <= max_batch_; ++b) {
    input_views_.push_back(Tensor::view(batched(b, in.sample_shape),
                                        arena_.get() + in.offset));
    output_views_.push_back(Tensor::view(batched(b, out.sample_shape),
                                         arena_.get() + out.offset));
  }
}

void InferencePlan::AlignedFree::operator()(void* p) const noexcept {
  ::operator delete[](p, kArenaAlign);
}

void InferencePlan::check_batch(std::int64_t batch) const {
  if (batch < 1 || batch > max_batch_) {
    throw std::invalid_argument("InferencePlan: batch " +
                                std::to_string(batch) +
                                " outside compiled range [1, " +
                                std::to_string(max_batch_) + "]");
  }
}

const Shape& InferencePlan::sample_shape() const {
  return values_[0].sample_shape;
}

Tensor& InferencePlan::input_view(std::int64_t batch) {
  check_batch(batch);
  return input_views_[static_cast<std::size_t>(batch - 1)];
}

Tensor& InferencePlan::execute(std::int64_t batch) {
  check_batch(batch);
  // Lane threads run kernels inline: plan execution is already one lane of
  // a thread-per-lane server, and inline kernels are also what keeps the
  // steady state allocation-free (pool dispatch allocates task state).
  ut::InlineKernelScope inline_scope;
  std::fill(clamp_counts_.begin(), clamp_counts_.end(), ClampCount{});
  float* const base = arena_.get();
  float* const scratch = base;  // plan_arena pins the scratch block at 0
  const auto ptr = [&](PlanValueId v) {
    return base + values_[static_cast<std::size_t>(v)].offset;
  };
  const auto numel = [&](PlanValueId v) {
    return batch * values_[static_cast<std::size_t>(v)].sample_numel;
  };
  // An op's epilogue, from x into the op's output slot: the BatchNorm when
  // it carries one, then the activation step when it carries a site. After
  // a producer x is that slot, so the epilogue runs in place; a standalone
  // batch_norm2d or activation op is an epilogue over its input. Fused,
  // unfused and eager forwards therefore run one kernel sequence: outputs
  // stay bit-identical, and fused and unfused plans count alike.
  const auto epilogue = [&](const Op& op, const float* x) {
    float* const o = ptr(op.out);
    if (op.gamma.defined()) {
      const Shape& s = values_[static_cast<std::size_t>(op.out)].sample_shape;
      ag::batch_norm2d_eval_forward(batch, s[0], s[1] * s[2], x,
                                    op.gamma.data(), op.beta.data(),
                                    op.running_mean.data(),
                                    op.running_var.data(), op.eps, o);
      x = o;
    }
    if (op.site != nullptr) {
      activation_step(*op.site, op.label, x, o, numel(op.out),
                      clamp_counts_[op.clamp_entry]);
    }
  };

  for (const auto& op : ops_) {
    switch (op.kind) {
      case PlanBuilder::OpKind::conv2d:
      case PlanBuilder::OpKind::linear: {
        float* const o = ptr(op.out);
        const float* const bias = op.bias.defined() ? op.bias.data() : nullptr;
        if (op.q8) {
          int8_producer(op, batch, ptr(op.in0), o);
        } else if (op.kind == PlanBuilder::OpKind::conv2d) {
          ag::conv2d_forward(op.geo, op.out_c, batch, ptr(op.in0),
                             op.weight.data(), bias, scratch, o);
        } else {
          ag::linear_forward(batch, op.in_f, op.out_f, ptr(op.in0),
                             op.weight.data(), bias, scratch, o);
        }
        epilogue(op, o);
        break;
      }
      case PlanBuilder::OpKind::batch_norm2d:
      case PlanBuilder::OpKind::activation:
        epilogue(op, ptr(op.in0));
        break;
      case PlanBuilder::OpKind::max_pool2d: {
        const Shape& xs = values_[static_cast<std::size_t>(op.in0)].sample_shape;
        ag::max_pool2d_forward(batch, xs[0], xs[1], xs[2], op.kernel,
                               op.stride, ptr(op.in0), ptr(op.out), nullptr);
        break;
      }
      case PlanBuilder::OpKind::global_avg_pool: {
        const Shape& xs = values_[static_cast<std::size_t>(op.in0)].sample_shape;
        ag::global_avg_pool_forward(batch, xs[0], xs[1] * xs[2], ptr(op.in0),
                                    ptr(op.out));
        break;
      }
      case PlanBuilder::OpKind::add:
        ag::add_forward(ptr(op.in0), ptr(op.in1), ptr(op.out), numel(op.out));
        break;
    }
  }
  return output_views_[static_cast<std::size_t>(batch - 1)];
}

double InferencePlan::peak_clamp_rate() const noexcept {
  double rate = 0.0;
  for (const ClampCount& c : clamp_counts_) {
    if (c.total == 0) continue;
    rate = std::max(rate, static_cast<double>(c.events) /
                              static_cast<double>(c.total));
  }
  return rate;
}

void InferencePlan::int8_producer(const Op& op, std::int64_t batch,
                                  const float* x, float* o) {
  // The op was quantized under its site's bounds (they fixed the activation
  // scale); swapping scheme or bounds afterwards would silently serve stale
  // scales, so demand a recompile instead.
  const core::BoundedActivation& site = *op.site;
  if (!clampable_scheme(site.scheme()) || !site.has_bounds()) {
    throw std::logic_error(
        "InferencePlan: int8 op '" + op.label +
        "' lost the bounded clamp scheme it was quantized under; recompile "
        "the plan after re-protection");
  }
  const std::int64_t in_stride =
      values_[static_cast<std::size_t>(op.in0)].sample_numel;
  const quant::Int8Weights& q8 = *op.q8;
  const float* b = op.bias.defined() ? op.bias.data() : nullptr;
  std::int8_t* const qbuf = scratch_i8_.get();
  if (op.kind == PlanBuilder::OpKind::conv2d) {
    // Per sample: quantize the input, gather the padded im2row patch
    // matrix, int8 GEMM straight into the output slot (int32 accumulators
    // reinterpret the float storage), then dequantize (bias included) per
    // channel plane in place.
    const std::int64_t hw = op.geo.out_h() * op.geo.out_w();
    const std::int64_t out_stride = op.out_c * hw;
    const std::int64_t ckk_pad = q8.cols_padded;
    std::int8_t* const qin = qbuf;
    std::int8_t* const qhwc =
        qbuf + align_up_bytes(static_cast<std::size_t>(in_stride));
    std::int8_t* const qcol =
        qbuf + 2 * align_up_bytes(static_cast<std::size_t>(in_stride));
    for (std::int64_t s = 0; s < batch; ++s) {
      kern::quantize_i8(x + s * in_stride, q8.inv_act_scale, qin, in_stride);
      chw_to_hwc_i8(qin, qhwc, op.geo.in_channels, op.geo.in_h * op.geo.in_w);
      im2row_i8(op.geo, qhwc, qcol, ckk_pad);
      auto* acc = reinterpret_cast<std::int32_t*>(o + s * out_stride);
      if (op.q8_in_nonneg) {
        // Proven-nonneg input: patch bytes are in [0,127], so the u8xs8
        // kernel applies (patches are the B operand here).
        kern::gemm_i8u8_dot(op.out_c, hw, ckk_pad, q8.q.data(), ckk_pad, qcol,
                            ckk_pad, acc, hw, /*a_unsigned=*/false);
      } else {
        kern::gemm_i8_dot(op.out_c, hw, ckk_pad, q8.q.data(), ckk_pad, qcol,
                          ckk_pad, acc, hw);
      }
      for (std::int64_t c = 0; c < op.out_c; ++c) {
        kern::dequant_i32(acc + c * hw,
                          q8.combined[static_cast<std::size_t>(c)],
                          b != nullptr ? b[c] : 0.0f, hw);
      }
    }
    return;
  }
  // Quantize the batch rows (zero-padding each row's block tail), one GEMM
  // for the whole batch, then dequantize each output row with the
  // per-channel combined scales and the bias row.
  const std::int64_t in_f_pad = q8.cols_padded;
  for (std::int64_t s = 0; s < batch; ++s) {
    kern::quantize_i8(x + s * in_stride, q8.inv_act_scale,
                      qbuf + s * in_f_pad, in_stride);
    std::memset(qbuf + s * in_f_pad + in_stride, 0,
                static_cast<std::size_t>(in_f_pad - in_stride));
  }
  auto* acc = reinterpret_cast<std::int32_t*>(o);
  if (op.q8_in_nonneg) {
    // Proven-nonneg input: the quantized batch rows (the A operand here)
    // are in [0,127], so the u8xs8 kernel applies.
    kern::gemm_i8u8_dot(batch, op.out_f, in_f_pad, qbuf, in_f_pad,
                        q8.q.data(), in_f_pad, acc, op.out_f,
                        /*a_unsigned=*/true);
  } else {
    kern::gemm_i8_dot(batch, op.out_f, in_f_pad, qbuf, in_f_pad, q8.q.data(),
                      in_f_pad, acc, op.out_f);
  }
  for (std::int64_t s = 0; s < batch; ++s) {
    kern::dequant_i32_row(acc + s * op.out_f, q8.combined.data(), b,
                          op.out_f);
  }
}

void InferencePlan::restore_int8_weights() {
  for (auto& op : ops_) {
    if (op.q8) op.q8->restore();
  }
}

std::pair<std::int8_t*, std::size_t> InferencePlan::int8_weight_span(
    std::size_t index) {
  std::size_t seen = 0;
  for (auto& op : ops_) {
    if (!op.q8) continue;
    if (seen == index) return {op.q8->q.data(), op.q8->q.size()};
    ++seen;
  }
  throw std::out_of_range("InferencePlan: int8 op index " +
                          std::to_string(index) + " out of range (have " +
                          std::to_string(seen) + ")");
}

std::string InferencePlan::summary() const {
  static const char* const kKindNames[] = {
      "conv2d",          "linear",     "batch_norm2d", "max_pool2d",
      "global_avg_pool", "activation", "add"};
  std::ostringstream os;
  os << "InferencePlan: " << ops_.size() << " ops (" << fused_ops_
     << " fused, " << bn_folded_ << " bn-folded, " << int8_ops_
     << " int8), " << values_.size() << " values, max_batch " << max_batch_
     << ", arena " << arena_bytes() / 1024 << " KiB\n";
  for (const Op& op : ops_) {
    os << "  %" << op.out << " = "
       << kKindNames[static_cast<std::size_t>(op.kind)] << "(%" << op.in0;
    if (op.in1 >= 0) os << ", %" << op.in1;
    os << ")";
    if (op.kind == PlanBuilder::OpKind::conv2d ||
        op.kind == PlanBuilder::OpKind::linear) {
      if (op.gamma.defined()) os << " + batch_norm2d";
      if (op.site != nullptr) os << " + activation";
      if (op.q8) os << " [int8]";
    }
    os << " -> "
       << values_[static_cast<std::size_t>(op.out)].sample_shape.str();
    if (!op.label.empty()) os << "  # " << op.label;
    os << "\n";
  }
  return os.str();
}

}  // namespace fitact::nn
