#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace fitact::ag {
namespace {

using detail::VarImpl;
using ImplPtr = std::shared_ptr<VarImpl>;

/// Accumulate g into the parent's gradient if it participates in autograd.
void accum(const ImplPtr& p, const Tensor& g) {
  if (!p->requires_grad) return;
  if (!p->grad.defined()) p->grad = Tensor::zeros(p->value.shape());
  float* dst = p->grad.data();
  const float* src = g.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) dst[i] += src[i];
}

void accum_scaled(const ImplPtr& p, const Tensor& g, float s) {
  if (!p->requires_grad) return;
  if (!p->grad.defined()) p->grad = Tensor::zeros(p->value.shape());
  float* dst = p->grad.data();
  const float* src = g.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) dst[i] += s * src[i];
}

float* grad_buffer(const ImplPtr& p) {
  if (!p->grad.defined()) p->grad = Tensor::zeros(p->value.shape());
  return p->grad.data();
}

// stable_sigmoid and FeatureBroadcast live in autograd/op_kernels.h, shared
// with the planned-execution engine (nn/plan.cpp).

void check_rank(const Variable& v, std::size_t rank, const char* op) {
  if (v.shape().rank() != rank) {
    throw std::invalid_argument(std::string(op) + ": expected rank " +
                                std::to_string(rank) + ", got " +
                                v.shape().str());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// arithmetic
// ---------------------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  Tensor out = fitact::add(a.value(), b.value());
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  return Variable::from_op(std::move(out), {a, b}, [pa, pb](const Tensor& g) {
    accum(pa, g);
    accum(pb, g);
  });
}

Variable scale(const Variable& a, float s) {
  Tensor out = fitact::scale(a.value(), s);
  const ImplPtr pa = a.impl();
  return Variable::from_op(std::move(out), {a}, [pa, s](const Tensor& g) {
    accum_scaled(pa, g, s);
  });
}

// ---------------------------------------------------------------------------
// linear algebra
// ---------------------------------------------------------------------------

Variable linear(const Variable& x, const Variable& w, const Variable& bias) {
  check_rank(x, 2, "linear");
  check_rank(w, 2, "linear");
  const std::int64_t batch = x.shape()[0];
  const std::int64_t in = x.shape()[1];
  const std::int64_t out_f = w.shape()[0];
  if (w.shape()[1] != in) {
    throw std::invalid_argument("linear: weight " + w.shape().str() +
                                " incompatible with input " + x.shape().str());
  }

  if (bias.defined() && bias.numel() != out_f) {
    throw std::invalid_argument("linear: bias extent mismatch");
  }
  // Weight transposed into scratch every call so the GEMM runs on its fast
  // path (shared kernel; plans reuse it with arena scratch).
  Tensor wt(Shape{in, out_f});
  Tensor out(Shape{batch, out_f});
  linear_forward(batch, in, out_f, x.value().data(), w.value().data(),
                 bias.defined() ? bias.value().data() : nullptr, wt.data(),
                 out.data());

  const ImplPtr px = x.impl();
  const ImplPtr pw_impl = w.impl();
  const ImplPtr pbias = bias.defined() ? bias.impl() : nullptr;
  const Tensor xv = x.value();
  const Tensor wv = w.value();
  std::vector<Variable> parents{x, w};
  if (bias.defined()) parents.push_back(bias);
  return Variable::from_op(
      std::move(out), std::move(parents),
      [px, pw_impl, pbias, xv, wv, batch, in, out_f](const Tensor& g) {
        if (px->requires_grad) {
          // dX[B,I] += g[B,O] * W[O,I]
          sgemm(false, false, batch, in, out_f, 1.0f, g.data(), out_f,
                wv.data(), in, 1.0f, grad_buffer(px), in);
        }
        if (pw_impl->requires_grad) {
          // dW[O,I] += g^T[O,B] * X[B,I]
          sgemm(true, false, out_f, in, batch, 1.0f, g.data(), out_f,
                xv.data(), in, 1.0f, grad_buffer(pw_impl), in);
        }
        if (pbias && pbias->requires_grad) {
          float* db = grad_buffer(pbias);
          const float* pg = g.data();
          for (std::int64_t r = 0; r < batch; ++r) {
            for (std::int64_t o = 0; o < out_f; ++o) db[o] += pg[r * out_f + o];
          }
        }
      });
}

// ---------------------------------------------------------------------------
// convolution / pooling
// ---------------------------------------------------------------------------

Variable conv2d(const Variable& x, const Variable& w, const Variable& bias,
                std::int64_t stride, std::int64_t padding) {
  check_rank(x, 4, "conv2d");
  check_rank(w, 4, "conv2d");
  const auto& xs = x.shape();
  const auto& ws = w.shape();
  if (ws[1] != xs[1]) {
    throw std::invalid_argument("conv2d: channel mismatch " + xs.str() +
                                " vs " + ws.str());
  }
  Conv2dGeometry geo;
  geo.in_channels = xs[1];
  geo.in_h = xs[2];
  geo.in_w = xs[3];
  geo.kernel_h = ws[2];
  geo.kernel_w = ws[3];
  geo.stride = stride;
  geo.padding = padding;
  const std::int64_t batch = xs[0];
  const std::int64_t out_c = ws[0];
  const std::int64_t oh = geo.out_h();
  const std::int64_t ow = geo.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: empty output for input " + xs.str());
  }
  const std::int64_t ckk = geo.col_rows();
  const std::int64_t ohw = geo.col_cols();

  Tensor out(Shape{batch, out_c, oh, ow});
  const float* px = x.value().data();
  const float* pw = w.value().data();
  const float* pb = bias.defined() ? bias.value().data() : nullptr;
  const std::int64_t in_stride = geo.in_channels * geo.in_h * geo.in_w;
  const std::int64_t out_stride = out_c * ohw;

  // conv2d_forward's results do not depend on how the batch is split.
  // Inline kernels (campaign lanes) run the whole batch in one call, so
  // the scratch is allocated and a padded plane's border zeroed once.
  // Otherwise batch-wide geometries give each pool thread one contiguous
  // run of samples, and the others balance one sample at a time, which
  // keeps every core busy on heavy convs.
  const auto forward_run = [&](std::size_t begin, std::size_t end) {
    const auto first = static_cast<std::int64_t>(begin);
    const auto count = static_cast<std::int64_t>(end - begin);
    // Uninitialised: conv2d_forward writes every scratch float it reads.
    const auto scratch = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(conv2d_scratch_floats(geo, out_c, count)));
    conv2d_forward(geo, out_c, count, px + first * in_stride, pw, pb,
                   scratch.get(), out.data() + first * out_stride);
  };
  if (ut::kernels_inline() || conv2d_route(geo) == ConvRoute::batch_wide) {
    ut::parallel_for(0, static_cast<std::size_t>(batch), forward_run);
  } else {
    ut::global_pool().parallel_for_each(
        0, static_cast<std::size_t>(batch), 1,
        [&](std::size_t b) { forward_run(b, b + 1); });
  }

  const ImplPtr px_impl = x.impl();
  const ImplPtr pw_impl = w.impl();
  const ImplPtr pb_impl = bias.defined() ? bias.impl() : nullptr;
  const Tensor xv = x.value();
  const Tensor wv = w.value();
  std::vector<Variable> parents{x, w};
  if (bias.defined()) parents.push_back(bias);

  return Variable::from_op(
      std::move(out), std::move(parents),
      [px_impl, pw_impl, pb_impl, xv, wv, geo, batch, out_c, ckk, ohw,
       in_stride, out_stride](const Tensor& g) {
        const float* pxv = xv.data();
        const float* pwv = wv.data();
        const float* pg = g.data();
        if (px_impl->requires_grad) {
          // Each sample's dX is one GEMM into a dcol buffer and one col2im
          // into that sample's own slice of dX, so samples share no state
          // and fan out over the pool, one dcol buffer per chunk (the
          // nested GEMMs run inline). Each dX element keeps its arithmetic
          // and its order of accumulation, whichever thread computes it.
          float* dx = grad_buffer(px_impl);
          ut::parallel_for(
              0, static_cast<std::size_t>(batch),
              [&](std::size_t begin, std::size_t end) {
                std::vector<float> dcol(static_cast<std::size_t>(ckk * ohw));
                for (auto b = static_cast<std::int64_t>(begin);
                     b < static_cast<std::int64_t>(end); ++b) {
                  // dCol[CKK,OHW] = W^T[CKK,O] * g_b[O,OHW]
                  sgemm(true, false, ckk, ohw, out_c, 1.0f, pwv, ckk,
                        pg + b * out_stride, ohw, 0.0f, dcol.data(), ohw);
                  col2im(geo, dcol.data(), dx + b * in_stride);
                }
              });
        }
        float* dw = pw_impl->requires_grad ? grad_buffer(pw_impl) : nullptr;
        float* db = (pb_impl && pb_impl->requires_grad) ? grad_buffer(pb_impl)
                                                        : nullptr;
        if (dw == nullptr && db == nullptr) return;
        // dW and db are shared across samples: they accumulate serially, in
        // sample order.
        std::vector<float> col;
        std::vector<float> colt;
        if (dw != nullptr) {
          col.resize(static_cast<std::size_t>(ckk * ohw));
          colt.resize(static_cast<std::size_t>(ckk * ohw));
        }
        for (std::int64_t b = 0; b < batch; ++b) {
          const float* gb = pg + b * out_stride;
          if (dw != nullptr) {
            im2col(geo, pxv + b * in_stride, col.data());
            // transpose col -> colt so dW uses the fast GEMM path
            for (std::int64_t r = 0; r < ckk; ++r) {
              for (std::int64_t c = 0; c < ohw; ++c) {
                colt[static_cast<std::size_t>(c * ckk + r)] =
                    col[static_cast<std::size_t>(r * ohw + c)];
              }
            }
            // dW[O,CKK] += g_b[O,OHW] * colT[OHW,CKK]
            sgemm(false, false, out_c, ckk, ohw, 1.0f, gb, ohw, colt.data(),
                  ckk, 1.0f, dw, ckk);
          }
          if (db != nullptr) {
            for (std::int64_t c = 0; c < out_c; ++c) {
              const float* row = gb + c * ohw;
              double acc = 0.0;
              for (std::int64_t i = 0; i < ohw; ++i) acc += row[i];
              db[c] += static_cast<float>(acc);
            }
          }
        }
      });
}

Variable max_pool2d(const Variable& x, std::int64_t kernel,
                    std::int64_t stride) {
  check_rank(x, 4, "max_pool2d");
  const auto& xs = x.shape();
  const std::int64_t batch = xs[0];
  const std::int64_t ch = xs[1];
  const std::int64_t h = xs[2];
  const std::int64_t w = xs[3];
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("max_pool2d: empty output for " + xs.str());
  }
  Tensor out(Shape{batch, ch, oh, ow});
  if (!grad_enabled() || !x.requires_grad()) {
    // No backward can read an argmax: run the branch-free loop the plans
    // use, which selects the same values (NaN included).
    max_pool2d_forward(batch, ch, h, w, kernel, stride, x.value().data(),
                       out.data(), nullptr);
    return Variable(std::move(out));
  }
  auto indices = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(out.numel()));

  max_pool2d_forward(batch, ch, h, w, kernel, stride, x.value().data(),
                     out.data(), indices->data());

  const ImplPtr px_impl = x.impl();
  return Variable::from_op(std::move(out), {x},
                           [px_impl, indices](const Tensor& g) {
                             if (!px_impl->requires_grad) return;
                             float* dx = grad_buffer(px_impl);
                             const float* pg = g.data();
                             for (std::int64_t i = 0; i < g.numel(); ++i) {
                               dx[(*indices)[static_cast<std::size_t>(i)]] +=
                                   pg[i];
                             }
                           });
}

Variable global_avg_pool(const Variable& x) {
  check_rank(x, 4, "global_avg_pool");
  const auto& xs = x.shape();
  const std::int64_t batch = xs[0];
  const std::int64_t ch = xs[1];
  const std::int64_t hw = xs[2] * xs[3];
  Tensor out(Shape{batch, ch});
  global_avg_pool_forward(batch, ch, hw, x.value().data(), out.data());
  const ImplPtr px_impl = x.impl();
  return Variable::from_op(
      std::move(out), {x}, [px_impl, hw](const Tensor& g) {
        if (!px_impl->requires_grad) return;
        float* dx = grad_buffer(px_impl);
        const float inv = 1.0f / static_cast<float>(hw);
        for (std::int64_t bc = 0; bc < g.numel(); ++bc) {
          const float gv = g[bc] * inv;
          float* plane = dx + bc * hw;
          for (std::int64_t i = 0; i < hw; ++i) plane[i] += gv;
        }
      });
}

Variable flatten(const Variable& x) {
  const auto& xs = x.shape();
  if (xs.rank() < 2) throw std::invalid_argument("flatten: rank < 2");
  const std::int64_t batch = xs[0];
  Tensor out = x.value().reshape(Shape{batch, x.numel() / batch});
  const ImplPtr px_impl = x.impl();
  return Variable::from_op(std::move(out), {x}, [px_impl](const Tensor& g) {
    accum(px_impl, g);  // same flat layout
  });
}

// ---------------------------------------------------------------------------
// batch normalisation
// ---------------------------------------------------------------------------

Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta, Tensor& running_mean,
                      Tensor& running_var, bool training, float momentum,
                      float eps) {
  check_rank(x, 4, "batch_norm2d");
  const auto& xs = x.shape();
  const std::int64_t batch = xs[0];
  const std::int64_t ch = xs[1];
  const std::int64_t hw = xs[2] * xs[3];
  const std::int64_t plane = ch * hw;
  if (gamma.numel() != ch || beta.numel() != ch ||
      running_mean.numel() != ch || running_var.numel() != ch) {
    throw std::invalid_argument("batch_norm2d: per-channel extent mismatch");
  }

  Tensor mean_t(Shape{ch});
  Tensor invstd_t(Shape{ch});
  const float* px = x.value().data();
  if (training) {
    const double m = static_cast<double>(batch * hw);
    for (std::int64_t c = 0; c < ch; ++c) {
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* p = px + b * plane + c * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += p[i];
          s2 += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mu = s / m;
      const double var = std::max(0.0, s2 / m - mu * mu);
      mean_t[c] = static_cast<float>(mu);
      invstd_t[c] = static_cast<float>(1.0 / std::sqrt(var + eps));
      running_mean[c] =
          (1.0f - momentum) * running_mean[c] + momentum * static_cast<float>(mu);
      running_var[c] =
          (1.0f - momentum) * running_var[c] + momentum * static_cast<float>(var);
    }
  } else {
    for (std::int64_t c = 0; c < ch; ++c) {
      mean_t[c] = running_mean[c];
      invstd_t[c] = 1.0f / std::sqrt(running_var[c] + eps);
    }
  }

  Tensor out(xs);
  const float* pg = gamma.value().data();
  const float* pbeta = beta.value().data();
  float* po = out.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < ch; ++c) {
      bn_plane_forward(px + b * plane + c * hw, po + b * plane + c * hw, hw,
                       mean_t[c], invstd_t[c], pg[c], pbeta[c]);
    }
  }

  const ImplPtr px_impl = x.impl();
  const ImplPtr pg_impl = gamma.impl();
  const ImplPtr pb_impl = beta.impl();
  const Tensor xv = x.value();
  const Tensor gv = gamma.value();
  return Variable::from_op(
      std::move(out), {x, gamma, beta},
      [px_impl, pg_impl, pb_impl, xv, gv, mean_t, invstd_t, training, batch,
       ch, hw, plane](const Tensor& g) {
        const float* pxv = xv.data();
        const float* pgv = gv.data();
        const float* pgrad = g.data();
        const std::int64_t m = batch * hw;

        for (std::int64_t c = 0; c < ch; ++c) {
          const float mu = mean_t[c];
          const float is = invstd_t[c];
          // Per-channel reductions: sum(g) and sum(g * xhat).
          double sum_g = 0.0;
          double sum_gx = 0.0;
          for (std::int64_t b = 0; b < batch; ++b) {
            const float* gp = pgrad + b * plane + c * hw;
            const float* xp = pxv + b * plane + c * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              sum_g += gp[i];
              sum_gx += static_cast<double>(gp[i]) * (xp[i] - mu) * is;
            }
          }
          if (pb_impl->requires_grad) {
            grad_buffer(pb_impl)[c] += static_cast<float>(sum_g);
          }
          if (pg_impl->requires_grad) {
            grad_buffer(pg_impl)[c] += static_cast<float>(sum_gx);
          }
          if (px_impl->requires_grad) {
            float* dx = grad_buffer(px_impl);
            const float ga = pgv[c];
            if (training) {
              const float inv_m = 1.0f / static_cast<float>(m);
              for (std::int64_t b = 0; b < batch; ++b) {
                const float* gp = pgrad + b * plane + c * hw;
                const float* xp = pxv + b * plane + c * hw;
                float* dxp = dx + b * plane + c * hw;
                for (std::int64_t i = 0; i < hw; ++i) {
                  const float xhat = (xp[i] - mu) * is;
                  dxp[i] += ga * is * inv_m *
                            (static_cast<float>(m) * gp[i] -
                             static_cast<float>(sum_g) -
                             xhat * static_cast<float>(sum_gx));
                }
              }
            } else {
              // Eval mode: affine map with constant statistics.
              const float scale = ga * is;
              for (std::int64_t b = 0; b < batch; ++b) {
                const float* gp = pgrad + b * plane + c * hw;
                float* dxp = dx + b * plane + c * hw;
                for (std::int64_t i = 0; i < hw; ++i) dxp[i] += scale * gp[i];
              }
            }
          }
        }
      });
}

// ---------------------------------------------------------------------------
// activations
// ---------------------------------------------------------------------------

Variable relu(const Variable& x) {
  Tensor out(x.shape());
  relu_forward(x.value().data(), out.data(), out.numel());
  const ImplPtr px_impl = x.impl();
  const Tensor xv = x.value();
  return Variable::from_op(std::move(out), {x}, [px_impl, xv](const Tensor& g) {
    if (!px_impl->requires_grad) return;
    float* dx = grad_buffer(px_impl);
    const float* pxv = xv.data();
    const float* pg = g.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      if (pxv[i] > 0.0f) dx[i] += pg[i];
    }
  });
}

Variable clipped_relu(const Variable& x, const Tensor& bound, ClipMode mode) {
  const FeatureBroadcast fb = FeatureBroadcast::of(x.shape());
  fb.validate_bound(bound.numel());
  const std::int64_t bn = bound.numel();

  Tensor out(x.shape());
  (void)clipped_relu_forward(x.value().data(), bound.data(), bn, fb, mode,
                             out.data(), out.numel());
  const ImplPtr px_impl = x.impl();
  const Tensor xv = x.value();
  const Tensor bv = bound;  // shared storage; cheap
  return Variable::from_op(
      std::move(out), {x}, [px_impl, xv, bv, fb, bn](const Tensor& g) {
        if (!px_impl->requires_grad) return;
        float* dx = grad_buffer(px_impl);
        const float* pxv = xv.data();
        const float* pbv = bv.data();
        const float* pg = g.data();
        for (std::int64_t i = 0; i < g.numel(); ++i) {
          const float xi = pxv[i];
          const float bi = pbv[fb.map(i % fb.feat, bn)];
          if (xi > 0.0f && xi <= bi) dx[i] += pg[i];
        }
      });
}

Variable fitrelu(const Variable& x, const Variable& lambda, float k) {
  const FeatureBroadcast fb = FeatureBroadcast::of(x.shape());
  fb.validate_bound(lambda.numel());
  const std::int64_t ln = lambda.numel();

  // The kernel is elementwise, so whole sample rows fan out over the pool
  // without changing a bit (campaign lanes run it inline).
  Tensor out(x.shape());
  const float* pxv = x.value().data();
  const float* plv = lambda.value().data();
  float* po = out.data();
  ut::parallel_for(0, static_cast<std::size_t>(x.shape()[0]),
                   [&](std::size_t begin, std::size_t end) {
                     const auto first = static_cast<std::int64_t>(begin);
                     const auto rows = static_cast<std::int64_t>(end - begin);
                     (void)fitrelu_forward(pxv + first * fb.feat, plv, ln, fb,
                                           k, po + first * fb.feat,
                                           rows * fb.feat);
                   });

  const ImplPtr px_impl = x.impl();
  const ImplPtr pl_impl = lambda.impl();
  const Tensor xv = x.value();
  const Tensor lv = lambda.value();
  return Variable::from_op(
      std::move(out), {x, lambda},
      [px_impl, pl_impl, xv, lv, fb, ln, k](const Tensor& g) {
        const float* pxv = xv.data();
        const float* plv = lv.data();
        const float* pg = g.data();
        float* dx = px_impl->requires_grad ? grad_buffer(px_impl) : nullptr;
        float* dl = pl_impl->requires_grad ? grad_buffer(pl_impl) : nullptr;
        const std::int64_t rows = g.numel() / fb.feat;
        // Bound j covers features [j * span, (j + 1) * span) of every sample
        // row: span 1 per neuron, hw per channel, feat per layer. A chunk of
        // bound indices owns their dl entries and those features' dx
        // entries, and walks the rows in sample order, so every entry sums
        // its terms in the order of one serial pass over the elements.
        const std::int64_t span = fb.feat / ln;
        const auto bound_range = [&](std::size_t begin, std::size_t end) {
          for (std::int64_t r = 0; r < rows; ++r) {
            for (auto j = static_cast<std::int64_t>(begin);
                 j < static_cast<std::int64_t>(end); ++j) {
              const float lj = plv[j];
              float dlj = dl != nullptr ? dl[j] : 0.0f;
              const std::int64_t first = r * fb.feat + j * span;
              for (std::int64_t i = first; i < first + span; ++i) {
                const float xi = pxv[i];
                if (xi <= 0.0f) continue;
                const float t = k * (lj - xi);
                // From kFitReluUnitT on, stable_sigmoid(t) is exactly 1
                // (kernels.h), so s skips the exp there; the rest of the
                // formula still runs, NaN, Inf and signed zeros included.
                const float s =
                    t >= kern::kFitReluUnitT ? 1.0f : stable_sigmoid(t);
                const float ds = s * (1.0f - s);
                if (dx != nullptr) {
                  // d/dx [x * s(k(l-x))] = s - k*x*s*(1-s)
                  dx[i] += pg[i] * (s - k * xi * ds);
                }
                // d/dl = k*x*s*(1-s)
                dlj += pg[i] * (k * xi * ds);
              }
              if (dl != nullptr) dl[j] = dlj;
            }
          }
        };
        ut::parallel_for(0, static_cast<std::size_t>(ln), bound_range);
      });
}

// ---------------------------------------------------------------------------
// losses / reductions
// ---------------------------------------------------------------------------

Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<std::int64_t>& labels) {
  check_rank(logits, 2, "softmax_cross_entropy");
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  if (static_cast<std::int64_t>(labels.size()) != batch) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }

  Tensor probs(Shape{batch, classes});
  const float* pl = logits.value().data();
  float* pp = probs.data();
  double loss_acc = 0.0;
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = pl + b * classes;
    float* prow = pp + b * classes;
    float mx = row[0];
    for (std::int64_t c = 1; c < classes; ++c) mx = std::max(mx, row[c]);
    double z = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      const float e = std::exp(row[c] - mx);
      prow[c] = e;
      z += e;
    }
    const float inv_z = static_cast<float>(1.0 / z);
    for (std::int64_t c = 0; c < classes; ++c) prow[c] *= inv_z;
    const std::int64_t y = labels[b];
    if (y < 0 || y >= classes) {
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    }
    loss_acc += -std::log(std::max(1e-12f, prow[y]));
  }

  Tensor loss = Tensor::scalar(
      static_cast<float>(loss_acc / static_cast<double>(batch)));
  const ImplPtr pl_impl = logits.impl();
  auto labels_copy = std::make_shared<std::vector<std::int64_t>>(labels);
  return Variable::from_op(
      std::move(loss), {logits},
      [pl_impl, probs, labels_copy, batch, classes](const Tensor& g) {
        if (!pl_impl->requires_grad) return;
        float* dx = grad_buffer(pl_impl);
        const float* pp2 = probs.data();
        const float gs = g[0] / static_cast<float>(batch);
        for (std::int64_t b = 0; b < batch; ++b) {
          const std::int64_t y = (*labels_copy)[static_cast<std::size_t>(b)];
          const float* prow = pp2 + b * classes;
          float* drow = dx + b * classes;
          for (std::int64_t c = 0; c < classes; ++c) {
            drow[c] += gs * (prow[c] - (c == y ? 1.0f : 0.0f));
          }
        }
      });
}

Variable sum_of_squares(const Variable& x) {
  double acc = 0.0;
  for (const auto v : x.value().span()) acc += static_cast<double>(v) * v;
  Tensor out = Tensor::scalar(static_cast<float>(acc));
  const ImplPtr px_impl = x.impl();
  const Tensor xv = x.value();
  return Variable::from_op(std::move(out), {x},
                           [px_impl, xv](const Tensor& g) {
                             if (!px_impl->requires_grad) return;
                             float* dx = grad_buffer(px_impl);
                             const float gs = 2.0f * g[0];
                             const float* pxv = xv.data();
                             for (std::int64_t i = 0; i < xv.numel(); ++i) {
                               dx[i] += gs * pxv[i];
                             }
                           });
}

}  // namespace fitact::ag
