#include "nn/conv2d.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "quant/calibration.h"
#include "quant/prepared.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "util/arena.h"

namespace stepping {

Conv2d::Conv2d(std::string name, int out_channels, int kernel, int stride,
               int pad)
    : name_(std::move(name)),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad) {
  if (out_channels <= 0 || kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("Conv2d: bad hyperparameters");
  }
}

IOSpec Conv2d::wire(const IOSpec& in, Rng& rng) {
  if (in.flat) throw std::invalid_argument(name_ + ": Conv2d needs spatial input");
  geom_ = Conv2dGeometry{in.units, in.h, in.w, out_channels_, kernel_, stride_,
                         pad_};
  if (geom_.out_h() <= 0 || geom_.out_w() <= 0) {
    throw std::invalid_argument(name_ + ": output collapses to zero size");
  }
  const int patch = geom_.patch();
  init_structure(out_channels_, patch, kernel_ * kernel_,
                 static_cast<std::int64_t>(geom_.out_h()) * geom_.out_w(),
                 in.assignment, rng, patch);
  IOSpec out;
  out.units = out_channels_;
  out.features_per_unit = 1;
  out.h = geom_.out_h();
  out.w = geom_.out_w();
  out.flat = false;
  out.assignment = out_assign_;
  return out;
}

Tensor Conv2d::forward(const Tensor& x, const SubnetContext& ctx) {
  return forward_impl(x, ctx, /*relu=*/false);
}

Tensor Conv2d::forward_relu(const Tensor& x, const SubnetContext& ctx) {
  assert(!ctx.training);  // fusion is inference-only (backward needs preact)
  return forward_impl(x, ctx, /*relu=*/true);
}

Tensor Conv2d::forward_impl(const Tensor& x, const SubnetContext& ctx,
                            bool relu) {
  assert(x.rank() == 4 && x.dim(1) == geom_.in_c);
  const int n = x.dim(0);
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const int spatial = oh * ow;

  if (ctx.calib_record != nullptr && !ctx.training) {
    // im2col only replicates/zero-pads input values, and 0 quantizes exactly
    // to the zero point, so calibrating on x covers the column matrix too.
    ctx.calib_record->record(name_, ctx.subnet_id, x.data(),
                             static_cast<std::size_t>(x.numel()));
  }

  Tensor y({n, units_, oh, ow});  // zero-filled; inactive units stay zero

  // Int8 rung (ISSUE 7): see Dense::forward_impl. Resolved once per batch;
  // non-null => every image below runs the u8 x i8 provider.
  if (ctx.precision == quant::Precision::kInt8 && !ctx.training && !is_head_ &&
      ctx.calibration != nullptr) {
    if (const quant::CalibEntry* calib =
            ctx.calibration->find(name_, ctx.subnet_id)) {
      const Tensor& w = effective_weights();
      const auto& active = active_flags(ctx.subnet_id);
      ArenaScope ws;
      const std::int64_t patch = geom_.patch();
      float* cols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
      const std::int64_t in_img =
          static_cast<std::int64_t>(geom_.in_c) * geom_.in_h * geom_.in_w;
      const std::int64_t out_img = static_cast<std::int64_t>(units_) * spatial;
      const quant::PreparedInt8 pw = quant::prepare_int8_weights(
          pack_id(), w.data(), units_, static_cast<int>(patch));
      const quant::ActQuant aq = ctx.calibration->params(*calib);
      for (int i = 0; i < n; ++i) {
        im2col(x.data() + i * in_img, geom_, cols);
        quant::int8_conv_forward(cols, spatial, pw, aq, active.data(),
                                 bias_.value.data(), relu,
                                 y.data() + i * out_img);
      }
      return y;
    }
  }

  compute_rows(x, y, 0, ctx.subnet_id, relu, nullptr, /*zero_rows=*/false,
               ctx.training);
  if (ctx.training) {
    x_cache_ = x;
    preact_cache_ = y;  // Eq. 2 harvesting (inactive units zero, skipped)
  }
  return y;
}

void Conv2d::compute_rows(const Tensor& x, Tensor& y, int from, int to,
                          bool relu, StepColumns* cache, bool zero_rows,
                          bool training) {
  const Tensor& w = effective_weights(training);
  int r0 = 0, r1 = 0;
  joining_rows(from, to, rows_, &r0, &r1);
  if (r0 == r1) return;
  const int n = x.dim(0);
  const int spatial = geom_.out_h() * geom_.out_w();
  const int kk = kernel_ * kernel_;
  const int patch = geom_.patch();
  // The contraction stops after the last input channel active at `to`;
  // rows past it are never lowered or read.
  const int c_end = input_units_end(to);
  const int k = c_end * kk;
  const std::int64_t in_img =
      static_cast<std::int64_t>(geom_.in_c) * geom_.in_h * geom_.in_w;
  const std::int64_t out_img = static_cast<std::int64_t>(units_) * spatial;
  const std::size_t plane = static_cast<std::size_t>(spatial);

  if (zero_rows) {
    // The kernel accumulates into C; a recomputed row starts from +0 exactly
    // as it does in a zero-filled tensor (it may hold a larger subnet's or
    // an earlier input's values).
    for (int i = 0; i < n; ++i) {
      for (int u = r0; u < r1; ++u) {
        if (!rows_[static_cast<std::size_t>(u)]) continue;
        std::memset(y.data() + i * out_img + u * plane, 0,
                    sizeof(float) * plane);
      }
    }
  }

  // Column source, lowered straight into the active tier's GEMM panels (no
  // pack stage). A ladder state's cache holds the full channel layout
  // (panel_k = patch) and lowers each input channel once per input; rows it
  // has not lowered for this input belong to channels a body layer's weights
  // reach only through exact zeros, which the GEMM skips, so their content
  // is never multiplied. A head (nonzero weights everywhere) and cache-less
  // passes lower the k contracted rows into arena scratch (lower_active).
  const int nr = gemm_panel_width();
  const int npanels = (spatial + nr - 1) / nr;
  const bool use_cache = cache != nullptr && !is_head_;
  const int panel_k = use_cache ? patch : k;
  const std::size_t img_cols =
      static_cast<std::size_t>(npanels) * nr * static_cast<std::size_t>(panel_k);
  const SpatialRegion whole = SpatialRegion::full(geom_.out_h(), geom_.out_w());
  ArenaScope ws;
  float* scratch = nullptr;
  if (use_cache) {
    cache->fit({n, patch, npanels * nr}, nr);
    if (from == 0) cache->level = 0;  // a new input
    if (to > cache->level) {
      for (int i = 0; i < n; ++i) {
        for_each_unit_run(in_assign_.get(), geom_.in_c, cache->level, to,
                          [&](int c0, int c1) {
          im2col_panels(x.data() + i * in_img, geom_, whole, nr, patch,
                        cache->data() + i * img_cols, c0, c1);
        });
      }
      cache->level = to;
    }
  } else {
    scratch = ws.alloc_floats(img_cols);
  }

  for (int i = 0; i < n; ++i) {
    float* cols = use_cache ? cache->data() + i * img_cols : scratch;
    if (!use_cache) {
      lower_active(x.data() + i * in_img, whole, to, c_end, nr, cols);
    }
    // y rows [r0, r1) (U x S) = w rows [r0, r1), first k columns (row stride
    // patch) * cols (k x S) + bias, flagged rows only, with the bias add (and
    // optional ReLU) fused into the micro-kernel store.
    gemm_rows_bias_panels(w.data() + static_cast<std::size_t>(r0) * patch,
                          cols, y.data() + i * out_img + r0 * plane, r1 - r0,
                          k, spatial, panel_k, rows_.data() + r0,
                          bias_.value.data() + r0, relu, patch);
  }
}

Tensor Conv2d::backward(const Tensor& grad_y_in, const SubnetContext& ctx) {
  Tensor grad_y = grad_y_in;
  const int n = grad_y.dim(0);
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const int spatial = oh * ow;
  if (!is_head_) mask_inactive_units(grad_y, *out_assign_, 1, ctx.subnet_id);

  if (ctx.harvest_importance) {
    harvest_importance(grad_y, preact_cache_, ctx, spatial);
  }

  if (weight_.grad.shape() != weight_.value.shape()) weight_.zero_grad();
  if (bias_.grad.shape() != bias_.value.shape()) bias_.zero_grad();

  const Tensor& w = effective_weights(/*training=*/true);
  const auto& active = active_flags(ctx.subnet_id);
  Tensor grad_x(x_cache_.shape());
  ArenaScope ws;
  const std::int64_t patch = geom_.patch();
  float* cols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
  float* dcols = ws.alloc_floats(static_cast<std::size_t>(patch) * spatial);
  const std::int64_t in_img = static_cast<std::int64_t>(geom_.in_c) * geom_.in_h *
                              geom_.in_w;
  const std::int64_t out_img = static_cast<std::int64_t>(units_) * spatial;

  for (int i = 0; i < n; ++i) {
    im2col(x_cache_.data() + i * in_img, geom_, cols);
    // gi (U x S) is image i's slice of grad_y, read in place (the former
    // per-image Tensor copy is gone).
    const float* gi = grad_y.data() + i * out_img;
    // dW (U x P) += gi (U x S) * cols^T (S x P), active units only (grads of
    // inactive units are identically zero).
    gemm_nt_rows_acc(gi, cols, weight_.grad.data(), units_, spatial,
                     static_cast<int>(patch), active.data());
    // db += row sums of gi
    float* db = bias_.grad.data();
    for (int u = 0; u < units_; ++u) {
      if (!active[static_cast<std::size_t>(u)]) continue;
      float acc = 0.0f;
      for (int s = 0; s < spatial; ++s)
        acc += gi[static_cast<std::int64_t>(u) * spatial + s];
      db[u] += acc;
    }
    // dcols (P x S) = w^T (P x U) * gi (U x S), skipping inactive units.
    gemm_tn_rows(w.data(), gi, dcols, static_cast<int>(patch), units_, spatial,
                 active.data());
    col2im(dcols, geom_, grad_x.data() + i * in_img);
  }
  return grad_x;
}

void Conv2d::forward_delta(const Tensor& x, Tensor& y,
                           const SpatialRegion& out_region,
                           const SubnetContext& ctx) {
  assert(!ctx.training);
  // Fall back to the full active-channel pass whenever the cached plane
  // cannot be spliced into: head semantics, int8 precision (delta reuse is
  // an fp32 bitwise property, like incremental step-up), no cached plane, or
  // a region that already covers the plane.
  const int oh = geom_.out_h(), ow = geom_.out_w();
  const SpatialRegion reg = out_region.clipped(oh, ow);
  const bool int8_pass = ctx.precision == quant::Precision::kInt8 &&
                         ctx.calibration != nullptr;
  if (int8_pass || ctx.calib_record != nullptr) {
    y = forward(x, ctx);
    return;
  }
  assert(x.rank() == 4 && x.dim(1) == geom_.in_c);
  const int n = x.dim(0);
  if (is_head_ || reg.covers(oh, ow) ||
      y.shape() != std::vector<int>({n, units_, oh, ow})) {
    forward_step(x, y, 0, ctx, nullptr);
    return;
  }
  if (reg.empty()) return;  // nothing dirty reaches this layer
  const int to = ctx.subnet_id;
  const Tensor& w = effective_weights();
  int r0 = 0, r1 = 0;
  joining_rows(0, to, rows_, &r0, &r1);
  if (r0 == r1) return;
  const int patch = geom_.patch();
  const int c_end = input_units_end(to);
  const int k = c_end * kernel_ * kernel_;
  const int rw = reg.width();
  const std::int64_t area = reg.area();
  const int nr = gemm_panel_width();
  const std::int64_t npanels = (area + nr - 1) / nr;
  ArenaScope ws;
  float* cols =
      ws.alloc_floats(static_cast<std::size_t>(npanels * nr) * k);
  float* part = ws.alloc_floats(static_cast<std::size_t>(r1 - r0) * area);
  const std::int64_t in_img = static_cast<std::int64_t>(geom_.in_c) * geom_.in_h *
                              geom_.in_w;
  const std::int64_t out_img = static_cast<std::int64_t>(units_) * oh * ow;
  for (int i = 0; i < n; ++i) {
    // Lower only the dirty output positions of the active input channels;
    // the resulting columns are byte-identical to the corresponding columns
    // of the full im2col, and each GEMM output element's FP sequence depends
    // only on its own column (tensor/gemm_kernel.h), so `part` carries
    // exactly the bits a full forward would put at those positions.
    lower_active(x.data() + i * in_img, reg, to, c_end, nr, cols);
    // The kernel accumulates into C (the full path hands it a zero-filled
    // tensor); arena scratch must be zeroed the same way each image.
    std::memset(part, 0,
                sizeof(float) * static_cast<std::size_t>(r1 - r0) * area);
    gemm_rows_bias_panels(w.data() + static_cast<std::size_t>(r0) * patch,
                          cols, part, r1 - r0, k, static_cast<int>(area), k,
                          rows_.data() + r0, bias_.value.data() + r0,
                          /*relu=*/false, patch);
    float* yi = y.data() + i * out_img;
    for (int u = r0; u < r1; ++u) {
      if (!rows_[static_cast<std::size_t>(u)]) continue;
      const float* prow = part + static_cast<std::size_t>(u - r0) * area;
      float* plane = yi + static_cast<std::int64_t>(u) * oh * ow;
      for (int r = reg.r0; r < reg.r1; ++r) {
        std::memcpy(plane + static_cast<std::size_t>(r) * ow + reg.c0,
                    prow + static_cast<std::size_t>(r - reg.r0) * rw,
                    sizeof(float) * static_cast<std::size_t>(rw));
      }
    }
  }
}

void Conv2d::lower_active(const float* x, const SpatialRegion& reg, int to,
                          int c_end, int nr, float* cols) const {
  const Assignment* in_a = in_assign_.get();
  const int kk = kernel_ * kernel_;
  const int k = c_end * kk;
  for_each_unit_run(in_a, c_end, 0, to, [&](int c0, int c1) {
    im2col_panels(x, geom_, reg, nr, k, cols, c0, c1);
  });
  // Inactive channels below c_end (scattered assignments only) become zero
  // rows in every panel: a head reads them with nonzero weights, and zero
  // is what the masked input held there.
  const std::int64_t npanels = (reg.area() + nr - 1) / nr;
  const std::size_t run = static_cast<std::size_t>(kk) * nr;
  for (int c = 0; c < c_end; ++c) {
    if (unit_joins(in_a, c, 0, to)) continue;
    for (std::int64_t q = 0; q < npanels; ++q) {
      std::memset(cols + (static_cast<std::size_t>(q) * k +
                          static_cast<std::size_t>(c) * kk) * nr,
                  0, sizeof(float) * run);
    }
  }
}

void Conv2d::forward_step(const Tensor& x, Tensor& y, int from,
                          const SubnetContext& ctx, StepColumns* cols) {
  assert(!ctx.training && x.rank() == 4 && x.dim(1) == geom_.in_c);
  if (ctx.precision == quant::Precision::kInt8 && ctx.calibration != nullptr) {
    y = forward(x, ctx);  // int8 has no step route; it runs each level whole
    return;
  }
  const std::vector<int> shape{x.dim(0), units_, geom_.out_h(), geom_.out_w()};
  const bool fresh = y.shape() != shape;
  if (fresh) y = Tensor(shape);
  // Units joining in (from, to] are computed through the SAME dispatcher
  // forward() uses, so a step follows the active ISA tier's multiply-add
  // semantics and stays bit-identical to a from-scratch evaluation; units
  // evaluated at `from` are never touched. A head recomputes every unit.
  compute_rows(x, y, is_head_ ? 0 : from, ctx.subnet_id, /*relu=*/false, cols,
               /*zero_rows=*/!fresh, /*training=*/false);
}

}  // namespace stepping
