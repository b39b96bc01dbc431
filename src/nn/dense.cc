#include "nn/dense.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "quant/calibration.h"
#include "quant/prepared.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/arena.h"

namespace stepping {

Dense::Dense(std::string name, int out_features)
    : name_(std::move(name)), out_features_(out_features) {
  if (out_features <= 0) throw std::invalid_argument("Dense: bad out_features");
}

IOSpec Dense::wire(const IOSpec& in, Rng& rng) {
  if (!in.flat) {
    throw std::invalid_argument(name_ + ": Dense needs flat input (add Flatten)");
  }
  const int in_features = in.total_features();
  init_structure(out_features_, in_features, in.features_per_unit,
                 /*macs_per_weight=*/1, in.assignment, rng, in_features);
  IOSpec out;
  out.units = out_features_;
  out.features_per_unit = 1;
  out.flat = true;
  out.assignment = out_assign_;
  return out;
}

Tensor Dense::forward(const Tensor& x, const SubnetContext& ctx) {
  return forward_impl(x, ctx, /*relu=*/false);
}

Tensor Dense::forward_relu(const Tensor& x, const SubnetContext& ctx) {
  assert(!ctx.training);  // fusion is inference-only (backward needs preact)
  return forward_impl(x, ctx, /*relu=*/true);
}

Tensor Dense::forward_impl(const Tensor& x, const SubnetContext& ctx,
                           bool relu) {
  assert(x.rank() == 2 && x.dim(1) == cols_);
  const int n = x.dim(0);

  if (ctx.calib_record != nullptr && !ctx.training) {
    ctx.calib_record->record(name_, ctx.subnet_id, x.data(),
                             static_cast<std::size_t>(x.numel()));
  }

  Tensor y({n, units_});  // zero-filled; inactive units stay zero

  // Int8 rung (ISSUE 7): body layers with a calibrated input range run the
  // u8 x i8 providers; heads stay fp32 (logits feed confidence gates), as
  // does any (layer, level) pair calibration never saw.
  if (ctx.precision == quant::Precision::kInt8 && !ctx.training && !is_head_ &&
      ctx.calibration != nullptr) {
    if (const quant::CalibEntry* e =
            ctx.calibration->find(name_, ctx.subnet_id)) {
      const Tensor& w = effective_weights();
      const quant::PreparedInt8 pw =
          quant::prepare_int8_weights(pack_id(), w.data(), units_, cols_);
      quant::int8_dense_forward(x.data(), n, pw, ctx.calibration->params(*e),
                                active_flags(ctx.subnet_id).data(),
                                bias_.value.data(), relu, y.data());
      return y;
    }
  }

  compute_cols(x, y, 0, ctx.subnet_id, relu, /*zero_cols=*/false,
               ctx.training);
  if (ctx.training) {
    x_cache_ = x;
    preact_cache_ = y;
  }
  return y;
}

void Dense::compute_cols(const Tensor& x, Tensor& y, int from, int to,
                         bool relu, bool zero_cols, bool training) {
  const Tensor& w = effective_weights(training);
  int j0 = 0, j1 = 0;
  joining_rows(from, to, cols_flags_, &j0, &j1);
  if (j0 == j1) return;
  const int n = x.dim(0);
  if (zero_cols) {
    // The kernel accumulates into C: recomputed columns of reused state
    // restart from +0, as in a zero-filled tensor.
    for (int i = 0; i < n; ++i) {
      float* row = y.data() + static_cast<std::size_t>(i) * units_;
      for (int j = j0; j < j1; ++j) {
        if (cols_flags_[static_cast<std::size_t>(j)]) row[j] = 0.0f;
      }
    }
  }
  const int c_end = input_units_end(to);
  const int k = c_end * col_group_;
  const Assignment* in_a = in_assign_.get();
  bool gaps = false;
  for (int c = 0; c < c_end && !gaps; ++c) gaps = !unit_joins(in_a, c, 0, to);
  // A operand: the input features of the active input units, contiguous
  // (n x k). Inactive units below c_end (scattered assignments only) read
  // as zero — what the masked input held there — because x may carry a
  // larger subnet's values in them. The contraction past c_end is dropped:
  // those terms multiplied a zero input, and adding a +-0 product never
  // changes an accumulator that started at +0.
  ArenaScope ws;
  const float* a = x.data();
  if (gaps || (n > 1 && k < cols_)) {
    float* packed = ws.alloc_floats(static_cast<std::size_t>(n) * k);
    for (int i = 0; i < n; ++i) {
      const float* src = x.data() + static_cast<std::size_t>(i) * cols_;
      float* dst = packed + static_cast<std::size_t>(i) * k;
      for (int c = 0; c < c_end; ++c) {
        const std::size_t off = static_cast<std::size_t>(c) * col_group_;
        if (unit_joins(in_a, c, 0, to)) {
          std::memcpy(dst + off, src + off, sizeof(float) * col_group_);
        } else {
          std::memset(dst + off, 0, sizeof(float) * col_group_);
        }
      }
    }
    a = packed;
  }
  // y (N x U) = a (N x k) * w[:, :k]^T, flagged columns only, bias (and
  // optionally ReLU) fused into the micro-kernel store. Training passes
  // pack_id 0: weights change every step, so caching their packed panels
  // would only thrash the cache.
  gemm_nt_cols_bias(a, w.data(), y.data(), n, k, units_, cols_flags_.data(),
                    bias_.value.data(), relu, training ? 0 : pack_id(),
                    /*ldb=*/cols_);
}

Tensor Dense::backward(const Tensor& grad_y_in, const SubnetContext& ctx) {
  Tensor grad_y = grad_y_in;
  if (!is_head_) mask_inactive_units(grad_y, *out_assign_, 1, ctx.subnet_id);

  if (ctx.harvest_importance) {
    harvest_importance(grad_y, preact_cache_, ctx, /*per_unit=*/1);
  }

  if (weight_.grad.shape() != weight_.value.shape()) weight_.zero_grad();
  if (bias_.grad.shape() != bias_.value.shape()) bias_.zero_grad();

  const int n = grad_y.dim(0);
  // dW (U x F) += grad^T (U x N) * x (N x F)
  gemm_tn(grad_y, x_cache_, weight_.grad, /*accumulate=*/true);
  // db += column sums of grad
  float* db = bias_.grad.data();
  const float* g = grad_y.data();
  for (int i = 0; i < n; ++i) {
    for (int u = 0; u < units_; ++u) db[u] += g[static_cast<std::int64_t>(i) * units_ + u];
  }
  // dx (N x F) = grad (N x U) * w (U x F)
  const Tensor& w = effective_weights(/*training=*/true);
  Tensor grad_x({n, cols_});
  gemm(grad_y, w, grad_x);
  return grad_x;
}

void Dense::forward_step(const Tensor& x, Tensor& y, int from,
                         const SubnetContext& ctx, StepColumns* cols) {
  (void)cols;
  assert(!ctx.training && x.rank() == 2 && x.dim(1) == cols_);
  if (ctx.precision == quant::Precision::kInt8 && ctx.calibration != nullptr) {
    y = forward(x, ctx);  // int8 has no step route; it runs each level whole
    return;
  }
  const int n = x.dim(0);
  const std::vector<int> shape{n, units_};
  const bool fresh = y.shape() != shape;
  if (fresh) y = Tensor(shape);
  // Units joining in (from, to] run through the SAME dispatcher forward()
  // uses, so results stay bit-identical to a from-scratch evaluation; a head
  // recomputes every unit.
  compute_cols(x, y, is_head_ ? 0 : from, ctx.subnet_id, /*relu=*/false,
               /*zero_cols=*/!fresh, /*training=*/false);
}

}  // namespace stepping
