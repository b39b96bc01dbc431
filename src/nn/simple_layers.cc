#include "nn/simple_layers.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"

namespace stepping {

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

IOSpec ReLU::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  assignment_ = in.assignment;
  units_ = in.units;
  return in;
}

Tensor ReLU::forward(const Tensor& x, const SubnetContext& ctx) {
  Tensor y;
  if (ctx.training) {
    relu_forward(x, y, mask_);
  } else {
    y = Tensor(x.shape());  // zero-filled; inactive units stay zero
    forward_step(x, y, 0, ctx, nullptr);
  }
  return y;
}

void ReLU::forward_step(const Tensor& x, Tensor& y, int from,
                        const SubnetContext& ctx, StepColumns* cols) {
  (void)cols;
  if (y.shape() != x.shape()) y = Tensor(x.shape());
  // An unwired ReLU has no unit structure: the whole row is one unit.
  const int units = units_ > 0 ? units_ : 1;
  for_each_unit_run(assignment_.get(), units, from, ctx.subnet_id,
                    [&](int u0, int u1) { relu_units(x, y, units, u0, u1); });
}

void ReLU::forward_delta(const Tensor& x, Tensor& y,
                         const SpatialRegion& out_region,
                         const SubnetContext& ctx) {
  assert(!ctx.training);
  if (x.rank() != 4 || y.shape() != x.shape()) {
    forward_step(x, y, 0, ctx, nullptr);
    return;
  }
  for_each_unit_run(assignment_.get(), x.dim(1), 0, ctx.subnet_id,
                    [&](int c0, int c1) {
    relu_region(x, y, out_region, c0, c1);
  });
}

Tensor ReLU::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  Tensor grad_x;
  relu_backward(grad_y, mask_, grad_x);
  return grad_x;
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

IOSpec MaxPool2d::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  if (in.flat) throw std::invalid_argument(name_ + ": MaxPool2d needs NCHW");
  if (in.h % k_ != 0 || in.w % k_ != 0) {
    throw std::invalid_argument(name_ + ": extent not divisible by pool size");
  }
  IOSpec out = in;
  out.h = in.h / k_;
  out.w = in.w / k_;
  assignment_ = in.assignment;
  return out;
}

Tensor MaxPool2d::forward(const Tensor& x, const SubnetContext& ctx) {
  Tensor y;
  if (ctx.training) {
    in_shape_ = x.shape();
    maxpool_forward(x, k_, y, argmax_);
  } else {
    forward_step(x, y, 0, ctx, nullptr);
  }
  return y;
}

void MaxPool2d::forward_step(const Tensor& x, Tensor& y, int from,
                             const SubnetContext& ctx, StepColumns* cols) {
  (void)cols;
  assert(x.rank() == 4);
  const std::vector<int> shape{x.dim(0), x.dim(1), x.dim(2) / k_,
                               x.dim(3) / k_};
  if (y.shape() != shape) y = Tensor(shape);
  const SpatialRegion whole = SpatialRegion::full(shape[2], shape[3]);
  for_each_unit_run(assignment_.get(), x.dim(1), from, ctx.subnet_id,
                    [&](int c0, int c1) {
    maxpool_channels(x, k_, y, c0, c1, whole);
  });
}

void MaxPool2d::forward_delta(const Tensor& x, Tensor& y,
                              const SpatialRegion& out_region,
                              const SubnetContext& ctx) {
  assert(!ctx.training && x.rank() == 4);
  if (y.shape() != std::vector<int>{x.dim(0), x.dim(1), x.dim(2) / k_,
                                    x.dim(3) / k_}) {
    forward_step(x, y, 0, ctx, nullptr);
    return;
  }
  // Every pooled output whose window meets the dirty input is inside
  // out_region (propagate_dirty_region rounds outward), and each window it
  // recomputes reads the spliced, exact input.
  for_each_unit_run(assignment_.get(), x.dim(1), 0, ctx.subnet_id,
                    [&](int c0, int c1) {
    maxpool_channels(x, k_, y, c0, c1, out_region);
  });
}

Tensor MaxPool2d::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  Tensor grad_x(in_shape_);
  maxpool_backward(grad_y, argmax_, grad_x);
  return grad_x;
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

IOSpec Flatten::wire(const IOSpec& in, Rng& rng) {
  (void)rng;
  if (in.flat) throw std::invalid_argument(name_ + ": input already flat");
  IOSpec out;
  out.units = in.units;
  out.features_per_unit = in.h * in.w;
  out.flat = true;
  out.assignment = in.assignment;
  assignment_ = in.assignment;
  return out;
}

Tensor Flatten::forward(const Tensor& x, const SubnetContext& ctx) {
  assert(x.rank() == 4);
  const int n = x.dim(0);
  const int f = static_cast<int>(x.numel() / n);
  in_shape_ = x.shape();
  if (!ctx.training) {
    Tensor y({n, f});  // zero-filled; inactive units stay zero
    forward_step(x, y, 0, ctx, nullptr);
    return y;
  }
  return x.reshaped({n, f});
}

void Flatten::forward_step(const Tensor& x, Tensor& y, int from,
                           const SubnetContext& ctx, StepColumns* cols) {
  (void)cols;
  assert(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1);
  const std::int64_t per = static_cast<std::int64_t>(x.dim(2)) * x.dim(3);
  const std::vector<int> shape{n, static_cast<int>(c * per)};
  if (y.shape() != shape) y = Tensor(shape);
  for_each_unit_run(assignment_.get(), c, from, ctx.subnet_id,
                    [&](int u0, int u1) {
    for (int i = 0; i < n; ++i) {
      const std::int64_t off = (static_cast<std::int64_t>(i) * c + u0) * per;
      std::memcpy(y.data() + off, x.data() + off,
                  sizeof(float) * static_cast<std::size_t>((u1 - u0) * per));
    }
  });
}

Tensor Flatten::backward(const Tensor& grad_y, const SubnetContext& ctx) {
  (void)ctx;
  return grad_y.reshaped(in_shape_);
}

}  // namespace stepping
