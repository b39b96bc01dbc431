// Subnet-aware 2-D convolution (NCHW), lowered to GEMM via im2col — at
// inference straight into the GEMM's panel layout (implicit GEMM: no pack).
//
// Each output filter is a "unit" in the paper's sense; the structural rule
// s(in) <= s(out) gates whole kernel-column groups of the weight matrix.
#pragma once

#include <vector>

#include "nn/masked_layer.h"
#include "tensor/ops.h"

namespace stepping {

class Conv2d final : public MaskedLayer {
 public:
  /// pad < 0 selects "same" padding (kernel / 2).
  Conv2d(std::string name, int out_channels, int kernel, int stride = 1,
         int pad = -1);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  bool can_fuse_relu() const override { return true; }
  Tensor forward_relu(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return conv_dirty_out_region(geom_, in);
  }
  /// Delta recompute saves real MACs here (the body convs dominate the MAC
  /// budget); heads are recomputed in full per subnet, so they opt out.
  bool supports_spatial_delta() const override { return !is_head(); }
  void forward_delta(const Tensor& x, Tensor& y,
                     const SpatialRegion& out_region,
                     const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  const Conv2dGeometry& geometry() const { return geom_; }

 private:
  Tensor forward_impl(const Tensor& x, const SubnetContext& ctx, bool relu);

  /// The active-channel conv behind every fp32 route: computes the output
  /// rows joining in (from, to] (every row of a head) into `y`, contracting
  /// over the input channels active at `to` only. `cache` is the ladder
  /// state's lowered-column cache (null: lower into arena scratch);
  /// `zero_rows` clears the computed rows first when `y` is reused state.
  void compute_rows(const Tensor& x, Tensor& y, int from, int to, bool relu,
                    StepColumns* cache, bool zero_rows, bool training);

  /// Lower one image's input channels active at `to` (those below c_end)
  /// into the (c_end * k * k, reg.area()) column matrix over output region
  /// `reg`, laid out as `nr`-wide GEMM panels of c_end * k * k rows
  /// (im2col_panels); inactive channels among them get zero rows.
  void lower_active(const float* x, const SpatialRegion& reg, int to,
                    int c_end, int nr, float* cols) const;

  std::string name_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Conv2dGeometry geom_;

  std::vector<unsigned char> rows_;  // scratch: rows a pass computes

  // Per-batch caches for backward.
  Tensor x_cache_;       // input (im2col recomputed in backward to save RAM)
  Tensor preact_cache_;  // conv output + bias, pre-masking (Eq. 2 harvest)
};

}  // namespace stepping
