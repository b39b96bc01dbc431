// Depthwise 2-D convolution: one kxk filter per channel, no cross-channel
// mixing — the building block of the MobileNet family (paper refs [5]-[7]),
// provided so depthwise-separable architectures can be stepped too.
//
// Subnet semantics: a depthwise unit u reads ONLY input unit u, so it must
// live in exactly its producer's subnet — the layer therefore SHARES the
// producer's assignment vector (moving the producer moves the depthwise
// filter with it) and reports units_movable() == false to the mover.
#pragma once

#include "nn/masked_layer.h"
#include "tensor/ops.h"

namespace stepping {

class DepthwiseConv2d final : public MaskedLayer {
 public:
  /// pad < 0 selects "same" padding (kernel / 2).
  DepthwiseConv2d(std::string name, int kernel, int stride = 1, int pad = -1);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  /// Same receptive-field geometry as a regular convolution (per channel).
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return conv_dirty_out_region(geom_, in);
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<DepthwiseConv2d>(*this);
  }

  int in_unit_of(int unit, int col) const override {
    (void)col;
    return unit;  // channel u reads only channel u
  }
  bool units_movable() const override { return false; }
  void revive_in_unit_cols(int in_unit) override { revive_unit_row(in_unit); }

  const Conv2dGeometry& geometry() const { return geom_; }

 private:
  /// Convolve one channel plane with one kxk filter (accumulating).
  void conv_plane(const float* x, const float* w, float* y) const;
  /// Adjoint: scatter grad_y back through the filter into grad_x.
  void conv_plane_backward(const float* gy, const float* w, float* gx) const;
  /// dW for one plane: correlation of input with grad_y.
  void conv_plane_weight_grad(const float* x, const float* gy, float* gw) const;

  std::string name_;
  int kernel_;
  int stride_;
  int pad_;
  Conv2dGeometry geom_;  // out_c == in_c

  Tensor x_cache_;
  Tensor preact_cache_;
};

}  // namespace stepping
