// Parameterless layers: ReLU, MaxPool2d, Flatten.
//
// None of these mix channels, so they preserve the subnet reuse invariant
// untouched: at inference each writes only the units joining the executed
// level (forward_step) and keeps no ReLU mask or pool argmax, and Flatten
// only reinterprets the feature axis, forwarding the producer's assignment
// at `features_per_unit = H*W` granularity.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace stepping {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  bool is_relu() const override { return true; }
  /// Elementwise: a dirty input element dirties exactly itself.
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    return in;
  }
  bool supports_spatial_delta() const override { return true; }
  /// Rectifies only `out_region` of the active channels (NCHW input).
  void forward_delta(const Tensor& x, Tensor& y,
                     const SpatialRegion& out_region,
                     const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }

 private:
  std::string name_;
  AssignmentPtr assignment_;
  int units_ = 0;
  std::vector<unsigned char> mask_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, int k) : name_(std::move(name)), k_(k) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  /// Non-overlapping kxk window, stride k: output (r, c) reads input
  /// [r*k, r*k + k) x [c*k, c*k + k), so dirty input [i0, i1) maps to
  /// output [i0 / k, ceil(i1 / k)).
  SpatialRegion propagate_dirty_region(const SpatialRegion& in) const override {
    const IOSpec& s = out_spec();
    SpatialRegion r{in.r0 / k_, (in.r1 + k_ - 1) / k_, in.c0 / k_,
                    (in.c1 + k_ - 1) / k_};
    return r.clipped(s.h, s.w);
  }
  bool supports_spatial_delta() const override { return true; }
  /// Re-pools only the outputs in `out_region` of the active channels.
  void forward_delta(const Tensor& x, Tensor& y,
                     const SpatialRegion& out_region,
                     const SubnetContext& ctx) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }

 private:
  std::string name_;
  int k_;
  AssignmentPtr assignment_;
  std::vector<int> argmax_;
  std::vector<int> in_shape_;
};

class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  /// Copies the feature groups of the units joining in (from, to].
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }

 private:
  std::string name_;
  AssignmentPtr assignment_;
  std::vector<int> in_shape_;
};

}  // namespace stepping
