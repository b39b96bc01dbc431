// Subnet-aware fully-connected layer.
//
// Consumes a flat IOSpec (insert Flatten after convolutions). Weight columns
// are grouped per input unit (`features_per_unit` consecutive columns map to
// one producer unit) so the structural rule applies at unit granularity even
// after flattening an HxW plane.
#pragma once

#include "nn/masked_layer.h"

namespace stepping {

class Dense final : public MaskedLayer {
 public:
  Dense(std::string name, int out_features);

  std::string name() const override { return name_; }
  IOSpec wire(const IOSpec& in, Rng& rng) override;
  Tensor forward(const Tensor& x, const SubnetContext& ctx) override;
  bool can_fuse_relu() const override { return true; }
  Tensor forward_relu(const Tensor& x, const SubnetContext& ctx) override;
  Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) override;
  void forward_step(const Tensor& x, Tensor& y, int from,
                    const SubnetContext& ctx, StepColumns* cols) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }

 private:
  Tensor forward_impl(const Tensor& x, const SubnetContext& ctx, bool relu);

  /// The active-channel dense pass behind every fp32 route: computes the
  /// output columns joining in (from, to] (every column of a head) into `y`,
  /// contracting over the input units active at `to` only. `zero_cols`
  /// clears the computed columns first when `y` is reused state.
  void compute_cols(const Tensor& x, Tensor& y, int from, int to, bool relu,
                    bool zero_cols, bool training);

  std::vector<unsigned char> cols_flags_;  // scratch: columns a pass computes

  std::string name_;
  int out_features_;

  Tensor x_cache_;
  Tensor preact_cache_;
};

}  // namespace stepping
