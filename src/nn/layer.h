// Layer interface and subnet-aware wiring metadata.
//
// SteppingNet semantics implemented here (DESIGN.md §6):
//  * every "unit" (a neuron in a fully-connected layer or a filter in a
//    convolutional layer, following the paper's terminology) carries a
//    subnet assignment s(unit) in {1..N}: the smallest subnet containing it;
//  * a synapse u -> v is structurally active iff s(u) <= s(v), which makes a
//    unit's input set identical in every subnet that contains it — the key
//    invariant behind exact computational reuse;
//  * assignments are shared (std::shared_ptr) along the layer graph so that
//    moving a neuron during construction is a single in-place mutation seen
//    by producer and consumers alike.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "quant/policy.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace stepping {

namespace quant {
class CalibrationTable;
}  // namespace quant

class Param;

/// Lowered-column cache one conv layer keeps in a ladder state: the im2col
/// matrix of the current input in the full channel layout, held in the GEMM
/// panel layout of width `nr` (im2col_panels, panel_k = patch), zero-filled
/// once when allocated, with the rows of input units of subnets <= `level`
/// lowered. A step lowers only the input units joining in (level, to] and
/// the GEMM reads the panels in place. `nr` is part of the key: an ISA tier
/// switch can keep the shape and change the layout.
///
/// The panels live in storage of their own whose first float starts on a
/// 64-byte cache line, so every NR-wide panel row (32/64/128 bytes for NR
/// 8/16/32) starts on a line too. A plain heap block would not: glibc serves
/// blocks of 128 KB and more from mmap, 16 bytes past a page boundary, and
/// every panel load from there straddles two lines (DESIGN.md §6.6).
class StepColumns {
 public:
  static constexpr std::size_t kAlign = 64;

  /// Key the cache on (`shape`, `nr`): on any change the storage is
  /// reallocated zero-filled and `level` drops to 0 (nothing lowered).
  void fit(const std::vector<int>& shape, int nr) {
    if (shape == shape_ && nr == nr_) return;
    std::size_t n = 1;
    for (int d : shape) n *= static_cast<std::size_t>(d);
    panels_.reset(static_cast<float*>(
        ::operator new(n * sizeof(float), std::align_val_t{kAlign})));
    std::memset(panels_.get(), 0, n * sizeof(float));
    shape_ = shape;
    size_ = n;
    nr_ = nr;
    level = 0;
  }

  float* data() { return panels_.get(); }
  const float* data() const { return panels_.get(); }
  /// (batch, patch, npanels * nr); empty until the first fit().
  const std::vector<int>& shape() const { return shape_; }
  /// Floats held: the panel extent of the whole batch.
  std::size_t size() const { return size_; }
  int nr() const { return nr_; }

  /// Highest subnet whose input units are lowered for the current input.
  int level = 0;

 private:
  struct AlignedDelete {
    void operator()(float* p) const {
      ::operator delete(p, std::align_val_t{kAlign});
    }
  };
  std::unique_ptr<float[], AlignedDelete> panels_;
  std::vector<int> shape_;
  std::size_t size_ = 0;
  int nr_ = 0;
};

/// Per-unit subnet ids, 1-based. Input image channels use 1 (present in the
/// smallest subnet by definition).
using Assignment = std::vector<int>;
using AssignmentPtr = std::shared_ptr<Assignment>;

/// Which subnet a forward/backward pass executes, plus mode flags.
struct SubnetContext {
  /// 1-based subnet index; units with s(unit) > subnet_id are masked out.
  int subnet_id = 1;
  /// Total number of subnets in the current construction (>= subnet_id).
  int num_subnets = 1;
  /// Training mode (BatchNorm batch statistics, importance harvesting).
  bool training = false;
  /// Accumulate |dL/dr_j| importance gradients (paper Eq. 2) during backward.
  bool harvest_importance = false;
  /// Numeric precision of this forward (ISSUE 7). Layers run int8 only for
  /// kInt8 at inference with a calibrated entry in `calibration`; anything
  /// else (including kAuto, which only the serve planner interprets) is the
  /// bitwise-deterministic fp32 path.
  quant::Precision precision = quant::Precision::kFp32;
  /// Activation scales for the int8 path, keyed (layer name, subnet level).
  /// Null => every layer falls back to fp32.
  const quant::CalibrationTable* calibration = nullptr;
  /// When non-null, this (fp32) forward is a calibration pass: quantizable
  /// layers record their input ranges here and still compute in fp32.
  quant::CalibrationTable* calib_record = nullptr;
};

/// Shape + subnet metadata flowing through Network::wire().
struct IOSpec {
  /// Number of units (channels for spatial tensors, features for flat ones).
  int units = 0;
  /// Scalars per unit presented to a downstream Dense layer (1 unless a
  /// Flatten collapsed an HxW plane into the feature axis).
  int features_per_unit = 1;
  /// Spatial extents; 0 when flat.
  int h = 0, w = 0;
  bool flat = false;
  /// Per-unit subnet assignment, shared with the producing layer.
  AssignmentPtr assignment;

  int total_features() const { return units * features_per_unit; }
};

/// Abstract layer with explicit forward/backward.
///
/// Lifecycle: construct with hyperparameters -> Network::wire() calls
/// wire(in, rng) exactly once per topology change (allocating parameters on
/// first wire, preserving them afterwards) -> forward/backward per batch.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Resolve shapes, allocate parameters (first call), capture the input
  /// assignment, and return the output spec.
  virtual IOSpec wire(const IOSpec& in, Rng& rng) = 0;

  virtual Tensor forward(const Tensor& x, const SubnetContext& ctx) = 0;

  /// True iff forward_relu() fuses the following ReLU into this layer's
  /// output store (bitwise identical to forward() followed by ReLU).
  /// Network::forward uses this to collapse Layer->ReLU pairs at inference.
  virtual bool can_fuse_relu() const { return false; }

  /// forward() with a fused trailing ReLU. Only meaningful when
  /// can_fuse_relu() returns true; the default falls back to plain forward
  /// (callers must then still apply the ReLU themselves).
  virtual Tensor forward_relu(const Tensor& x, const SubnetContext& ctx) {
    return forward(x, ctx);
  }

  /// True for the ReLU activation layer (fusion target detection).
  virtual bool is_relu() const { return false; }

  /// Consume dL/d(output), return dL/d(input), accumulate parameter grads.
  virtual Tensor backward(const Tensor& grad_y, const SubnetContext& ctx) = 0;

  /// Active-channel evaluation (inference), the one fp32 route behind
  /// forward(), ladder steps and stream frames. Updates `y` in place so that
  /// every output unit active at ctx.subnet_id holds its value, computing
  /// only the units joining in (from, ctx.subnet_id] — every active unit
  /// when from == 0 — and reading only input units active at
  /// ctx.subnet_id. Units outside the joining set are never written, so `y`
  /// may carry values of a larger subnet on the same input (after a step
  /// down) or of an earlier input in channels no consumer reads at this
  /// level. `y` is reallocated zero-filled when its shape does not fit.
  /// `cols`, when non-null, is this layer's lowered-column cache in a ladder
  /// state (used by Conv2d; from == 0 marks a new input).
  /// Default: plain recompute (correct for layers that do not mix units).
  virtual void forward_step(const Tensor& x, Tensor& y, int from,
                            const SubnetContext& ctx, StepColumns* cols) {
    (void)from;
    (void)cols;
    y = forward(x, ctx);
  }

  // ---- Streaming delta inference (ISSUE 10) ------------------------------
  // A temporal stream presents near-duplicate inputs frame after frame. The
  // stream executor (src/stream/) tracks which spatial rectangle of the
  // CURRENT layer input differs from the previous frame and threads it
  // through these hooks: propagate_dirty_region() maps an input-plane dirty
  // rect to the output positions it can influence, and forward_delta()
  // recomputes ONLY those positions, splicing them into the cached previous-
  // frame output. Every spliced tensor is exact (the untouched elements read
  // only clean input, so their cached bits are what a full pass would
  // produce), which is why the default forward_delta can simply run the full
  // forward: its input is already bitwise-identical to a cold pass's.

  /// Map a dirty region of this layer's input plane to the output region the
  /// dirty values can reach. Must be CONSERVATIVE (may over-approximate,
  /// never under-approximate). The default — the whole output plane — is
  /// correct for any layer; locality-preserving layers override:
  /// elementwise layers (ReLU, inference BatchNorm) propagate the region
  /// unchanged, pooling divides it by the pool size, convolutions expand it
  /// by the receptive-field halo (conv_dirty_out_region).
  virtual SpatialRegion propagate_dirty_region(const SpatialRegion& in) const {
    (void)in;
    const IOSpec& s = out_spec();
    return SpatialRegion::full(s.h, s.w);
  }

  /// True when forward_delta() actually saves compute for a sub-plane
  /// region (non-head Conv2d, BatchNorm2d, ReLU, MaxPool2d). Layers
  /// answering false still take
  /// part in streaming via propagate_dirty_region(); the executor just runs
  /// their plain forward on the (exact) spliced input.
  virtual bool supports_spatial_delta() const { return false; }

  /// Recompute only `out_region` of this layer's output for the new input
  /// `x`, in place in `y` — the layer's output for the PREVIOUS frame at the
  /// same subnet level — which keeps its bits everywhere else. `out_region`
  /// must come from propagate_dirty_region() of the input's dirty rect, and
  /// the active units of `y` must end bitwise identical to forward(x, ctx).
  /// Inference only. Default: the active-channel full-plane recompute.
  virtual void forward_delta(const Tensor& x, Tensor& y,
                             const SpatialRegion& out_region,
                             const SubnetContext& ctx) {
    (void)out_region;
    forward_step(x, y, 0, ctx, nullptr);
  }

  virtual std::vector<Param*> params() { return {}; }

  /// Precompute per-element learning-rate suppression buffers for training
  /// each subnet k (paper §III-A2: scale beta^(k-o) for params owned by a
  /// smaller subnet o). No-op for parameterless layers.
  virtual void prepare_lr_suppression(int num_subnets, double beta) {
    (void)num_subnets;
    (void)beta;
  }

  /// Select the suppression buffer for subnet k (k <= 0 disables).
  virtual void activate_lr_scale(int k) { (void)k; }

  /// Deep copy (fresh assignment storage); Network::wire() re-links inputs.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Output spec recorded by Network::wire() (shape + governing assignment);
  /// the stream executor reads its extents to clip dirty regions.
  const IOSpec& out_spec() const { return out_spec_; }
  void set_out_spec(IOSpec spec) { out_spec_ = std::move(spec); }

 private:
  IOSpec out_spec_;
};

/// Zero all positions of `t` whose unit has s(unit) > subnet_id.
/// For rank-4 tensors a unit is a channel; for rank-2, a feature group of
/// `features_per_unit` consecutive columns. Training only (gradient rows);
/// inference never writes inactive units in the first place.
void mask_inactive_units(Tensor& t, const Assignment& assignment,
                         int features_per_unit, int subnet_id);

/// True iff unit `u` joins in (from, to]: from < s(u) <= to. A null
/// assignment means every unit is in subnet 1.
inline bool unit_joins(const Assignment* assignment, int u, int from, int to) {
  const int s =
      assignment != nullptr ? (*assignment)[static_cast<std::size_t>(u)] : 1;
  return s > from && s <= to;
}

/// Call f(u0, u1) for each maximal run [u0, u1) of consecutive units among
/// the first `units` that join in (from, to]. A subnet laid out as a channel
/// prefix gives one run per step.
template <typename F>
void for_each_unit_run(const Assignment* assignment, int units, int from,
                       int to, F&& f) {
  int u = 0;
  while (u < units) {
    if (!unit_joins(assignment, u, from, to)) {
      ++u;
      continue;
    }
    int v = u + 1;
    while (v < units && unit_joins(assignment, v, from, to)) ++v;
    f(u, v);
    u = v;
  }
}

}  // namespace stepping
