// Active-channel execution parity.
//
// Every fp32 inference route computes only the units active at (or joining)
// the executed level, contracts only over active input units, and updates
// ladder state in place. This suite pins each route's logits BITWISE to a
// test-local masked reference that touches every channel the way the
// original masked path did: full im2col, the fallback GEMM loops over the
// masked effective weights (under STEPPING_GEMM_BLOCK=ref semantics, i.e.
// gemmref::* on the scalar/sse tiers and the tier's own multiply-add on the
// FMA tiers), then BN / ReLU / max-pool over every channel with inactive
// channels zeroed after each layer.
//
// Routes: direct Network::forward, step up (IncrementalExecutor climb),
// step down (and climbing again over the stale larger-subnet units it
// leaves), stream delta frames, and serve-style re-formation (ladder_step
// over rows re-stacked from different batches). Nets: lenet3c1l with a
// channel-prefix assignment (the benchmark's layout), and lenet3c1l and
// lenet5 with a scattered assignment 1 + u % 3. Each case runs at 1 and 4
// threads under the default, reference and small-KC blockings; the CI
// isa-matrix job repeats the suite per ISA tier.
//
// The ActiveChannelCounters tests pin the executed-work counters: a climb
// lowers exactly the im2col bytes of one direct forward, and each step's
// conv multiply-adds equal the analytic MACs of the units it adds. The
// SpatialDelta tests pin the stream delta hooks of BN, ReLU and max-pool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/any_width.h"
#include "core/incremental.h"
#include "models/models.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "obs/metrics.h"
#include "stream/stream.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace stepping {
namespace {

// ---------------------------------------------------------------------------
// Nets and inputs.
// ---------------------------------------------------------------------------

enum class NetKind { kPrefixLenet3c1l, kScatteredLenet3c1l, kScatteredLenet5 };

/// Give every BN layer non-trivial statistics so the BN route is exercised.
void randomize_bn(Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (const auto& layer : net.layers()) {
    auto* bn = dynamic_cast<BatchNorm2d*>(layer.get());
    if (bn == nullptr) continue;
    for (int c = 0; c < bn->channels(); ++c) {
      bn->params()[0]->value[c] = 0.5f + 0.1f * static_cast<float>(c % 7);
      bn->params()[1]->value[c] = 0.05f * static_cast<float>(c % 5) - 0.1f;
      bn->mutable_running_mean()[c] = 0.01f * static_cast<float>(c % 11);
      bn->mutable_running_var()[c] = 0.5f + 0.25f * static_cast<float>(c % 3);
    }
  }
  (void)rng;
}

/// Number of subnet levels of the net built by make_net.
int levels_of(NetKind kind) { return kind == NetKind::kPrefixLenet3c1l ? 4 : 3; }

Network make_net(NetKind kind) {
  ModelConfig mc{.classes = 10, .expansion = 1.5, .width_mult = 0.25};
  Network net = kind == NetKind::kScatteredLenet5 ? build_lenet5(mc)
                                                  : build_lenet3c1l(mc);
  if (kind == NetKind::kPrefixLenet3c1l) {
    assign_prefix_subnets(net, {0.3, 0.55, 0.8, 1.0});
  } else {
    for (MaskedLayer* m : net.body_layers()) {
      for (int u = 0; u < m->num_units(); ++u) m->set_unit_subnet(u, 1 + u % 3);
    }
  }
  // Unstructured pruning puts exact zeros among the active weights too.
  net.body_layers()[1]->apply_magnitude_prune(0.02f);
  randomize_bn(net, 5);
  return net;
}

Tensor random_input(int batch, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({batch, 3, 32, 32});
  fill_normal(x, 0.0f, 1.0f, rng);
  return x;
}

/// Image `i` of a batch as a batch of one.
Tensor row_of(const Tensor& x, int i) {
  std::vector<int> shape = x.shape();
  shape[0] = 1;
  Tensor r(shape);
  const std::int64_t n = r.numel();
  std::memcpy(r.data(), x.data() + i * n, sizeof(float) * static_cast<std::size_t>(n));
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Same shape, panel width and panel bytes over the whole panel extent.
bool same_panels(const StepColumns& a, const StepColumns& b) {
  return a.shape() == b.shape() && a.nr() == b.nr() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// ---------------------------------------------------------------------------
// The masked reference.
// ---------------------------------------------------------------------------

constexpr float kBnEps = 1e-5f;  // BatchNorm2d's default, used by the models

/// value * prune mask * structural mask, from the layer's public state.
std::vector<float> masked_weights(const MaskedLayer& m) {
  const Tensor& w = m.weight().value;
  std::vector<float> out(static_cast<std::size_t>(w.numel()), 0.0f);
  for (int u = 0; u < m.num_units(); ++u) {
    for (int c = 0; c < m.num_cols(); ++c) {
      const std::size_t i = static_cast<std::size_t>(u) * m.num_cols() + c;
      if (m.prune_mask()[i] && m.structurally_active(u, c)) out[i] = w[static_cast<std::int64_t>(i)];
    }
  }
  return out;
}

std::vector<unsigned char> active_units(const MaskedLayer& m, int level) {
  std::vector<unsigned char> a(static_cast<std::size_t>(m.num_units()), 1);
  if (m.is_head()) return a;
  for (int u = 0; u < m.num_units(); ++u) {
    a[static_cast<std::size_t>(u)] = m.unit_subnet()[static_cast<std::size_t>(u)] <= level;
  }
  return a;
}

/// Everything-touching masked forward at `level` (see the file comment).
Tensor reference_forward(Network& net, const Tensor& x, int level) {
  const GemmBlocking saved = gemm_blocking();
  GemmBlocking ref = saved;
  ref.force_ref = true;
  set_gemm_blocking(ref);
  Tensor cur = x;
  for (const auto& lp : net.layers()) {
    Layer* layer = lp.get();
    const int n = cur.dim(0);
    Tensor y;
    if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
      const Conv2dGeometry& g = conv->geometry();
      const int spatial = g.out_h() * g.out_w();
      const std::vector<float> w = masked_weights(*conv);
      const auto active = active_units(*conv, level);
      y = Tensor({n, conv->num_units(), g.out_h(), g.out_w()});
      std::vector<float> cols(static_cast<std::size_t>(g.patch()) * spatial);
      for (int i = 0; i < n; ++i) {
        im2col(cur.data() + static_cast<std::int64_t>(i) * g.in_c * g.in_h * g.in_w,
               g, cols.data());
        gemm_rows_bias(w.data(), cols.data(),
                       y.data() + static_cast<std::int64_t>(i) * conv->num_units() * spatial,
                       conv->num_units(), g.patch(), spatial, active.data(),
                       conv->bias().value.data(), /*relu=*/false);
      }
    } else if (auto* dense = dynamic_cast<Dense*>(layer)) {
      const std::vector<float> w = masked_weights(*dense);
      const auto active = active_units(*dense, level);
      y = Tensor({n, dense->num_units()});
      gemm_nt_cols_bias(cur.data(), w.data(), y.data(), n, dense->num_cols(),
                        dense->num_units(), active.data(),
                        dense->bias().value.data(), /*relu=*/false, 0);
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(layer)) {
      y = Tensor(cur.shape());
      const std::int64_t plane = static_cast<std::int64_t>(cur.dim(2)) * cur.dim(3);
      for (int c = 0; c < bn->channels(); ++c) {
        const float mean = bn->running_mean()[c];
        const float inv_std = 1.0f / std::sqrt(bn->running_var()[c] + kBnEps);
        const float gm = bn->params()[0]->value[c], bt = bn->params()[1]->value[c];
        for (int i = 0; i < n; ++i) {
          const std::int64_t off = (static_cast<std::int64_t>(i) * bn->channels() + c) * plane;
          for (std::int64_t j = 0; j < plane; ++j) {
            const float xv = (cur[off + j] - mean) * inv_std;
            y[off + j] = gm * xv + bt;
          }
        }
      }
    } else if (layer->is_relu()) {
      y = Tensor(cur.shape());
      for (std::int64_t i = 0; i < cur.numel(); ++i) y[i] = cur[i] > 0.0f ? cur[i] : 0.0f;
    } else if (dynamic_cast<MaxPool2d*>(layer) != nullptr) {
      const IOSpec& s = layer->out_spec();
      const int k = cur.dim(2) / s.h;
      const int c = cur.dim(1), h = cur.dim(2), w = cur.dim(3);
      y = Tensor({n, c, s.h, s.w});
      for (std::int64_t pl = 0; pl < static_cast<std::int64_t>(n) * c; ++pl) {
        for (int yy = 0; yy < s.h; ++yy) {
          for (int xx = 0; xx < s.w; ++xx) {
            float best = -std::numeric_limits<float>::infinity();
            for (int dy = 0; dy < k; ++dy) {
              for (int dx = 0; dx < k; ++dx) {
                const float v = cur[pl * h * w + (yy * k + dy) * w + xx * k + dx];
                if (v > best) best = v;
              }
            }
            y[(pl * s.h + yy) * s.w + xx] = best;
          }
        }
      }
    } else {
      EXPECT_TRUE(dynamic_cast<Flatten*>(layer) != nullptr) << layer->name();
      y = cur.reshaped({n, static_cast<int>(cur.numel() / n)});
    }
    const IOSpec& spec = layer->out_spec();
    if (spec.assignment) {
      mask_inactive_units(y, *spec.assignment, spec.features_per_unit, level);
    }
    cur = std::move(y);
  }
  set_gemm_blocking(saved);
  return cur;
}

// ---------------------------------------------------------------------------
// Parity over (net, threads, blocking).
// ---------------------------------------------------------------------------

enum class Blocking { kDefault, kRef, kSmallKc };

using Param3 = std::tuple<NetKind, int, Blocking>;

class ActiveChannelParity : public ::testing::TestWithParam<Param3> {
 protected:
  void SetUp() override {
    saved_ = gemm_blocking();
    GemmBlocking cfg = saved_;
    switch (std::get<2>(GetParam())) {
      case Blocking::kDefault:
        break;
      case Blocking::kRef:
        cfg.force_ref = true;
        break;
      case Blocking::kSmallKc:
        cfg.mc = 8;
        cfg.kc = 16;
        cfg.nc = 64;
        cfg.min_macs = 1;
        cfg.min_k = 1;
        break;
    }
    set_gemm_blocking(cfg);
    ThreadPool::set_global_threads(std::get<1>(GetParam()));
    net_ = make_net(std::get<0>(GetParam()));
    levels_ = levels_of(std::get<0>(GetParam()));
  }
  void TearDown() override {
    set_gemm_blocking(saved_);
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }

  /// The reference runs under its own blocking; the route under test under
  /// the parameterized one.
  Tensor ref(const Tensor& x, int level) {
    const GemmBlocking cfg = gemm_blocking();
    Tensor r = reference_forward(net_, x, level);
    set_gemm_blocking(cfg);
    return r;
  }

  GemmBlocking saved_;
  Network net_;
  int levels_ = 0;
};

TEST_P(ActiveChannelParity, DirectForward) {
  const Tensor x = random_input(2, 11);
  for (int level = 1; level <= levels_; ++level) {
    SubnetContext ctx;
    ctx.subnet_id = level;
    EXPECT_TRUE(same_bits(net_.forward(x, ctx), ref(x, level))) << "level " << level;
  }
}

TEST_P(ActiveChannelParity, StepUp) {
  IncrementalExecutor ex(net_);
  for (std::uint64_t img = 0; img < 2; ++img) {
    const Tensor x = random_input(1, 20 + img);
    for (int level = 1; level <= levels_; ++level) {
      EXPECT_TRUE(same_bits(ex.run(x, level), ref(x, level)))
          << "image " << img << " level " << level;
    }
  }
}

TEST_P(ActiveChannelParity, StepDownThenUpAgain) {
  IncrementalExecutor ex(net_);
  const Tensor x = random_input(1, 31);
  ex.run(x, levels_);
  // Down: the head reads the smaller subnet's units of the state in place.
  for (int level = levels_; level >= 1; --level) {
    EXPECT_TRUE(same_bits(ex.run(x, level), ref(x, level))) << "down " << level;
  }
  // Up again over units the larger subnet left in the state.
  for (int level = 2; level <= levels_; ++level) {
    EXPECT_TRUE(same_bits(ex.run(x, level), ref(x, level))) << "up " << level;
  }
  // A new input reuses the buffers cold; stale units must stay unread.
  const Tensor x2 = random_input(1, 32);
  EXPECT_TRUE(same_bits(ex.run(x2, 1), ref(x2, 1)));
  EXPECT_TRUE(same_bits(ex.run(x2, levels_), ref(x2, levels_)));
}

TEST_P(ActiveChannelParity, StreamDelta) {
  stream::StreamConfig cfg;
  cfg.enabled = true;
  cfg.tile = 8;
  stream::StreamState st;
  const auto sig = stream::network_signature(net_);
  Tensor x = random_input(1, 41);
  const int schedule[] = {1, 1, 2, 2, levels_, levels_, levels_};
  int frame = 0;
  for (const int level : schedule) {
    // A small moving patch: most tiles stay clean.
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        x.at(0, frame % 3, 4 + 3 * frame + r, 6 + c) += 0.5f;
      }
    }
    const stream::StreamResult res =
        stream::stream_delta_forward(net_, st, x, level, cfg, sig);
    EXPECT_TRUE(same_bits(res.logits, ref(x, level)))
        << "frame " << frame << " level " << level;
    ++frame;
  }
}

TEST_P(ActiveChannelParity, ServeReformation) {
  // Two batches stepped to level 1 separately, then rows from both re-stacked
  // into one batch and stepped on — what serve's batch re-formation does.
  const Tensor xa = random_input(1, 51);
  const Tensor xb = random_input(2, 52);
  std::vector<Tensor> acts_a, acts_b;
  ladder_step(net_, xa, acts_a, 0, 1);
  ladder_step(net_, xb, acts_b, 0, 1);
  const int rows[2][2] = {{1, 1}, {0, 0}};  // (batch b row 1), (batch a row 0)
  std::vector<Tensor> acts(acts_a.size());
  Tensor x({2, 3, 32, 32});
  for (int j = 0; j < 2; ++j) {
    const Tensor& src_x = rows[j][0] == 1 ? xb : xa;
    const Tensor r = row_of(src_x, rows[j][1]);
    std::memcpy(x.data() + j * r.numel(), r.data(), sizeof(float) * static_cast<std::size_t>(r.numel()));
  }
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const Tensor& s0 = acts_a[i];
    std::vector<int> shape = s0.shape();
    shape[0] = 2;
    acts[i] = Tensor(shape);
    const std::int64_t row = s0.numel() / s0.dim(0);
    for (int j = 0; j < 2; ++j) {
      const Tensor& src = rows[j][0] == 1 ? acts_b[i] : acts_a[i];
      std::memcpy(acts[i].data() + j * row, src.data() + rows[j][1] * row,
                  sizeof(float) * static_cast<std::size_t>(row));
    }
  }
  for (int level = 2; level <= levels_; ++level) {
    const Tensor y = ladder_step(net_, x, acts, level - 1, level);
    for (int j = 0; j < 2; ++j) {
      EXPECT_TRUE(same_bits(row_of(y, j), ref(row_of(x, j), level)))
          << "row " << j << " level " << level;
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<Param3>& info) {
  const char* nets[] = {"PrefixLenet3c1l", "ScatteredLenet3c1l", "ScatteredLenet5"};
  const char* blocks[] = {"Default", "Ref", "SmallKc"};
  return std::string(nets[static_cast<int>(std::get<0>(info.param))]) + "_T" +
         std::to_string(std::get<1>(info.param)) + "_" +
         blocks[static_cast<int>(std::get<2>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Routes, ActiveChannelParity,
    ::testing::Combine(::testing::Values(NetKind::kPrefixLenet3c1l,
                                         NetKind::kScatteredLenet3c1l,
                                         NetKind::kScatteredLenet5),
                       ::testing::Values(1, 4),
                       ::testing::Values(Blocking::kDefault, Blocking::kRef,
                                         Blocking::kSmallKc)),
    param_name);

// ---------------------------------------------------------------------------
// Executed-work counters.
// ---------------------------------------------------------------------------

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Prefix-assigned lenet3c1l straight from its random init: no pruning, so
/// no exact-zero weight other than the structural ones.
Network prefix_net() {
  ModelConfig mc{.classes = 10, .expansion = 1.8, .width_mult = 0.25};
  Network net = build_lenet3c1l(mc);
  assign_prefix_subnets(net, {0.3, 0.55, 0.8, 1.0});
  return net;
}

TEST(ActiveChannelCounters, ClimbLowersAsManyBytesAsOneDirectForward) {
  Network net = prefix_net();
  const Tensor x = random_input(1, 61);
  SubnetContext ctx;
  ctx.subnet_id = 4;
  const std::uint64_t d0 = counter("stepping_im2col_bytes_total");
  net.forward(x, ctx);
  const std::uint64_t direct = counter("stepping_im2col_bytes_total") - d0;
  ASSERT_GT(direct, 0u);

  IncrementalExecutor ex(net);
  const std::uint64_t c0 = counter("stepping_im2col_bytes_total");
  for (int level = 1; level <= 4; ++level) ex.run(x, level);
  EXPECT_EQ(counter("stepping_im2col_bytes_total") - c0, direct);
  // A step down lowers nothing: only the head runs.
  const std::uint64_t s0 = counter("stepping_im2col_bytes_total");
  ex.run(x, 2);
  EXPECT_EQ(counter("stepping_im2col_bytes_total"), s0);
}

TEST(ActiveChannelCounters, StepConvMaddsEqualAnalyticStepMacs) {
  Network net = prefix_net();
  const Tensor x = random_input(1, 62);
  const auto& layers = net.layers();
  std::vector<Tensor> outs(layers.size());
  std::vector<StepColumns> cols(layers.size());
  MaskedLayer* head = net.masked_layers().back();
  for (int to = 1; to <= 4; ++to) {
    const int from = to - 1;
    SubnetContext ctx;
    ctx.subnet_id = to;
    std::uint64_t conv_madds = 0;
    const Tensor* cur = &x;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const std::uint64_t m0 = counter("stepping_gemm_madds_total");
      layers[i]->forward_step(*cur, outs[i], from, ctx, &cols[i]);
      if (dynamic_cast<Conv2d*>(layers[i].get()) != nullptr) {
        conv_madds += counter("stepping_gemm_madds_total") - m0;
      }
      cur = &outs[i];
    }
    // ladder_step_macs = body (all conv here) + the head's full recompute.
    const std::int64_t conv_share = ladder_step_macs(net, from, to) -
                                    head->subnet_macs(to);
    EXPECT_EQ(conv_madds, static_cast<std::uint64_t>(conv_share)) << "step " << to;
  }
}

TEST(ActiveChannelCounters, PackBytesCountOnlyPanelsActuallyPacked) {
  // A blocked dot-family shape: the cold call packs Bt, the warm call hits
  // the persistent cache and packs nothing.
  const int m = 8, k = 64, n = 256;
  Rng rng(64);
  Tensor a({m, k}), bt({n, k}), c({m, n});
  fill_normal(a, 0.0f, 1.0f, rng);
  fill_normal(bt, 0.0f, 1.0f, rng);
  std::vector<unsigned char> cols(static_cast<std::size_t>(n), 1);
  std::vector<float> bias(static_cast<std::size_t>(n), 0.0f);
  ASSERT_TRUE(gemm_uses_blocked(m, k, n, gemm_blocking()));
  const std::uint64_t id = new_pack_id();
  const std::uint64_t p0 = counter("stepping_gemm_pack_bytes_total");
  gemm_nt_cols_bias(a.data(), bt.data(), c.data(), m, k, n, cols.data(),
                    bias.data(), false, id);
  const std::uint64_t cold = counter("stepping_gemm_pack_bytes_total") - p0;
  EXPECT_GE(cold, static_cast<std::uint64_t>(k) * n * sizeof(float));
  const std::uint64_t p1 = counter("stepping_gemm_pack_bytes_total");
  gemm_nt_cols_bias(a.data(), bt.data(), c.data(), m, k, n, cols.data(),
                    bias.data(), false, id);
  EXPECT_EQ(counter("stepping_gemm_pack_bytes_total"), p1);
  // Dispatched multiply-adds: the dot family has no zero skip.
  const std::uint64_t q0 = counter("stepping_gemm_madds_total");
  gemm_nt_cols_bias(a.data(), bt.data(), c.data(), m, k, n, cols.data(),
                    bias.data(), false, id);
  EXPECT_EQ(counter("stepping_gemm_madds_total") - q0,
            static_cast<std::uint64_t>(m) * k * n);
}

TEST(ActiveChannelCounters, ConvInferencePacksNothing) {
  // Conv GEMMs read the columns in the panel layout they were lowered into:
  // no forward, batched forward or climb packs a byte (the batch-1 and
  // batch-2 heads are below the blocked path's gates and pack nothing
  // either).
  Network net = prefix_net();
  const Tensor x = random_input(1, 63);
  const Tensor xb = random_input(2, 65);
  SubnetContext ctx;
  const std::uint64_t p0 = counter("stepping_gemm_pack_bytes_total");
  for (int level = 1; level <= 4; ++level) {
    ctx.subnet_id = level;
    net.forward(x, ctx);
    net.forward(xb, ctx);
  }
  IncrementalExecutor ex(net);
  for (int level = 1; level <= 4; ++level) ex.run(x, level);
  EXPECT_EQ(counter("stepping_gemm_pack_bytes_total"), p0);
}

TEST(ActiveChannelCache, ReLowersAfterTierSwitch) {
  // A ladder state's lowered columns are laid out in the panel width of the
  // tier that lowered them. After a tier switch between steps, the next step
  // must re-lower into the new width: its output and its column cache must
  // equal a step from the same activations with a cold column cache.
  IsaTier narrow = IsaTier::kScalar, wide = IsaTier::kScalar;
  int narrow_nr = 0, wide_nr = 0;
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (!isa_tier_compiled(tier)) continue;
    set_isa_tier(tier);
    const int nr = gemm_panel_width();
    if (narrow_nr == 0 || nr < narrow_nr) {
      narrow = tier;
      narrow_nr = nr;
    }
    if (nr > wide_nr) {
      wide = tier;
      wide_nr = nr;
    }
  }
  if (narrow_nr == wide_nr) {
    set_isa_tier(env_isa_tier());
    GTEST_SKIP() << "every tier this host runs has the same panel width";
  }
  Network net = prefix_net();
  const Tensor x = random_input(1, 66);
  for (const auto& [from_tier, to_tier] :
       {std::pair{narrow, wide}, std::pair{wide, narrow}}) {
    set_isa_tier(from_tier);
    std::vector<Tensor> outs;
    std::vector<StepColumns> cols;
    ladder_step(net, x, outs, 0, 2, &cols);
    set_isa_tier(to_tier);
    std::vector<Tensor> cold_outs = outs;
    std::vector<StepColumns> cold;
    const Tensor want = ladder_step(net, x, cold_outs, 2, 3, &cold);
    const Tensor got = ladder_step(net, x, outs, 2, 3, &cols);
    EXPECT_TRUE(same_bits(got, want));
    int convs = 0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cold[i].shape().empty()) continue;
      ++convs;
      EXPECT_EQ(cols[i].nr(), gemm_panel_width());
      EXPECT_TRUE(same_panels(cols[i], cold[i])) << "layer " << i;
    }
    EXPECT_GT(convs, 0);
  }
  set_isa_tier(env_isa_tier());
}

TEST(ActiveChannelCache, PanelsStartOnACacheLine) {
  // glibc serves heap blocks of at least M_MMAP_THRESHOLD from mmap, 16
  // bytes past a page boundary. Pin the threshold at 128 KB (its default
  // before glibc's dynamic adjustment raises it) so every conv's panel block
  // (c1 ~300 KB here) is one such block: a plain heap allocation would leave
  // every panel row straddling two cache lines. ctest runs each case in its
  // own process, so the setting does not reach other tests. A sanitizer's
  // allocator ignores the call (it returns 0); the panels must be aligned
  // either way.
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Network net = prefix_net();
  const Tensor x = random_input(1, 67);
  std::vector<Tensor> outs;
  std::vector<StepColumns> cols;
  int checked = 0;
  for (int to = 1; to <= 4; ++to) {
    ladder_step(net, x, outs, to - 1, to, &cols);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const auto* conv = dynamic_cast<const Conv2d*>(net.layers()[i].get());
      if (conv == nullptr || conv->is_head()) continue;
      ASSERT_FALSE(cols[i].shape().empty()) << "layer " << i;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cols[i].data()) %
                    StepColumns::kAlign,
                0u)
          << "layer " << i << " step " << to;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3 * 4);
#else
  GTEST_SKIP() << "mallopt(M_MMAP_THRESHOLD) is glibc-only";
#endif
}

// ---------------------------------------------------------------------------
// Spatial delta hooks of BN, ReLU and max-pool.
// ---------------------------------------------------------------------------
//
// A stream delta frame recomputes only the dirty rectangle of each layer
// (Layer::forward_delta). For BatchNorm2d, ReLU and MaxPool2d: at odd output
// regions, corners and plane edges included, forward_delta writes exactly
// the region of the active channels, every other byte of the output keeps
// its previous contents, and the written values equal forward_step's bit
// for bit. Each layer runs on the activation it sees in a ladder state, at
// every level, at 1 and 4 threads.

Tensor random_tensor(const std::vector<int>& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  fill_normal(t, 0.0f, 1.0f, rng);
  return t;
}

/// Odd output regions of an h x w plane: corners, edges, single elements,
/// full-width bands, the whole plane and an empty one.
std::vector<SpatialRegion> regions_of(int h, int w) {
  std::vector<SpatialRegion> regs = {
      {0, 1, 0, 1},                  // top-left element
      {h - 1, h, w - 1, w},          // bottom-right element
      {0, h, 0, 1},                  // left column
      {0, 1, 0, w},                  // top row (one full-width run)
      {h / 3, h / 3 + 2, 0, w},      // interior full-width band
      {h / 4, h - 1, w / 3, w},      // touches the right edge
      {h - 2, h + 3, w / 2 - 1, w / 2 + 2},  // past the bottom edge
      {-2, 2, -1, 3},                // before the top-left corner
      {1, h - 1, 1, w - 1},          // interior, one element off each edge
      {0, h, 0, w},                  // whole plane
      {2, 2, 1, 3},                  // empty
  };
  return regs;
}

/// Units of `layer`'s output active at `level` (input channels 1 when the
/// layer carries no assignment).
std::vector<bool> active_units(const Layer& layer, int units, int level) {
  std::vector<bool> on(static_cast<std::size_t>(units), true);
  const AssignmentPtr& a = layer.out_spec().assignment;
  if (a == nullptr) return on;
  for (int u = 0; u < units; ++u) {
    on[static_cast<std::size_t>(u)] = (*a)[static_cast<std::size_t>(u)] <= level;
  }
  return on;
}

/// forward_delta over `reg` against the expectation built from
/// forward_step: the previous output everywhere, with forward_step's values
/// spliced in over `reg` of the active channels. Compared byte for byte.
void check_region(Layer& layer, const Tensor& in, const Tensor& prev,
                  const SpatialRegion& reg, int level,
                  const std::string& where) {
  SubnetContext ctx;
  ctx.subnet_id = level;
  Tensor full = prev;
  layer.forward_step(in, full, 0, ctx, nullptr);
  Tensor got = prev;
  layer.forward_delta(in, got, reg, ctx);

  const int n = prev.dim(0), c = prev.dim(1), h = prev.dim(2), w = prev.dim(3);
  const SpatialRegion clip = reg.clipped(h, w);
  const std::vector<bool> on = active_units(layer, c, level);
  Tensor want = prev;
  for (int i = 0; i < n; ++i) {
    for (int u = 0; u < c; ++u) {
      if (!on[static_cast<std::size_t>(u)]) continue;
      const std::int64_t plane = (static_cast<std::int64_t>(i) * c + u) * h * w;
      for (int r = clip.r0; r < clip.r1; ++r) {
        for (int q = clip.c0; q < clip.c1; ++q) {
          want[plane + r * w + q] = full[plane + r * w + q];
        }
      }
    }
  }
  ASSERT_EQ(got.shape(), want.shape()) << where;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<std::size_t>(want.numel())),
            0)
      << where;
}

class SpatialDelta : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

TEST_P(SpatialDelta, WritesOnlyTheRegionOfActiveChannelsBitwise) {
  for (const NetKind kind :
       {NetKind::kPrefixLenet3c1l, NetKind::kScatteredLenet3c1l}) {
    Network net = make_net(kind);
    const int levels = levels_of(kind);
    const std::string name =
        kind == NetKind::kPrefixLenet3c1l ? "prefix" : "scattered";
    const Tensor x = random_input(2, 90);
    const auto& layers = net.layers();
    int bn = 0, relu = 0, pool = 0;
    for (int level = 1; level <= levels; ++level) {
      std::vector<Tensor> outs;
      ladder_step(net, x, outs, 0, level);
      for (std::size_t i = 0; i < layers.size(); ++i) {
        Layer& layer = *layers[i];
        if (dynamic_cast<Conv2d*>(&layer) != nullptr ||
            !layer.supports_spatial_delta()) {
          continue;
        }
        bn += dynamic_cast<BatchNorm2d*>(&layer) != nullptr;
        relu += dynamic_cast<ReLU*>(&layer) != nullptr;
        pool += dynamic_cast<MaxPool2d*>(&layer) != nullptr;
        const Tensor& in = i == 0 ? x : outs[i - 1];
        // The previous output holds arbitrary bits, so an untouched byte
        // cannot pass by coincidence.
        const Tensor prev = random_tensor(outs[i].shape(), 100 + i);
        const IOSpec& spec = layer.out_spec();
        for (const SpatialRegion& reg : regions_of(spec.h, spec.w)) {
          check_region(layer, in, prev, reg, level,
                       name + " " + layer.name() + " L" +
                           std::to_string(level) + " region [" +
                           std::to_string(reg.r0) + "," + std::to_string(reg.r1) +
                           ")x[" + std::to_string(reg.c0) + "," +
                           std::to_string(reg.c1) + ")");
        }
      }
    }
    // lenet3c1l: three conv blocks, each BN + ReLU + pool.
    EXPECT_EQ(bn, 3 * levels) << name;
    EXPECT_EQ(relu, 3 * levels) << name;
    EXPECT_EQ(pool, 3 * levels) << name;
  }
}

TEST_P(SpatialDelta, PoolRegionFromDirtyInputCoversEveryChangedWindow) {
  // A dirty input rectangle, mapped through propagate_dirty_region, must
  // name every pooled output that reads it: re-pooling only that region on
  // the changed input reproduces a full re-pool exactly.
  Network net = make_net(NetKind::kPrefixLenet3c1l);
  const Tensor x = random_input(1, 91);
  std::vector<Tensor> outs;
  ladder_step(net, x, outs, 0, 4);
  SubnetContext ctx;
  ctx.subnet_id = 4;
  const auto& layers = net.layers();
  int pools = 0;
  for (std::size_t i = 1; i < layers.size(); ++i) {
    auto* pool = dynamic_cast<MaxPool2d*>(layers[i].get());
    if (pool == nullptr) continue;
    ++pools;
    const Tensor& in = outs[i - 1];
    const int h = in.dim(2), w = in.dim(3);
    const SpatialRegion dirty_in[] = {
        {1, 2, 1, 2}, {h - 3, h, w - 1, w}, {0, 3, w / 2, w / 2 + 3}};
    for (const SpatialRegion& d : dirty_in) {
      Tensor changed = in;
      for (int u = 0; u < changed.dim(1); ++u) {
        for (int r = d.r0; r < d.r1; ++r) {
          for (int q = d.c0; q < d.c1; ++q) {
            changed[(static_cast<std::int64_t>(u) * h + r) * w + q] += 3.0f;
          }
        }
      }
      Tensor got = outs[i];  // the pooled output of the previous input
      pool->forward_delta(changed, got, pool->propagate_dirty_region(d), ctx);
      Tensor want = outs[i];
      pool->forward_step(changed, want, 0, ctx, nullptr);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(want.numel())),
                0)
          << pool->name() << " dirty [" << d.r0 << "," << d.r1 << ")x["
          << d.c0 << "," << d.c1 << ")";
    }
  }
  EXPECT_EQ(pools, 3);
}

INSTANTIATE_TEST_SUITE_P(Threads, SpatialDelta, ::testing::Values(1, 4));

}  // namespace
}  // namespace stepping
