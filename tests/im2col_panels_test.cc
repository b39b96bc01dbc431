// Implicit-GEMM lowering parity.
//
// im2col_panels writes the conv column matrix straight into the active ISA
// tier's NR-wide GEMM panels. These tests pin it, at every compiled tier the
// host runs, to a test-local lowering in two steps: the scalar im2col loop
// (row-major, the definition im2col had before the panel kernel existed),
// then the blocked GEMM's B pack (KC-row chunks of NR-wide panels, zero tail
// lanes). Cases cover whole-plane and region lowering, channel sub-ranges,
// planes that are not a multiple of NR, and a contraction deeper than KC.
// The GEMM over the panels must then match gemm_rows_bias over the
// row-major columns bit for bit, under every blocking and thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/gemm_isa.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stepping {
namespace {

class Im2colPanels : public ::testing::Test {
 protected:
  void TearDown() override {
    set_gemm_blocking(env_gemm_blocking());
    set_isa_tier(env_isa_tier());
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers;
  for (int t = 0; t <= static_cast<int>(detected_isa_tier()); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (isa_tier_compiled(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// A NaN bit pattern no lowering ever writes: marks untouched slots.
float sentinel() {
  const std::uint32_t bits = 0x7fc0dead;
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The scalar lowering loop: rows of channels [c0, c1) of the (patch,
/// region area) column matrix; other rows keep the sentinel.
std::vector<float> reference_cols(const float* x, const Conv2dGeometry& g,
                                  const SpatialRegion& reg, int c0, int c1) {
  const int kk = g.kernel * g.kernel;
  const int rw = reg.width();
  const std::int64_t area = reg.area();
  std::vector<float> cols(static_cast<std::size_t>(g.patch() * area),
                          sentinel());
  for (int r = c0 * kk; r < c1 * kk; ++r) {
    const int c = r / kk, kh = (r / g.kernel) % g.kernel, kw = r % g.kernel;
    for (int y = reg.r0; y < reg.r1; ++y) {
      for (int xo = reg.c0; xo < reg.c1; ++xo) {
        const int iy = y * g.stride + kh - g.pad;
        const int ix = xo * g.stride + kw - g.pad;
        const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
        cols[static_cast<std::size_t>(r * area + (y - reg.r0) * rw +
                                      (xo - reg.c0))] =
            in ? x[(c * g.in_h + iy) * g.in_w + ix] : 0.0f;
      }
    }
  }
  return cols;
}

/// The blocked GEMM's B pack of one KC chunk: rows [pc, pc + bk) of a
/// row-major (k x n) matrix into nr-wide panels, out[q*bk*nr + p*nr + jr],
/// zero-padded past column n.
std::vector<float> reference_pack(const std::vector<float>& b, int n, int pc,
                                  int bk, int nr) {
  const int panels = (n + nr - 1) / nr;
  std::vector<float> out(static_cast<std::size_t>(panels) * bk * nr);
  for (int q = 0; q < panels; ++q) {
    for (int p = 0; p < bk; ++p) {
      for (int jr = 0; jr < nr; ++jr) {
        const int j = q * nr + jr;
        out[static_cast<std::size_t>((q * bk + p) * nr + jr)] =
            j < n ? b[static_cast<std::size_t>(pc + p) * n + j] : 0.0f;
      }
    }
  }
  return out;
}

struct Case {
  Conv2dGeometry g;
  SpatialRegion reg;  ///< empty() = the whole output plane
  int c0, c1;
};

std::vector<Case> cases() {
  return {
      // 7x7 plane (49 columns: not a multiple of any NR), all channels.
      {{3, 7, 7, 4, 3, 1, 1}, {}, 0, 3},
      // Channel sub-range in the middle of the patch.
      {{4, 7, 7, 4, 3, 1, 1}, {}, 1, 3},
      // Strided, padded: 4x4 plane, gather path.
      {{2, 7, 7, 3, 3, 2, 1}, {}, 0, 2},
      // No padding, 5x5 kernel, 9x10 input (5x6 = 30 columns).
      {{2, 9, 10, 2, 5, 1, 0}, {}, 1, 2},
      // c3-shaped: 22 channels x 5x5 = 550 rows, deeper than the default
      // KC of 256, on an 8x8 plane.
      {{22, 8, 8, 8, 5, 1, 2}, {}, 0, 22},
      // ... and a channel run inside it (a ladder step's lowering).
      {{22, 8, 8, 8, 5, 1, 2}, {}, 9, 17},
      // Regions: interior, touching the padded border, a single column.
      {{3, 9, 9, 4, 3, 1, 1}, {2, 6, 1, 8}, 0, 3},
      {{3, 9, 9, 4, 5, 1, 2}, {0, 3, 6, 9}, 1, 3},
      {{2, 8, 8, 2, 3, 2, 1}, {1, 4, 3, 4}, 0, 2},
  };
}

std::vector<float> random_image(const Conv2dGeometry& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w);
  for (float& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

SpatialRegion region_of(const Case& cs) {
  return cs.reg.empty() ? SpatialRegion::full(cs.g.out_h(), cs.g.out_w())
                        : cs.reg;
}

TEST_F(Im2colPanels, RowMajorWrappersMatchScalarLowering) {
  int idx = 0;
  for (const Case& cs : cases()) {
    const std::vector<float> x = random_image(cs.g, 100 + idx++);
    const SpatialRegion reg = region_of(cs);
    const std::vector<float> want =
        reference_cols(x.data(), cs.g, reg, cs.c0, cs.c1);
    std::vector<float> got(want.size(), sentinel());
    if (cs.reg.empty()) {
      im2col(x.data(), cs.g, got.data(), cs.c0, cs.c1);
    } else {
      im2col_region(x.data(), cs.g, reg, got.data(), cs.c0, cs.c1);
    }
    ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
              0)
        << "case " << idx - 1;
  }
}

TEST_F(Im2colPanels, PanelsMatchLoweringThenPackAtEveryTier) {
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    const int nr = gemm_panel_width();
    const int kc = gemm_blocking().kc;
    int idx = 0;
    for (const Case& cs : cases()) {
      const std::string tag = std::string("tier=") + isa_tier_name(tier) +
                              " case " + std::to_string(idx);
      const std::vector<float> x = random_image(cs.g, 100 + idx++);
      const SpatialRegion reg = region_of(cs);
      const int n = static_cast<int>(reg.area());
      const int patch = cs.g.patch();
      const int kk = cs.g.kernel * cs.g.kernel;
      const int panels = (n + nr - 1) / nr;
      std::vector<float> cols = reference_cols(x.data(), cs.g, reg, 0,
                                               cs.g.in_c);
      std::vector<float> got(static_cast<std::size_t>(panels) * patch * nr,
                             sentinel());
      im2col_panels(x.data(), cs.g, reg, nr, patch, got.data(), cs.c0, cs.c1);
      // Chunk by chunk, exactly what the blocked GEMM would have packed for
      // the lowered rows; every other row stays untouched.
      for (int pc = 0; pc < patch; pc += kc) {
        const int bk = std::min(kc, patch - pc);
        const std::vector<float> packed = reference_pack(cols, n, pc, bk, nr);
        for (int q = 0; q < panels; ++q) {
          for (int p = 0; p < bk; ++p) {
            const int r = pc + p;
            const bool lowered = r >= cs.c0 * kk && r < cs.c1 * kk;
            for (int jr = 0; jr < nr; ++jr) {
              const float g =
                  got[static_cast<std::size_t>((q * patch + r) * nr + jr)];
              const float w =
                  lowered ? packed[static_cast<std::size_t>((q * bk + p) * nr +
                                                            jr)]
                          : sentinel();
              ASSERT_TRUE(same_bits(g, w))
                  << tag << " q=" << q << " r=" << r << " lane=" << jr;
            }
          }
        }
      }
    }
  }
}

TEST_F(Im2colPanels, PanelGemmMatchesPackedGemmAtEveryTier) {
  // Conv GEMMs over the panels against gemm_rows_bias over row-major
  // columns: same bits at every tier, blocking (default KC = 256 < k = 550,
  // and a tiny KC that chunks every case) and thread count, for the full
  // contraction and for a prefix of it read from taller panels (the ladder
  // cache's panel_k = patch with k = the active channels' rows).
  GemmBlocking small;
  small.mc = 5;
  small.kc = 7;
  small.nc = 24;
  for (const IsaTier tier : supported_tiers()) {
    set_isa_tier(tier);
    const int nr = gemm_panel_width();
    int idx = 0;
    for (const Case& cs : cases()) {
      const std::vector<float> x = random_image(cs.g, 200 + idx++);
      const SpatialRegion reg = region_of(cs);
      const int n = static_cast<int>(reg.area());
      const int patch = cs.g.patch();
      const int kk = cs.g.kernel * cs.g.kernel;
      const int m = cs.g.out_c;
      Rng rng(300 + idx);
      std::vector<float> w(static_cast<std::size_t>(m) * patch);
      for (float& v : w) {
        v = rng.uniform() < 0.2 ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
      }
      std::vector<float> bias(static_cast<std::size_t>(m));
      for (float& v : bias) v = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<unsigned char> rows(static_cast<std::size_t>(m), 1);
      if (m > 1) rows[1] = 0;
      std::vector<float> cols(static_cast<std::size_t>(patch) * n);
      im2col_region(x.data(), cs.g, reg, cols.data());
      std::vector<float> panels(
          static_cast<std::size_t>((n + nr - 1) / nr) * patch * nr);
      im2col_panels(x.data(), cs.g, reg, nr, patch, panels.data());
      for (const int k : {patch, cs.c1 * kk}) {
        for (const bool relu : {false, true}) {
          std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
          set_gemm_blocking(env_gemm_blocking());
          gemm_rows_bias(w.data(), cols.data(), want.data(), m, k, n,
                         rows.data(), bias.data(), relu, patch);
          for (const GemmBlocking& cfg : {env_gemm_blocking(), small}) {
            set_gemm_blocking(cfg);
            for (const int threads : {1, 4}) {
              ThreadPool::set_global_threads(threads);
              std::vector<float> got(want.size(), 0.0f);
              gemm_rows_bias_panels(w.data(), panels.data(), got.data(), m, k,
                                    n, patch, rows.data(), bias.data(), relu,
                                    patch);
              ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(float)),
                        0)
                  << "tier=" << isa_tier_name(tier) << " case " << idx - 1
                  << " k=" << k << " relu=" << relu << " kc=" << cfg.kc
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace stepping
