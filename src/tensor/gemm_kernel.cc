#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm_isa.h"
#include "tensor/gemm_microkernel.h"
#include "util/arena.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace stepping {

namespace {

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

std::mutex& cfg_mutex() {
  static std::mutex mu;
  return mu;
}

GemmBlocking& cfg_slot() {
  static GemmBlocking cfg;
  return cfg;
}

bool& cfg_initialized() {
  static bool init = false;
  return init;
}

obs::Counter& blocked_dispatches() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_blocked_total");
  return c;
}

obs::Counter& ref_dispatches() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_ref_total");
  return c;
}

obs::Counter& packs_performed() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_packs_total");
  return c;
}

// Executed-work counters (deterministic, unlike wall-clock): bytes written
// into packed B panels, and multiply-adds actually dispatched — after the
// axpy family's exact-zero skip and every row/column/contraction mask.
obs::Counter& pack_bytes() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_pack_bytes_total");
  return c;
}

obs::Counter& madds_dispatched() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_gemm_madds_total");
  return c;
}

/// Axpy-family terms a call executes: nonzero A entries of the active rows
/// (and active contraction rows) times n. Only the fallback route needs this
/// separate scan; the blocked path counts its compacted terms for free.
std::uint64_t axpy_madds(const float* a, int m, int k, int n, int lda,
                         bool atrans, const unsigned char* rmask,
                         const unsigned char* kmask) {
  std::uint64_t terms = 0;
  for (int i = 0; i < m; ++i) {
    if (rmask != nullptr && rmask[i] == 0) continue;
    for (int p = 0; p < k; ++p) {
      if (kmask != nullptr && kmask[p] == 0) continue;
      const float av = atrans ? a[static_cast<std::size_t>(p) * m + i]
                              : a[static_cast<std::size_t>(i) * lda + p];
      if (av != 0.0f) ++terms;
    }
  }
  return terms * static_cast<std::uint64_t>(n);
}

/// Dot-family multiply-adds: no zero skip, so active rows x active columns
/// x the full contraction.
std::uint64_t dot_madds(int m, int k, int n, const unsigned char* rmask,
                        const unsigned char* cmask) {
  std::uint64_t rows = 0, cols = 0;
  for (int i = 0; i < m; ++i) rows += (rmask == nullptr || rmask[i] != 0);
  for (int j = 0; j < n; ++j) cols += (cmask == nullptr || cmask[j] != 0);
  return rows * cols * static_cast<std::uint64_t>(k);
}

obs::Counter& packcache_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_packcache_hits_total");
  return c;
}

obs::Counter& packcache_misses() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_packcache_misses_total");
  return c;
}

obs::Counter& packcache_bytes_packed() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_packcache_bytes_total");
  return c;
}

obs::Counter& packcache_evictions() {
  static obs::Counter& c =
      obs::Registry::global().counter("stepping_packcache_evictions_total");
  return c;
}

obs::Gauge& packcache_bytes_now() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("stepping_packcache_bytes");
  return g;
}

}  // namespace

GemmBlocking env_gemm_blocking() {
  GemmBlocking cfg;
  std::string v = env_or("STEPPING_GEMM_BLOCK", "");
  if (v.empty()) return cfg;
  if (v == "ref" || v == "off" || v == "0") {
    cfg.force_ref = true;
    return cfg;
  }
  for (char& ch : v) {
    if (ch == ',' || ch == 'X') ch = 'x';
  }
  int mc = 0, kc = 0, nc = 0;
  if (std::sscanf(v.c_str(), "%dx%dx%d", &mc, &kc, &nc) == 3 && mc > 0 &&
      kc > 0 && nc > 0) {
    cfg.mc = mc;
    cfg.kc = kc;
    cfg.nc = nc;
  }
  return cfg;
}

GemmBlocking gemm_blocking() {
  std::lock_guard<std::mutex> lock(cfg_mutex());
  if (!cfg_initialized()) {
    cfg_slot() = env_gemm_blocking();
    cfg_initialized() = true;
  }
  return cfg_slot();
}

void set_gemm_blocking(const GemmBlocking& cfg) {
  {
    std::lock_guard<std::mutex> lock(cfg_mutex());
    cfg_slot() = cfg;
    cfg_initialized() = true;
  }
  // Block sizes change the packed-panel layout; cached buffers for the old
  // blocking would be read with the new offsets. Drop them all.
  flush_pack_cache();
}

bool gemm_uses_blocked(std::int64_t m, std::int64_t k, std::int64_t n,
                       const GemmBlocking& cfg) {
  if (cfg.force_ref) return false;
  if (m <= 0 || k <= 0 || n <= 0) return false;
  if (k < cfg.min_k) return false;
  return m * k * n >= cfg.min_macs;
}

// ---------------------------------------------------------------------------
// Reference kernels — the PR-1 row-parallel loops on raw pointers. These
// define the bitwise ground truth the blocked path must reproduce.
// ---------------------------------------------------------------------------

namespace gemmref {

void gemm(const float* pa, const float* pb, float* pc, int m, int k, int n,
          bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;  // masked weights are exactly zero
        const float* brow = pb + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_tn(const float* pat, const float* pb, float* pc, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (int p = 0; p < k; ++p) {
      const float* atrow = pat + static_cast<std::size_t>(p) * m;
      const float* brow = pb + static_cast<std::size_t>(p) * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float av = atrow[i];
        if (av == 0.0f) continue;
        float* crow = pc + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_nt(const float* pa, const float* pbt, float* pc, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* btrow = pbt + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
        crow[j] += acc;
      }
    }
  });
}

void gemm_rows(const float* pa, const float* pb, float* pc, int m, int k,
               int n, const unsigned char* row_active) {
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      if (!row_active[i]) continue;
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_nt_cols(const float* pa, const float* pbt, float* pc, int m, int k,
                  int n, const unsigned char* col_active) {
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        if (!col_active[j]) continue;
        const float* btrow = pbt + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
        crow[j] += acc;
      }
    }
  });
}

void gemm_nt_rows_acc(const float* pa, const float* pbt, float* pc, int m,
                      int k, int n, const unsigned char* row_active) {
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      if (!row_active[i]) continue;
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* btrow = pbt + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
        crow[j] += acc;
      }
    }
  });
}

void gemm_tn_rows(const float* pat, const float* pb, float* pc, int m, int k,
                  int n, const unsigned char* k_active) {
  std::fill(pc, pc + static_cast<std::size_t>(m) * n, 0.0f);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (int p = 0; p < k; ++p) {
      if (!k_active[p]) continue;
      const float* atrow = pat + static_cast<std::size_t>(p) * m;
      const float* brow = pb + static_cast<std::size_t>(p) * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float av = atrow[i];
        if (av == 0.0f) continue;
        float* crow = pc + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

// The fused references replay the unfused sequence gemm -> bias -> relu
// per element. Each element's op chain is independent and a float
// store/load round trip is bit-exact, so fusing the chain is bitwise
// identical to running the three passes back to back.

void gemm_nt_cols_bias(const float* pa, const float* pbt, float* pc, int m,
                       int k, int n, const unsigned char* col_active,
                       const float* bias, bool relu, int ldb) {
  const std::size_t bstride = static_cast<std::size_t>(ldb > 0 ? ldb : k);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + static_cast<std::size_t>(i) * k;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        if (!col_active[j]) continue;
        const float* btrow = pbt + static_cast<std::size_t>(j) * bstride;
        float acc = 0.0f;
        for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
        float v = crow[j] + acc;
        v += bias[j];
        if (relu) v = v > 0.0f ? v : 0.0f;
        crow[j] = v;
      }
    }
  });
}

void gemm_rows_bias(const float* pa, const float* pb, float* pc, int m, int k,
                    int n, const unsigned char* row_active, const float* bias,
                    bool relu, int lda) {
  const std::size_t astride = static_cast<std::size_t>(lda > 0 ? lda : k);
  parallel_for_cost(0, m, static_cast<std::int64_t>(k) * n,
                    [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      if (!row_active[i]) continue;
      const float* arow = pa + static_cast<std::size_t>(i) * astride;
      float* crow = pc + static_cast<std::size_t>(i) * n;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = pb + static_cast<std::size_t>(p) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
      const float bi = bias[i];
      for (int j = 0; j < n; ++j) crow[j] += bi;
      if (relu) {
        for (int j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
      }
    }
  });
}

}  // namespace gemmref

// ---------------------------------------------------------------------------
// Blocked path.
// ---------------------------------------------------------------------------

namespace {

enum class Fam { kAxpy, kDot };

constexpr int kMR = kGemmMR;

/// Pack the (pc..pc+bk) x (jc..jc+bn) block of B into nr-wide panels:
/// out[q * bk * nr + p * nr + jr] holds B(pc+p, jc+q*nr+jr), zero-padded
/// past the last column. BTrans reads the transposed operand Bt (n x k).
/// `nr` is the active ISA tier's panel width (runtime since ISSUE 6).
/// `ld` is the source's row stride: B's (n_dim for a dense B) or Bt's (k_dim
/// for a dense Bt, wider when contracting over a leading column range).
/// Panel contents depend only on B and nr, never on the partition, so
/// parallel packing is deterministic.
template <bool BTrans>
void pack_b_block(const float* b, int ld, int pc, int jc, int bk, int bn,
                  int nr, float* out) {
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm.pack");
  const int panels = (bn + nr - 1) / nr;
  parallel_for_cost(0, panels, static_cast<std::int64_t>(bk) * nr,
                    [&](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t q = q0; q < q1; ++q) {
      const int j0 = jc + static_cast<int>(q) * nr;
      const int w = std::min(nr, jc + bn - j0);
      float* dst = out + static_cast<std::size_t>(q) * bk * nr;
      if constexpr (!BTrans) {
        for (int p = 0; p < bk; ++p) {
          const float* src = b + static_cast<std::size_t>(pc + p) * ld + j0;
          int jr = 0;
          for (; jr < w; ++jr) dst[jr] = src[jr];
          for (; jr < nr; ++jr) dst[jr] = 0.0f;
          dst += nr;
        }
      } else {
        // Bt is (n x k): read column j0+jr of B contiguously from Bt's row.
        for (int jr = 0; jr < w; ++jr) {
          const float* src = b + static_cast<std::size_t>(j0 + jr) * ld + pc;
          for (int p = 0; p < bk; ++p) dst[p * nr + jr] = src[p];
        }
        for (int jr = w; jr < nr; ++jr) {
          for (int p = 0; p < bk; ++p) dst[p * nr + jr] = 0.0f;
        }
      }
    }
  });
  packs_performed().inc();
  pack_bytes().inc(static_cast<std::uint64_t>(panels) * bk * nr * sizeof(float));
}

// ---------------------------------------------------------------------------
// Persistent packed-weight cache. Keyed on (pack_id, k, n, NC, tier):
// pack_id is a never-reused identity for one snapshot of the operand bytes
// (owners draw a new one on any change), k/n/NC pin the panel layout, and
// the ISA tier pins the panel width NR (ISSUE 6) — panels packed for one
// tier are laid out wrong for another. Values are shared_ptrs, so a buffer
// being read can be evicted concurrently without invalidating the reader.
// ---------------------------------------------------------------------------

struct PackKey {
  std::uint64_t id;
  int k;
  int n;
  int nc;
  int tier;
  int kind;  ///< 0 = fp32 panels; 1 = int8 quant blob (ISSUE 7)
  bool operator==(const PackKey& o) const {
    return id == o.id && k == o.k && n == o.n && nc == o.nc &&
           tier == o.tier && kind == o.kind;
  }
};

struct PackKeyHash {
  std::size_t operator()(const PackKey& key) const {
    std::uint64_t h = key.id * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.k)) << 32;
    h ^= static_cast<std::uint32_t>(key.n) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.nc)) << 13);
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.tier)) << 47;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.kind)) << 21;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

using PackedBuffer = std::shared_ptr<const std::vector<float>>;

class PackCache {
 public:
  PackedBuffer find(const PackKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.data;
  }

  void insert(const PackKey& key, PackedBuffer data, std::size_t limit_bytes) {
    const std::size_t bytes = data->size() * sizeof(float);
    if (bytes > limit_bytes) return;  // would only evict itself
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.find(key) != map_.end()) return;  // racing packer won
    lru_.push_front(key);
    map_.emplace(key, Slot{std::move(data), lru_.begin()});
    bytes_ += bytes;
    evict_to(limit_bytes);
    packcache_bytes_now().set(static_cast<std::int64_t>(bytes_));
  }

  void trim(std::size_t limit_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    evict_to(limit_bytes);
    packcache_bytes_now().set(static_cast<std::int64_t>(bytes_));
  }

  void flush() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
    packcache_bytes_now().set(0);
  }

  std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  std::size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Slot {
    PackedBuffer data;
    std::list<PackKey>::iterator pos;
  };

  void evict_to(std::size_t limit_bytes) {  // caller holds mu_
    while (bytes_ > limit_bytes && !lru_.empty()) {
      auto vit = map_.find(lru_.back());
      bytes_ -= vit->second.data->size() * sizeof(float);
      map_.erase(vit);
      lru_.pop_back();
      packcache_evictions().inc();
    }
  }

  mutable std::mutex mu_;
  std::list<PackKey> lru_;  ///< front = most recently used
  std::unordered_map<PackKey, Slot, PackKeyHash> map_;
  std::size_t bytes_ = 0;
};

PackCache& pack_cache() {
  // Leaked: kernels may run during static destruction of other objects.
  static PackCache* c = new PackCache;
  return *c;
}

std::atomic<long>& pack_limit_slot() {
  static std::atomic<long> v{-1};  // -1 = read STEPPING_PACK_CACHE_MB lazily
  return v;
}

/// Look up (or pack + insert) the fully packed Bt for a dot-family call.
/// Returns nullptr when caching is disabled; the caller then packs into its
/// arena per block as before. The miss path packs every NC block at its
/// deterministic offset with the same pack_b_block the uncached path uses,
/// so cached and uncached panels are byte-identical.
PackedBuffer acquire_packed(std::uint64_t pack_id, const float* bt, int k,
                            int ldb, int n, int nc, int nr, IsaTier tier,
                            bool* hit) {
  const long limit_mb = pack_cache_limit_mb();
  if (limit_mb <= 0) return nullptr;
  const PackKey key{pack_id, k, n, nc, static_cast<int>(tier), /*kind=*/0};
  STEPPING_TRACE_SCOPE_CAT("kernel", "gemm.packcache");
  if (PackedBuffer found = pack_cache().find(key)) {
    packcache_hits().inc();
    *hit = true;
    return found;
  }
  packcache_misses().inc();
  std::size_t total = 0;
  for (int jc = 0; jc < n; jc += nc) {
    const int bn = std::min(nc, n - jc);
    total += static_cast<std::size_t>((bn + nr - 1) / nr) * nr *
             static_cast<std::size_t>(k);
  }
  auto buf = std::make_shared<std::vector<float>>(total);
  std::size_t off = 0;
  for (int jc = 0; jc < n; jc += nc) {
    const int bn = std::min(nc, n - jc);
    pack_b_block<true>(bt, ldb, 0, jc, k, bn, nr, buf->data() + off);
    off += static_cast<std::size_t>((bn + nr - 1) / nr) * nr *
           static_cast<std::size_t>(k);
  }
  packcache_bytes_packed().inc(total * sizeof(float));
  PackedBuffer out = std::move(buf);
  pack_cache().insert(key, out, static_cast<std::size_t>(limit_mb) << 20);
  return out;
}

// The micro-kernels themselves (axpy_row_panels / dot_tile) moved to
// gemm_microkernel_impl.h for ISSUE 6: they are compiled once per ISA tier
// with that tier's -m flags (gemm_microkernel_{scalar,sse,avx2,avx512}.cc)
// and reached through the active KernelTable's function pointers. The
// driver below is tier-agnostic — it reads the table once per call and
// threads the tier's panel width `nr` through packing and tiling.

/// `lowered` (axpy family only) hands over B already laid out in the active
/// tier's panels, `panel_k` rows per panel (gemm_rows_bias_panels): the
/// column loop then runs as one block straight over them and nothing is
/// packed. Each KC chunk starts `pc` rows down every panel, so the micro-
/// kernel steps between panels by panel_k * NR instead of bk * NR; the
/// per-element term sequence is the same either way.
template <Fam F, bool ATrans, bool RowMask, bool ColMask, bool KMask>
void blocked_run(const float* a, const float* b, float* c, int m, int k, int n,
                 const unsigned char* rmask, const unsigned char* cmask,
                 const unsigned char* kmask, const GemmBlocking& cfg,
                 const float* bias = nullptr, bool relu = false,
                 std::uint64_t pack_id = 0, int lda = 0, int ldb = 0,
                 const float* lowered = nullptr, int panel_k = 0) {
  obs::TraceScope span("gemm.blocked", "kernel");
  const microkernel::KernelTable& kt = microkernel::active_table();
  const int nr = kt.nr;
  const int nc = lowered != nullptr ? (n + nr - 1) / nr * nr
                                    : std::max(cfg.nc, nr);
  const int mc = std::max(cfg.mc, kMR);
  // Dot-family contraction is never chunked: accumulators must span the
  // full k so C sees exactly one update (determinism contract).
  const int kc = (F == Fam::kDot) ? k : std::max(1, std::min(cfg.kc, k));
  // Row strides: A (untransposed) defaults to k, a transposed Bt to k, a
  // plain B to n. The transposed-A case keeps its fixed m stride.
  if (lda <= 0) lda = k;
  if (ldb <= 0) ldb = (F == Fam::kDot) ? k : n;
  if constexpr (F == Fam::kDot) {
    madds_dispatched().inc(dot_madds(m, k, n, RowMask ? rmask : nullptr,
                                     ColMask ? cmask : nullptr));
  }

  // Persistent packed-weight cache (dot family only: its packed layout is
  // chunk-free, one contiguous run of NC blocks). Cached panels are the
  // same bytes pack_b_block writes into the arena, so hit and miss paths
  // are bitwise interchangeable.
  bool cache_hit = false;
  PackedBuffer cached;
  if constexpr (F == Fam::kDot) {
    if (pack_id != 0) {
      cached = acquire_packed(pack_id, b, k, ldb, n, nc, nr, kt.tier,
                              &cache_hit);
    }
  }
  span.arg("m", m);
  span.arg("k", k);
  span.arg("n", n);
  span.arg("hit", cache_hit ? 1 : 0);
  span.arg("isa", static_cast<int>(kt.tier));

  ArenaScope scope;
  const int max_bn = std::min(nc, n);
  const int max_panels = (max_bn + nr - 1) / nr;
  float* pack = nullptr;
  if (cached == nullptr && lowered == nullptr) {
    pack = scope.alloc_floats(static_cast<std::size_t>(max_panels) * nr *
                              static_cast<std::size_t>(kc));
  }

  std::size_t cache_off = 0;  ///< float offset of this jc block in `cached`
  for (int jc = 0; jc < n; jc += nc) {
    const int bn = std::min(nc, n - jc);
    const int panels = (bn + nr - 1) / nr;
    const std::size_t block_off = cache_off;
    cache_off += static_cast<std::size_t>(panels) * nr *
                 static_cast<std::size_t>(k);
    for (int pc = 0; pc < k; pc += kc) {
      const int bk = std::min(kc, k - pc);
      const float* packed;
      std::ptrdiff_t pstride = static_cast<std::ptrdiff_t>(bk) * nr;
      if (lowered != nullptr) {
        pstride = static_cast<std::ptrdiff_t>(panel_k) * nr;
        packed = lowered + static_cast<std::size_t>(jc / nr) * pstride +
                 static_cast<std::size_t>(pc) * nr;
      } else if (cached != nullptr) {
        packed = cached->data() + block_off;  // dot family: bk == k
      } else {
        pack_b_block<F == Fam::kDot>(b, ldb, pc, jc, bk, bn, nr, pack);
        packed = pack;
      }
      // Fused epilogue fires on the chunk that completes the contraction
      // (the dot family never chunks, so always there).
      const bool epi = bias != nullptr && pc + bk == k;
      // Rows are partitioned exactly like the reference kernels; every C
      // row is owned by one chunk and element values are independent of
      // the partition, so any thread count yields identical bits.
      parallel_for_cost(0, m, static_cast<std::int64_t>(bk) * bn,
                        [&](std::int64_t ch0, std::int64_t ch1) {
        // Per-thread compact streams (axpy family): the gather touches A
        // once per (row group, KC chunk) and is amortized over every panel
        // of the NC block.
        ArenaScope ws(Arena::this_thread());
        float* vals = nullptr;
        int* idxs = nullptr;
        int* nnz = nullptr;
        std::uint64_t terms = 0;  // compacted axpy terms (madds / bn)
        if constexpr (F == Fam::kAxpy) {
          vals = ws.alloc_floats(static_cast<std::size_t>(mc) * bk);
          idxs = static_cast<int*>(
              ws.alloc(static_cast<std::size_t>(mc) * bk * sizeof(int)));
          nnz = static_cast<int*>(
              ws.alloc(static_cast<std::size_t>(mc) * sizeof(int)));
        }
        for (std::int64_t g0 = ch0; g0 < ch1; g0 += mc) {
          const std::int64_t g1 = std::min<std::int64_t>(g0 + mc, ch1);
          if constexpr (F == Fam::kAxpy) {
            const int rows = static_cast<int>(g1 - g0);
            for (int r = 0; r < rows; ++r) {
              const std::int64_t i = g0 + r;
              if (RowMask && rmask[i] == 0) {
                nnz[r] = -1;  // row skipped entirely; C never touched
                continue;
              }
              int t = 0;
              float* vrow = vals + static_cast<std::size_t>(r) * bk;
              int* irow = idxs + static_cast<std::size_t>(r) * bk;
              for (int p = 0; p < bk; ++p) {
                if constexpr (KMask) {
                  if (kmask[pc + p] == 0) continue;
                }
                const float av =
                    ATrans ? a[static_cast<std::size_t>(pc + p) * m + i]
                           : a[static_cast<std::size_t>(i) * lda + pc + p];
                if (av == 0.0f) continue;  // the reference's masked skip
                vrow[t] = av;
                irow[t] = p;
                ++t;
              }
              nnz[r] = t;
              terms += static_cast<std::uint64_t>(t);
            }
            int q = 0;
            for (; q + 1 < panels; q += 2) {
              // Panel pairs: 2*NR columns per pass, four independent
              // accumulator vectors — enough ILP to hide FP-add latency.
              const float* bp = packed + q * pstride;
              const int j0 = jc + q * nr;
              const int w = std::min(2 * nr, jc + bn - j0);
              for (int r = 0; r < rows; ++r) {
                if (nnz[r] < 0) continue;
                float* crow = c + (static_cast<std::size_t>(g0) + r) * n + j0;
                kt.axpy(vals + static_cast<std::size_t>(r) * bk,
                        idxs + static_cast<std::size_t>(r) * bk, nnz[r], bp,
                        crow, w, pstride, /*pair=*/true, epi,
                        epi ? bias[g0 + r] : 0.0f, relu);
              }
            }
            if (q < panels) {
              const float* bp = packed + q * pstride;
              const int j0 = jc + q * nr;
              const int w = std::min(nr, jc + bn - j0);
              for (int r = 0; r < rows; ++r) {
                if (nnz[r] < 0) continue;
                float* crow = c + (static_cast<std::size_t>(g0) + r) * n + j0;
                kt.axpy(vals + static_cast<std::size_t>(r) * bk,
                        idxs + static_cast<std::size_t>(r) * bk, nnz[r], bp,
                        crow, w, pstride, /*pair=*/false, epi,
                        epi ? bias[g0 + r] : 0.0f, relu);
              }
            }
            continue;
          }
          for (int q = 0; q < panels; ++q) {
            // One B micro-panel stays L1-resident across the whole MC row
            // group before moving to the next panel.
            const float* bp = packed + static_cast<std::size_t>(q) * bk * nr;
            const int j0 = jc + q * nr;
            const int w = std::min(nr, jc + bn - j0);
            const float* ebias = epi ? bias : nullptr;
            for (std::int64_t i0 = g0; i0 < g1; i0 += kMR) {
              const int h = static_cast<int>(
                  std::min<std::int64_t>(kMR, g1 - i0));
              kt.dot(a, c, k, n, i0, h, j0, w, bk, bp,
                     RowMask ? rmask : nullptr, ColMask ? cmask : nullptr,
                     ebias, relu);
            }
          }
        }
        if (terms != 0) {
          madds_dispatched().inc(terms * static_cast<std::uint64_t>(bn));
        }
      });
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Pack-cache public API.
// ---------------------------------------------------------------------------

std::uint64_t new_pack_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void flush_pack_cache() { pack_cache().flush(); }

long pack_cache_limit_mb() {
  long v = pack_limit_slot().load(std::memory_order_relaxed);
  if (v >= 0) return v;
  const long env = env_or_int("STEPPING_PACK_CACHE_MB", 64);
  long expected = -1;
  pack_limit_slot().compare_exchange_strong(expected, env < 0 ? 0 : env,
                                            std::memory_order_relaxed);
  return pack_limit_slot().load(std::memory_order_relaxed);
}

void set_pack_cache_limit_mb(long mb) {
  if (mb < 0) mb = 0;
  pack_limit_slot().store(mb, std::memory_order_relaxed);
  if (mb == 0) {
    pack_cache().flush();
  } else {
    pack_cache().trim(static_cast<std::size_t>(mb) << 20);
  }
}

std::size_t pack_cache_bytes() { return pack_cache().bytes(); }

std::size_t pack_cache_entries() { return pack_cache().entries(); }

std::shared_ptr<const std::vector<float>> pack_cache_find_kind(
    std::uint64_t pack_id, int k, int n, int nc, int tier, int kind) {
  if (pack_cache_limit_mb() <= 0 || pack_id == 0) return nullptr;
  const PackKey key{pack_id, k, n, nc, tier, kind};
  PackedBuffer found = pack_cache().find(key);
  if (found != nullptr) {
    packcache_hits().inc();
  } else {
    packcache_misses().inc();
  }
  return found;
}

void pack_cache_insert_kind(std::uint64_t pack_id, int k, int n, int nc,
                            int tier, int kind,
                            std::shared_ptr<const std::vector<float>> data) {
  const long limit_mb = pack_cache_limit_mb();
  if (limit_mb <= 0 || pack_id == 0 || data == nullptr) return;
  packcache_bytes_packed().inc(data->size() * sizeof(float));
  const PackKey key{pack_id, k, n, nc, tier, kind};
  pack_cache().insert(key, std::move(data),
                      static_cast<std::size_t>(limit_mb) << 20);
}

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(axpy_madds(a, m, k, n, k, false, nullptr, nullptr));
    microkernel::active_table().fb_gemm(a, b, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, false, false, false, false>(
      a, b, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_tn(const float* at, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(axpy_madds(at, m, k, n, m, true, nullptr, nullptr));
    microkernel::active_table().fb_gemm_tn(at, b, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, true, false, false, false>(
      at, b, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_nt(const float* a, const float* bt, float* c, int m, int k, int n,
             bool accumulate) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(dot_madds(m, k, n, nullptr, nullptr));
    microkernel::active_table().fb_gemm_nt(a, bt, c, m, k, n, accumulate);
    return;
  }
  blocked_dispatches().inc();
  if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kDot, false, false, false, false>(
      a, bt, c, m, k, n, nullptr, nullptr, nullptr, cfg);
}

void gemm_rows(const float* a, const float* b, float* c, int m, int k, int n,
               const unsigned char* row_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(axpy_madds(a, m, k, n, k, false, row_active, nullptr));
    microkernel::active_table().fb_gemm_rows(a, b, c, m, k, n, row_active);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kAxpy, false, true, false, false>(
      a, b, c, m, k, n, row_active, nullptr, nullptr, cfg);
}

void gemm_nt_cols(const float* a, const float* bt, float* c, int m, int k,
                  int n, const unsigned char* col_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(dot_madds(m, k, n, nullptr, col_active));
    microkernel::active_table().fb_gemm_nt_cols(a, bt, c, m, k, n, col_active);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kDot, false, false, true, false>(
      a, bt, c, m, k, n, nullptr, col_active, nullptr, cfg);
}

void gemm_nt_rows_acc(const float* a, const float* bt, float* c, int m, int k,
                      int n, const unsigned char* row_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(dot_madds(m, k, n, row_active, nullptr));
    microkernel::active_table().fb_gemm_nt_rows_acc(a, bt, c, m, k, n, row_active);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kDot, false, true, false, false>(
      a, bt, c, m, k, n, row_active, nullptr, nullptr, cfg);
}

void gemm_tn_rows(const float* at, const float* b, float* c, int m, int k,
                  int n, const unsigned char* k_active) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(axpy_madds(at, m, k, n, m, true, nullptr, k_active));
    microkernel::active_table().fb_gemm_tn_rows(at, b, c, m, k, n, k_active);
    return;
  }
  blocked_dispatches().inc();
  std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  blocked_run<Fam::kAxpy, true, false, false, true>(
      at, b, c, m, k, n, nullptr, nullptr, k_active, cfg);
}

void gemm_nt_cols_bias(const float* a, const float* bt, float* c, int m, int k,
                       int n, const unsigned char* col_active,
                       const float* bias, bool relu, std::uint64_t pack_id,
                       int ldb) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(dot_madds(m, k, n, nullptr, col_active));
    microkernel::active_table().fb_gemm_nt_cols_bias(a, bt, c, m, k, n,
                                                     col_active, bias, relu,
                                                     ldb);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kDot, false, false, true, false>(
      a, bt, c, m, k, n, nullptr, col_active, nullptr, cfg, bias, relu,
      pack_id, /*lda=*/0, ldb);
}

void gemm_rows_bias(const float* a, const float* b, float* c, int m, int k,
                    int n, const unsigned char* row_active, const float* bias,
                    bool relu, int lda) {
  const GemmBlocking cfg = gemm_blocking();
  if (!gemm_uses_blocked(m, k, n, cfg)) {
    ref_dispatches().inc();
    madds_dispatched().inc(
        axpy_madds(a, m, k, n, lda > 0 ? lda : k, false, row_active, nullptr));
    microkernel::active_table().fb_gemm_rows_bias(a, b, c, m, k, n, row_active,
                                                  bias, relu, lda);
    return;
  }
  blocked_dispatches().inc();
  blocked_run<Fam::kAxpy, false, true, false, false>(
      a, b, c, m, k, n, row_active, nullptr, nullptr, cfg, bias, relu,
      /*pack_id=*/0, lda);
}

void gemm_rows_bias_panels(const float* a, const float* bp, float* c, int m,
                           int k, int n, int panel_k,
                           const unsigned char* row_active, const float* bias,
                           bool relu, int lda) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {  // no contraction: only the bias (+ReLU) epilogue remains
    gemm_rows_bias(a, nullptr, c, m, 0, n, row_active, bias, relu, lda);
    return;
  }
  assert(panel_k >= k);
  blocked_dispatches().inc();
  blocked_run<Fam::kAxpy, false, true, false, false>(
      a, nullptr, c, m, k, n, row_active, nullptr, nullptr, gemm_blocking(),
      bias, relu, /*pack_id=*/0, lda, /*ldb=*/0, bp, panel_k);
}

}  // namespace stepping
