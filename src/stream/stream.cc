#include "stream/stream.h"

#include <algorithm>
#include <cassert>

#include "nn/param.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/fingerprint.h"

namespace stepping::stream {

StreamConfig stream_config_from_env() {
  StreamConfig cfg;
  const std::string mode = env_or("STEPPING_STREAM", "off");
  cfg.enabled = mode == "exact";
  cfg.tile = static_cast<int>(env_or_int("STEPPING_STREAM_TILE", 8));
  if (cfg.tile < 1) cfg.tile = 1;
  cfg.capacity = static_cast<int>(env_or_int("STEPPING_STREAM_STREAMS", 64));
  if (cfg.capacity < 1) cfg.capacity = 1;
  return cfg;
}

std::vector<std::uint64_t> network_signature(Network& net) {
  std::vector<std::uint64_t> sig;
  for (Param* p : net.params()) sig.push_back(p->version);
  return sig;
}

void tile_fingerprints(const Tensor& x, int tile,
                       std::vector<std::uint64_t>& grid) {
  assert(x.rank() == 4 && tile >= 1);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int gh = (h + tile - 1) / tile;
  const int gw = (w + tile - 1) / tile;
  grid.assign(static_cast<std::size_t>(gh) * gw, kFingerprintSeed);
  const float* base = x.data();
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          base + (static_cast<std::int64_t>(i) * c + ch) * h * w;
      for (int r = 0; r < h; ++r) {
        const float* row = plane + static_cast<std::int64_t>(r) * w;
        std::uint64_t* tile_row =
            grid.data() + static_cast<std::size_t>(r / tile) * gw;
        for (int tc = 0; tc < gw; ++tc) {
          const int c0 = tc * tile;
          const int c1 = std::min(w, c0 + tile);
          tile_row[tc] = fingerprint_fold(tile_row[tc], row + c0,
                                          static_cast<std::size_t>(c1 - c0));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// StreamStateCache
// ---------------------------------------------------------------------------

StreamStateCache::StreamStateCache(int capacity)
    : shard_capacity_(std::max(1, capacity / kShards)) {}

std::shared_ptr<StreamState> StreamStateCache::acquire(std::uint64_t stream_id,
                                                       bool* hit) {
  Shard& s = shard_of(stream_id);
  std::shared_ptr<StreamState> state;
  bool was_hit = false;
  int evicted = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(stream_id);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
      it->second = s.lru.begin();
      state = s.lru.begin()->second;
      was_hit = true;
    } else {
      state = std::make_shared<StreamState>();
      s.lru.emplace_front(stream_id, state);
      s.index[stream_id] = s.lru.begin();
      while (static_cast<int>(s.lru.size()) > shard_capacity_) {
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();  // in-flight frames keep their shared_ptr alive
        ++evicted;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (was_hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    evictions_ += evicted;
  }
  if (hit) *hit = was_hit;
  return state;
}

void StreamStateCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.index.clear();
  }
}

std::int64_t StreamStateCache::size() const {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += static_cast<std::int64_t>(s.lru.size());
  }
  return total;
}

std::int64_t StreamStateCache::hits() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return hits_;
}

std::int64_t StreamStateCache::misses() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return misses_;
}

std::int64_t StreamStateCache::evictions() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return evictions_;
}

// ---------------------------------------------------------------------------
// stream_delta_forward
// ---------------------------------------------------------------------------

namespace {

std::int64_t full_macs_at(Network& net, int level) {
  std::int64_t total = 0;
  for (MaskedLayer* m : net.masked_layers()) total += m->subnet_macs(level);
  return total;
}

/// Diff two fingerprint grids: count differing tiles and return their
/// bounding box in PIXEL coordinates (clipped to h x w). An empty rect means
/// the frames hashed identical.
SpatialRegion diff_tiles(const std::vector<std::uint64_t>& prev,
                         const std::vector<std::uint64_t>& next, int tile,
                         int h, int w, int* dirty_count) {
  const int gw = (w + tile - 1) / tile;
  int tr0 = 1 << 30, tr1 = -1, tc0 = 1 << 30, tc1 = -1, count = 0;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (prev[i] == next[i]) continue;
    ++count;
    const int tr = static_cast<int>(i) / gw;
    const int tc = static_cast<int>(i) % gw;
    tr0 = std::min(tr0, tr);
    tr1 = std::max(tr1, tr);
    tc0 = std::min(tc0, tc);
    tc1 = std::max(tc1, tc);
  }
  *dirty_count = count;
  if (count == 0) return {};
  SpatialRegion r{tr0 * tile, (tr1 + 1) * tile, tc0 * tile, (tc1 + 1) * tile};
  return r.clipped(h, w);
}

/// One exact delta pass at st.level, in place over st.layer_outputs: walk
/// the layers threading the dirty region; layers with a spatial delta (body
/// convs, BN, ReLU, max-pool) splice recomputed rectangles into their
/// cached outputs, every other layer re-runs its active-channel pass on the
/// (exact) spliced input. Region tracking stops
/// at the first flat output (Flatten / Dense) — from there the whole
/// activation is treated as dirty anyway. Returns analytic MACs executed;
/// st.layer_outputs become frame t+1's ladder at st.level.
std::int64_t delta_pass(Network& net, StreamState& st, const Tensor& x,
                        SpatialRegion region) {
  SubnetContext ctx;
  ctx.subnet_id = st.level;
  ctx.training = false;

  const auto& layers = net.layers();
  assert(st.layer_outputs.size() == layers.size());
  std::int64_t macs = 0;
  bool tracked = true;
  const Tensor* cur = &x;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer* layer = layers[i].get();
    auto* masked = dynamic_cast<MaskedLayer*>(layer);
    Tensor& out = st.layer_outputs[i];
    bool delta = false;
    if (tracked) {
      const IOSpec& spec = layer->out_spec();
      const SpatialRegion out_region =
          layer->propagate_dirty_region(region).clipped(spec.h, spec.w);
      delta = layer->supports_spatial_delta() && !out.empty() &&
              !out_region.covers(spec.h, spec.w);
      if (delta) {
        layer->forward_delta(*cur, out, out_region, ctx);
        // Delta conv cost: active weights x recomputed positions (the full
        // layer is active_weights x out_h*out_w == subnet_macs).
        if (masked) macs += masked->active_weights(st.level) * out_region.area();
      }
      region = out_region;
      if (spec.flat) tracked = false;
    }
    if (!delta) {
      layer->forward_step(*cur, out, 0, ctx, nullptr);
      if (masked) macs += masked->subnet_macs(st.level);
    }
    cur = &out;
  }
  st.logits = st.layer_outputs.back();
  return macs;
}

}  // namespace

StreamResult stream_delta_forward(Network& net, StreamState& st,
                                  const Tensor& x, int level,
                                  const StreamConfig& cfg,
                                  const std::vector<std::uint64_t>& signature) {
  assert(level >= 1 && x.rank() == 4);
  obs::TraceScope span("stream.delta", "stream");

  StreamResult res;
  res.level = level;
  res.full_macs = full_macs_at(net, level);

  std::vector<std::uint64_t> tiles;
  tile_fingerprints(x, cfg.tile, tiles);
  res.total_tiles = static_cast<int>(tiles.size());

  // Reuse is only sound when the cached ladder describes the same model
  // (signature), the same frame geometry, the same tile grid, and a level we
  // can step UP from. A level step-down could mask like the incremental
  // executor, but streams re-request their steady level next frame anyway,
  // so the simple cold rebuild keeps the state machine small.
  const bool reusable = st.level != 0 && st.level <= level &&
                        st.signature == signature && st.in_shape == x.shape() &&
                        st.tile == cfg.tile;

  if (!reusable) {
    res.cold = true;
    // The buffers are rebuilt in place: a cold pass writes every unit active
    // at `level`, and no consumer reads the others.
    st.logits = ladder_step(net, x, st.layer_outputs, 0, level);
    res.macs = res.full_macs;
  } else {
    int dirty = 0;
    const SpatialRegion region = diff_tiles(
        st.tiles, tiles, cfg.tile, x.dim(2), x.dim(3), &dirty);
    res.dirty_tiles = dirty;
    if (dirty > 0) res.macs += delta_pass(net, st, x, region);
    if (level > st.level) {
      st.logits = ladder_step(net, x, st.layer_outputs, st.level, level);
      res.macs += ladder_step_macs(net, st.level, level);
    }
    // dirty == 0 && level == st.level: the frame hashed identical — the
    // cached logits are the answer, zero MACs.
  }

  st.in_shape = x.shape();
  st.tiles = std::move(tiles);
  st.signature = signature;
  st.tile = cfg.tile;
  st.level = level;
  ++st.frames;
  res.logits = st.logits;

  span.arg("level", level);
  span.arg("dirty_tiles", res.dirty_tiles);
  span.arg("macs", res.macs);
  span.arg("cold", res.cold ? 1 : 0);
  return res;
}

}  // namespace stepping::stream
