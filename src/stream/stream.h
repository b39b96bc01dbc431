// Streaming inference with per-stream ladder state (ISSUE 10).
//
// A video/sensor stream presents near-duplicate inputs frame after frame.
// This module keeps each stream's previous-frame activation ladder (one
// cached post-activation tensor per layer, at some subnet level) in a keyed
// LRU cache, fingerprints the new frame per spatial tile, and recomputes
// only the dirty tiles plus each convolution's receptive-field halo through
// the conv stack (Layer::propagate_dirty_region / forward_delta). The result
// is BITWISE identical to a full forward pass at the same subnet level:
//  * a conv output position whose receptive field reads only clean input
//    keeps its cached bits (they ARE what a full pass would produce);
//  * recomputed positions are lowered with im2col_region, whose columns are
//    byte-identical to the full im2col's, and every GEMM output element's FP
//    op sequence folds over its own column only (tensor/gemm_kernel.h), so
//    the spliced values match the full pass bit for bit;
//  * after the splice every downstream layer's input is exact, so layers
//    without a delta path simply run their plain forward.
//
// Invalidation mirrors the packed-weight cache's versioned idiom
// (tensor/gemm_pack_cache.h): a stream state remembers the network signature
// (every Param::version, bumped by optimizer steps and deserialization) and
// the config generation it was built under; any mismatch drops the state and
// rebuilds cold. Network::clone() copies versions verbatim, so all serve
// replicas share one signature and stream state migrates freely across
// workers.
//
// Env surface:
//   STEPPING_STREAM          off (default) | exact — master switch (serve)
//   STEPPING_STREAM_TILE     tile edge in pixels for frame diffing (8)
//   STEPPING_STREAM_STREAMS  LRU capacity in streams (64)
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "nn/network.h"

namespace stepping::stream {

struct StreamConfig {
  /// Master switch; "exact" is the only delta mode (approximate modes would
  /// break the bitwise contract and are deliberately not offered).
  bool enabled = false;
  /// Tile edge in pixels for the per-tile frame fingerprint.
  int tile = 8;
  /// Maximum number of streams the state cache retains (LRU beyond this).
  int capacity = 64;
};

/// Resolve {STEPPING_STREAM, STEPPING_STREAM_TILE, STEPPING_STREAM_STREAMS}.
StreamConfig stream_config_from_env();

/// Version vector of every parameter in wiring order — the invalidation
/// signature for cached stream state. Any SGD step or deserialization bumps
/// at least one Param::version, changing the signature; clone() copies
/// versions verbatim, so replicas of one model agree.
std::vector<std::uint64_t> network_signature(Network& net);

/// Per-tile fingerprints (util/fingerprint.h) of a (N, C, H, W) frame: one
/// 64-bit hash per spatial tile, folded across all images and channels.
/// Grid is ceil(H/tile) x ceil(W/tile), row-major.
void tile_fingerprints(const Tensor& x, int tile,
                       std::vector<std::uint64_t>& grid);

/// Cached ladder state of one stream: the previous frame's per-layer
/// post-activation tensors at `level`, plus the tile fingerprint grid used
/// to diff the next frame against. Guarded by `mu` — one frame of one
/// stream executes at a time; different streams proceed concurrently.
struct StreamState {
  std::mutex mu;
  std::vector<int> in_shape;            ///< frame shape the state matches
  std::vector<std::uint64_t> tiles;     ///< per-tile fingerprint grid
  std::vector<std::uint64_t> signature; ///< network_signature at build time
  int tile = 0;                         ///< tile size the grid was built with
  int level = 0;                        ///< cached subnet level (0 = empty)
  std::vector<Tensor> layer_outputs;    ///< one per layer, post-activation
  Tensor logits;                        ///< previous frame's output
  std::uint64_t frames = 0;             ///< frames processed on this stream
};

/// Keyed, lock-striped LRU over stream ids (generalizes the packed-weight
/// cache's keyed retention to whole activation ladders). acquire() returns a
/// shared_ptr so an evicted state stays alive for the frame currently using
/// it; eviction only drops the cache's reference.
class StreamStateCache {
 public:
  explicit StreamStateCache(int capacity);

  /// Look up (and LRU-touch) the state for `stream_id`, creating an empty
  /// one on miss. `hit` reports whether the state already existed.
  std::shared_ptr<StreamState> acquire(std::uint64_t stream_id, bool* hit);

  /// Drop all cached states (tests; config changes).
  void clear();

  std::int64_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, std::shared_ptr<StreamState>>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };
  static constexpr int kShards = 8;

  Shard& shard_of(std::uint64_t id) { return shards_[id % kShards]; }

  Shard shards_[kShards];
  int shard_capacity_;  ///< capacity split evenly across shards (min 1)
  mutable std::mutex stats_mu_;
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

/// Outcome of one streamed frame.
struct StreamResult {
  Tensor logits;
  /// Analytic MACs actually executed for this frame.
  std::int64_t macs = 0;
  /// MACs a from-scratch evaluation at `level` would execute.
  std::int64_t full_macs = 0;
  /// Tiles whose fingerprint changed vs the previous frame (0 on cold).
  int dirty_tiles = 0;
  /// Total tiles in the fingerprint grid.
  int total_tiles = 0;
  /// True when no previous-frame state could be reused (first frame, shape
  /// or signature change, level step-down).
  bool cold = false;
  /// Subnet level the logits correspond to.
  int level = 0;
};

/// Evaluate subnet `level` on frame `x` for the stream whose state is `st`,
/// reusing the previous frame's ladder where the dirty-region analysis
/// proves reuse exact, and update `st` to describe this frame. `signature`
/// must be network_signature(net) (callers amortize it across frames).
/// Caller holds st.mu. Bitwise identical to a cold forward at `level`.
StreamResult stream_delta_forward(Network& net, StreamState& st,
                                  const Tensor& x, int level,
                                  const StreamConfig& cfg,
                                  const std::vector<std::uint64_t>& signature);

}  // namespace stepping::stream
