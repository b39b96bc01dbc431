// The repository benchmark: four seeded workloads driven through the public
// API of the SteppingNet library, every output checked bitwise, metrics
// printed by name and unit. See README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//   perfbench --make-fixture PATH
//       Train the model fixture once (fixed seed) and save it to PATH.
//   perfbench --fixture PATH --workload W --seed N --seconds S --trace 0|1
//       Run one workload. The last stdout line is the result JSON.
//
// run.py builds this program, makes the fixture once per build and pins the
// environment (STEPPING_THREADS=1, no other STEPPING_* knobs) before running
// it; the program itself only reads the flags above.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/any_width.h"
#include "core/incremental.h"
#include "core/latency.h"
#include "core/serialize.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "stats.h"
#include "tensor/gemm_isa.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using stepping::Network;
using stepping::Rng;
using stepping::Tensor;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed configuration. Everything a run varies comes from --seed.
// ---------------------------------------------------------------------------

constexpr const char* kModel = "lenet3c1l";
constexpr double kWidth = 0.25;
constexpr int kSubnets = 4;
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 11;
/// Ladder climbs / requests that warm a fresh executor or server.
constexpr int kWarmup = 16;
/// Labelled test images per class; the traffic draws from all of them.
constexpr int kTestPerClass = 16;
/// Size of that pool (10 classes). Accuracy is taken over the first pass
/// through it, so it does not depend on the seed.
constexpr int kPool = 10 * kTestPerClass;
/// The typical latency is reported at this percentile, not the median: on a
/// shared host a batch-1 forward alternates every few seconds between a fast
/// and a slow state, a run's median lands in whichever held more than half
/// of it, and the median then jumps by a third between seeds. The slow state
/// fills more than a quarter of a 30 s run, so p75 reads it and stays put.
constexpr double kCentral = 0.75;
/// Latency tails are medians over this many consecutive slices of a run
/// (stats.h, sliced_quantile).
constexpr std::size_t kSlices = 9;
/// Iterations of the ladder and stream loops run after the window of a
/// workload that does not make step_overhead_x or delta_vs_full_x itself.
/// A stream frame is a hand-off to a serve worker, whose wake-up time varies
/// with the host from second to second, so that loop runs longer.
constexpr int kLadderRatioPairs = 500;
constexpr int kStreamRatioFrames = 2000;
/// Dataset of the fixture; fixed so every build trains the same model.
constexpr std::uint64_t kDataSeed = 42;
constexpr int kTrainPerClass = 100;
constexpr int kTrainEpochs = 3;

/// serve_open traffic: Poisson arrivals at a fixed rate with a seeded mix of
/// deadlines (absolute milliseconds, relative to when a request is due).
constexpr double kOpenRate = 200.0;
constexpr double kTightMs = 2.5;
constexpr double kMediumMs = 6.0;
constexpr double kTightShare = 0.3;
constexpr double kMediumShare = 0.3;

/// stream_drift traffic: streams served round robin; a sprite moves 1 px a
/// frame and a scene cut every kCutEvery frames (seeded phase) swaps the
/// whole image and opens a new stream id, so the server rebuilds it cold.
constexpr int kStreams = 4;
constexpr int kSprite = 6;
constexpr int kCutEvery = 10;

/// serve_wire: closed-loop loopback connections.
constexpr int kWireConns = 2;

struct Workload {
  const char* name;
  /// Tail percentile reported as *_tail. It keeps at least ten samples
  /// beyond it in each of the kSlices slices of a run at this workload's
  /// request rate; p95 where that allows, p75 on the slow wire.
  double tail_q;
};
constexpr Workload kWorkloads[] = {
    {"ladder", 0.95},
    {"serve_open", 0.95},
    {"stream_drift", 0.95},
    {"serve_wire", 0.75},
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

stepping::ModelConfig model_config() {
  stepping::ModelConfig mc;
  mc.classes = 10;
  mc.expansion = 1.8;
  mc.width_mult = kWidth;
  mc.seed = 49;
  return mc;
}

/// The fixture's synthetic dataset. The class prototypes depend only on the
/// seed, so make_dataset(1).test holds fresh labelled samples of the classes
/// the fixture was trained on, with a token training split (a split may not
/// be empty) instead of the 1000 training images.
stepping::DataSplit make_dataset(int train_per_class) {
  return stepping::make_synthetic(
      stepping::synth_cifar10(train_per_class, kTestPerClass, kDataSeed));
}

stepping::SubnetContext ctx_at(int level) {
  stepping::SubnetContext ctx;
  ctx.subnet_id = level;
  ctx.num_subnets = kSubnets;
  ctx.training = false;
  return ctx;
}

Tensor forward_at(Network& net, const Tensor& x, int level) {
  return net.forward(x, ctx_at(level));
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const std::vector<float>& b) {
  return static_cast<std::size_t>(a.numel()) == b.size() &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(float)) == 0;
}

int argmax(const float* v, std::size_t n) {
  return static_cast<int>(std::max_element(v, v + n) - v);
}

Network load_model(const std::string& path) {
  Network net = stepping::build_model(kModel, model_config());
  if (!stepping::load_network(net, path)) {
    throw std::runtime_error("cannot read fixture " + path);
  }
  return net;
}

// ---------------------------------------------------------------------------
// Fixture: the model is trained once per build, outside every timed region.
// ---------------------------------------------------------------------------

int make_fixture(const std::string& path) {
  const stepping::DataSplit data = make_dataset(kTrainPerClass);
  stepping::AnyWidthConfig cfg;
  cfg.num_subnets = kSubnets;
  cfg.mac_budget_frac = {0.2, 0.4, 0.6, 0.8};
  stepping::AnyWidthNet net(stepping::build_model(kModel, model_config()), cfg,
                            kDataSeed);
  net.configure();
  net.train(data.train, kTrainEpochs, 32);
  for (int l = 1; l <= kSubnets; ++l) {
    std::fprintf(stderr, "fixture: L%d accuracy %.4f macs %lld\n", l,
                 net.accuracy(data.test, l),
                 static_cast<long long>(net.macs(l)));
  }
  const std::string tmp = path + ".tmp";
  if (!stepping::save_network(net.network(), tmp) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "fixture: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Seeded inputs. The program only ever sees these tensors.
// ---------------------------------------------------------------------------

struct Pool {
  std::vector<Tensor> images;  ///< (1, C, H, W) each
  std::vector<int> labels;
};

/// kPool labelled test images, kTestPerClass of each class, in a seeded
/// order.
Pool make_pool(std::uint64_t seed) {
  const stepping::DataSplit data = make_dataset(1);
  const stepping::Dataset& test = data.test;
  std::vector<int> order(static_cast<std::size_t>(kPool));
  for (int i = 0; i < kPool; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  rng.shuffle(order);
  Pool pool;
  std::vector<int> y;
  for (int i : order) {
    Tensor x;
    test.batch(i, 1, x, y);
    pool.images.push_back(std::move(x));
    pool.labels.push_back(y[0]);
  }
  return pool;
}

/// What a drifting stream produced for one frame.
struct Frame {
  Tensor image;
  int label = 0;
  /// Scene cuts are numbered across all streams that share a counter; cut
  /// k shows pool image k (mod the pool), so the first kPool cuts cover the
  /// pool once.
  bool cut = false;
  std::size_t cut_index = 0;
  /// Scene cuts this stream has had; each scene is served as its own stream
  /// id, so a cut finds no cached state.
  std::uint64_t scene = 0;
};

/// One stream of frames. A scene cut shows a clean pool image; the frames
/// after it carry a sprite cut from another image, moving 1 px a frame along
/// a seeded random walk. Cuts come every kCutEvery frames (seeded phase).
class DriftStream {
 public:
  DriftStream(const Pool& pool, std::uint64_t seed, std::size_t* cuts)
      : pool_(pool), rng_(seed), cuts_(cuts) {
    phase_ = static_cast<int>(rng_.next_below(kCutEvery));
  }

  Frame next() {
    Frame f;
    f.cut = frames_ == 0 || (frames_ + phase_) % kCutEvery == 0;
    if (f.cut) {
      f.cut_index = (*cuts_)++;
      cut(f.cut_index);
      ++scene_;
    } else {
      step();
    }
    f.scene = scene_;
    ++frames_;
    f.image = pool_.images[base_];
    f.label = pool_.labels[base_];
    if (f.cut) return f;
    const Tensor& sprite = pool_.images[sprite_];
    for (int c = 0; c < f.image.dim(1); ++c) {
      for (int y = 0; y < kSprite; ++y) {
        for (int x = 0; x < kSprite; ++x) {
          f.image.at(0, c, py_ + y, px_ + x) = sprite.at(0, c, sy_ + y, sx_ + x);
        }
      }
    }
    return f;
  }

 private:
  int span() const { return pool_.images[0].dim(2) - kSprite; }
  void cut(std::size_t index) {
    base_ = index % pool_.images.size();
    sprite_ = rng_.next_below(pool_.images.size());
    sy_ = rng_.uniform_int(0, span());
    sx_ = rng_.uniform_int(0, span());
    py_ = rng_.uniform_int(0, span());
    px_ = rng_.uniform_int(0, span());
    turn();
  }
  void turn() {
    static constexpr int kDirs[4][2] = {{0, 1}, {1, 0}, {0, -1}, {-1, 0}};
    const int d = rng_.uniform_int(0, 3);
    dy_ = kDirs[d][0];
    dx_ = kDirs[d][1];
  }
  void step() {
    if (rng_.bernoulli(0.2)) turn();
    if (py_ + dy_ < 0 || py_ + dy_ > span()) dy_ = -dy_;
    if (px_ + dx_ < 0 || px_ + dx_ > span()) dx_ = -dx_;
    py_ += dy_;
    px_ += dx_;
  }

  const Pool& pool_;
  Rng rng_;
  std::size_t* cuts_;
  std::size_t base_ = 0, sprite_ = 0;
  int phase_ = 0;
  int frames_ = 0;
  std::uint64_t scene_ = 0;
  int sy_ = 0, sx_ = 0, py_ = 0, px_ = 0, dy_ = 0, dx_ = 1;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric of the traced run, in print order. A layer the
/// workload does not use reads 0 (see README.md).
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
constexpr LayerMetricDef kLayerMetrics[] = {
    {"tensor.im2col_us.L1", "us"},      {"tensor.gemm_us.L1", "us"},
    {"tensor.maxpool_us.L1", "us"},     {"tensor.relu_us.L1", "us"},
    {"tensor.im2col_bytes.L1", "bytes"}, {"tensor.gemm_flops.L1", "FLOP"},
    {"tensor.im2col_us.L4", "us"},      {"tensor.gemm_us.L4", "us"},
    {"tensor.maxpool_us.L4", "us"},     {"tensor.relu_us.L4", "us"},
    {"tensor.im2col_bytes.L4", "bytes"}, {"tensor.gemm_flops.L4", "FLOP"},
    {"nn.forward_us.L1", "us"},         {"nn.forward_us.L2", "us"},
    {"nn.forward_us.L3", "us"},         {"nn.forward_us.L4", "us"},
    {"nn.c1_us.L1", "us"},              {"nn.c2_us.L1", "us"},
    {"nn.c3_us.L1", "us"},              {"nn.c1_us.L4", "us"},
    {"nn.c2_us.L4", "us"},              {"nn.c3_us.L4", "us"},
    {"nn.pool_us.L4", "us"},            {"nn.fc_us.L4", "us"},
    {"nn.l1_vs_top_x", "x"},            {"core.step_us.1-2", "us"},
    {"core.step_us.2-3", "us"},         {"core.step_us.3-4", "us"},
    {"core.step_macs.1-2", "MAC"},      {"core.step_macs.2-3", "MAC"},
    {"core.step_macs.3-4", "MAC"},      {"core.reuse_mac_ratio", "x"},
    {"serve.queue_ms_p50", "ms"},       {"serve.queue_ms_tail", "ms"},
    {"serve.pass_occupancy", "rows"},   {"serve.passes", "count"},
    {"serve.exit_share.L1", "ratio"},   {"serve.exit_share.L2", "ratio"},
    {"serve.exit_share.L3", "ratio"},   {"serve.exit_share.L4", "ratio"},
    {"serve.admit_rejected", "count"},  {"serve.plan_error_ratio_p50", "x"},
    {"load.gen_late_ms_p99", "ms"},    {"stream.dirty_tile_ratio", "ratio"},
    {"stream.cache_hit_ratio", "ratio"}, {"stream.cold_frame_share", "ratio"},
    {"stream.macs_per_frame", "MAC"},   {"stream.delta_us_p50", "us"},
    {"stream.full_us_p50", "us"},       {"wire.overhead_ms_p50", "ms"},
    {"wire.encode_us", "us"},           {"wire.decode_us", "us"},
    {"wire.bytes_per_request", "bytes"}, {"trace.overhead_ms", "ms"},
};

using LayerValues = std::map<std::string, double>;

/// What one workload window measured, before it becomes metrics.
struct Window {
  std::vector<double> first_ms, final_ms;  ///< per answered request
  std::size_t attempted = 0, mismatched = 0, refused = 0, errored = 0;
  DeadlineTally deadlines;
  double exit_sum = 0.0;
  std::size_t exits = 0;
  std::size_t acc_hits = 0, acc_total = 0;
  /// Concurrent clients of a closed loop; 0 marks the open loop, whose
  /// throughput is completions over the schedule's span.
  int clients = 1;
  double open_span_s = 0.0;
  /// Back-to-back pairs for the two ratio metrics, when this workload makes
  /// them in its main loop.
  std::vector<double> ladder_ms, direct_ms, frame_ms, full_ms;
  /// Per-layer data collected live.
  std::vector<double> step_ms[kSubnets - 1];
  std::vector<double> wire_overhead_ms;
  std::vector<double> gen_late_ms;
  LayerValues layer;  ///< per-layer values measured on this window

  void count_accuracy(std::size_t request_index, const float* logits,
                      std::size_t n, int label) {
    if (request_index >= static_cast<std::size_t>(kPool)) return;
    ++acc_total;
    if (argmax(logits, n) == label) ++acc_hits;
  }
  void answered_exit(int level) {
    exit_sum += level;
    ++exits;
  }
  std::size_t failed() const { return mismatched + refused + errored; }
};

/// Reference logits of a direct Network::forward, memoized per (image,
/// level) so verification of a long run stays cheap.
class References {
 public:
  References(Network& net, const Pool& pool) : net_(net), pool_(pool) {}
  const Tensor& at(std::size_t image, int level) {
    const auto key = std::make_pair(image, level);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, forward_at(net_, pool_.images[image], level)).first;
    }
    return it->second;
  }

 private:
  Network& net_;
  const Pool& pool_;
  std::map<std::pair<std::size_t, int>, Tensor> memo_;
};

template <typename Make>
double median_setup_s(Make make) {
  std::vector<double> s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    auto held = make();
    s.push_back(ms_between(t0, Clock::now()) / 1e3);
    // Teardown (held's destructor) is not set-up.
  }
  return quantile(s, 0.5);
}

// ---------------------------------------------------------------------------
// ladder: one client, batch 1, no server. Each image climbs L1 -> LN through
// IncrementalExecutor, back to back with a direct LN forward.
// ---------------------------------------------------------------------------

struct LadderTimes {
  double first_ms, final_ms, direct_ms;
  double step_ms[kSubnets - 1];
  Tensor logits[kSubnets];
  Tensor direct;
};

/// One climb and one direct forward of the same input. `direct_first`
/// alternates the order so cache warmth favours neither side.
LadderTimes ladder_pair(stepping::IncrementalExecutor& ex, Network& direct,
                        const Tensor& x, bool direct_first) {
  LadderTimes t{};
  auto run_direct = [&] {
    const auto d0 = Clock::now();
    t.direct = forward_at(direct, x, kSubnets);
    t.direct_ms = ms_between(d0, Clock::now());
  };
  if (direct_first) run_direct();
  const auto t0 = Clock::now();
  Clock::time_point prev = t0;
  for (int l = 1; l <= kSubnets; ++l) {
    t.logits[l - 1] = ex.run(x, l);
    const auto now = Clock::now();
    if (l == 1) t.first_ms = ms_between(t0, now);
    else t.step_ms[l - 2] = ms_between(prev, now);
    prev = now;
  }
  t.final_ms = ms_between(t0, prev);
  if (!direct_first) run_direct();
  return t;
}

struct LadderRig {
  Network net;
  stepping::IncrementalExecutor ex;
  explicit LadderRig(Network n) : net(std::move(n)), ex(net) {}
};

std::unique_ptr<LadderRig> make_ladder_rig(const std::string& fixture,
                                           const Pool& pool) {
  auto rig = std::make_unique<LadderRig>(load_model(fixture));
  for (int i = 0; i < kWarmup; ++i) {
    const Tensor& x = pool.images[static_cast<std::size_t>(i) % pool.images.size()];
    for (int l = 1; l <= kSubnets; ++l) rig->ex.run(x, l);
  }
  return rig;
}

/// Loop conditions of the workload loops: run for a time, or a fixed count.
auto for_seconds(double seconds) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  return [end](std::size_t) { return Clock::now() < end; };
}
auto count_of(std::size_t n) {
  return [n](std::size_t i) { return i < n; };
}

/// Climbs pool images in order while more(i) holds.
template <typename More>
void drive_ladder(LadderRig& rig, Network& direct, const Pool& pool,
                  bool traced, More more, Window& w) {
  for (std::size_t i = 0; more(i); ++i) {
    const std::size_t img = i % pool.images.size();
    const Tensor& x = pool.images[img];
    LadderTimes t = ladder_pair(rig.ex, direct, x, i % 2 == 1);
    ++w.attempted;
    w.first_ms.push_back(t.first_ms);
    w.final_ms.push_back(t.final_ms);
    w.ladder_ms.push_back(t.final_ms);
    w.direct_ms.push_back(t.direct_ms);
    if (traced) {
      for (int s = 0; s < kSubnets - 1; ++s) w.step_ms[s].push_back(t.step_ms[s]);
    }
    // Verification, outside the timed region: every rung against a direct
    // forward at its level.
    bool ok = same_bits(t.logits[kSubnets - 1], t.direct);
    for (int l = 1; l < kSubnets && ok; ++l) {
      ok = same_bits(t.logits[l - 1], forward_at(direct, x, l));
    }
    if (!ok) ++w.mismatched;
    w.deadlines.answered(true);
    w.answered_exit(kSubnets);
    const Tensor& final_logits = t.logits[kSubnets - 1];
    w.count_accuracy(i, final_logits.data(),
                     static_cast<std::size_t>(final_logits.numel()),
                     pool.labels[img]);
  }
}

Window run_ladder(const std::string& fixture, const Pool& pool, double seconds,
                  bool traced, double* setup_s) {
  *setup_s = median_setup_s([&] { return make_ladder_rig(fixture, pool); });
  auto rig = make_ladder_rig(fixture, pool);
  Network direct = rig->net.clone();
  Window w;
  drive_ladder(*rig, direct, pool, traced, for_seconds(seconds), w);
  return w;
}

// ---------------------------------------------------------------------------
// Served workloads share the server set-up.
// ---------------------------------------------------------------------------

struct ServeRig {
  Network model;
  std::unique_ptr<stepping::serve::Server> server;
};

std::unique_ptr<ServeRig> make_serve_rig(const std::string& fixture,
                                         const Pool& pool, bool stream) {
  auto rig = std::make_unique<ServeRig>();
  rig->model = load_model(fixture);
  stepping::serve::ServeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.max_subnet = kSubnets;
  cfg.reform = 1;
  cfg.admit = stepping::serve::AdmitPolicy::kOff;
  cfg.stream = stream ? 1 : 0;
  cfg.device = stepping::calibrate_device(rig->model, kSubnets);
  rig->server = std::make_unique<stepping::serve::Server>(rig->model, cfg);
  for (int i = 0; i < kWarmup; ++i) {
    stepping::serve::Request req;
    req.input = pool.images[static_cast<std::size_t>(i) % pool.images.size()];
    rig->server->serve(std::move(req));
  }
  return rig;
}

/// Serve-layer counters of a finished window (per-layer metrics).
void collect_serve_layer(const stepping::serve::Server& server, double tail_q,
                         Window& w) {
  const stepping::serve::CounterSnapshot c = server.counters();
  auto& reg = server.metrics();
  const stepping::obs::Histogram& q = reg.histogram("serve_queue_ms");
  w.layer["serve.queue_ms_p50"] = q.quantile(0.5);
  w.layer["serve.queue_ms_tail"] = q.quantile(tail_q);
  w.layer["serve.pass_occupancy"] = c.pass_occupancy();
  w.layer["serve.passes"] = static_cast<double>(c.passes);
  double exits = 0.0;
  for (std::uint64_t e : c.exits_per_subnet) exits += static_cast<double>(e);
  for (int l = 1; l <= kSubnets; ++l) {
    const auto i = static_cast<std::size_t>(l - 1);  // index 0 is level 1
    const double e = i < c.exits_per_subnet.size()
                         ? static_cast<double>(c.exits_per_subnet[i])
                         : 0.0;
    w.layer["serve.exit_share.L" + std::to_string(l)] = exits > 0 ? e / exits : 0.0;
  }
  w.layer["serve.admit_rejected"] = static_cast<double>(c.admit_rejected);
  std::vector<double> plan;
  for (int l = 1; l <= kSubnets; ++l) {
    const stepping::obs::Histogram& h =
        reg.histogram("serve_plan_error_ratio_subnet_" + std::to_string(l));
    if (h.count() > 0) plan.push_back(h.quantile(0.5));
  }
  w.layer["serve.plan_error_ratio_p50"] = quantile(plan, 0.5);
}

// ---------------------------------------------------------------------------
// serve_open: in-process open loop at a fixed Poisson rate.
// ---------------------------------------------------------------------------

struct Arrival {
  double due_ms;
  std::size_t image;
  double deadline_ms;  ///< <= 0: none
};

std::vector<Arrival> open_schedule(std::uint64_t seed, double seconds,
                                   std::size_t pool) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  std::vector<Arrival> s;
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) / kOpenRate * 1e3;
    if (t >= seconds * 1e3) break;
    const double u = rng.uniform();
    const double deadline = u < kTightShare                  ? kTightMs
                            : u < kTightShare + kMediumShare ? kMediumMs
                                                             : 0.0;
    s.push_back({t, i % pool, deadline});
  }
  return s;
}

Window run_serve_open(const std::string& fixture, const Pool& pool,
                      std::uint64_t seed, double seconds, double tail_q,
                      double* setup_s) {
  *setup_s =
      median_setup_s([&] { return make_serve_rig(fixture, pool, false); });
  auto rig = make_serve_rig(fixture, pool, false);
  const std::vector<Arrival> sched = open_schedule(seed, seconds, pool.images.size());

  struct Slot {
    std::atomic<double> first_at{-1.0}, final_at{-1.0};
  };
  auto slots = std::make_unique<Slot[]>(sched.size());
  std::vector<std::future<stepping::serve::ServedResult>> futures(sched.size());
  std::vector<bool> submitted(sched.size(), false);

  Window w;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Arrival& a = sched[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(a.due_ms)));
    stepping::serve::Request req;
    req.input = pool.images[a.image];
    req.deadline_ms = a.deadline_ms;
    Slot* slot = &slots[i];
    req.on_step = [slot, start](const stepping::serve::StepUpdate& u) {
      const double at = ms_between(start, Clock::now());
      double unset = -1.0;
      slot->first_at.compare_exchange_strong(unset, at);
      if (u.final) slot->final_at.store(at);
    };
    w.gen_late_ms.push_back(ms_between(start, Clock::now()) - a.due_ms);
    try {
      futures[i] = rig->server->submit(std::move(req));
      submitted[i] = true;
    } catch (const std::exception&) {
      // Counted as refused below.
    }
  }

  Network checker = rig->model.clone();
  References check_refs(checker, pool);
  std::vector<stepping::serve::ServedResult> results(sched.size());
  std::vector<int> state(sched.size(), 0);  // 0 refused, 1 ok, 2 errored
  double last_ms = 0.0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (!submitted[i]) continue;
    try {
      results[i] = futures[i].get();
      state[i] = 1;
    } catch (const std::runtime_error&) {
      state[i] = 0;
    } catch (const std::exception&) {
      state[i] = 2;
    }
  }
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Arrival& a = sched[i];
    ++w.attempted;
    if (state[i] != 1) {
      if (state[i] == 0) ++w.refused;
      else ++w.errored;
      w.deadlines.refused();
      continue;
    }
    const stepping::serve::ServedResult& r = results[i];
    const double first = due_latency_ms(a.due_ms, slots[i].first_at.load());
    const double fin = due_latency_ms(a.due_ms, slots[i].final_at.load());
    last_ms = std::max(last_ms, slots[i].final_at.load());
    w.first_ms.push_back(first);
    w.final_ms.push_back(fin);
    w.deadlines.answered(a.deadline_ms <= 0.0 || first <= a.deadline_ms);
    w.answered_exit(r.exit_subnet);
    if (!same_bits(r.logits, check_refs.at(a.image, r.exit_subnet))) {
      ++w.mismatched;
    }
    w.count_accuracy(i, r.logits.data(),
                     static_cast<std::size_t>(r.logits.numel()),
                     pool.labels[a.image]);
  }
  w.clients = 0;
  w.open_span_s = (last_ms - (sched.empty() ? 0.0 : sched.front().due_ms)) / 1e3;
  collect_serve_layer(*rig->server, tail_q, w);
  return w;
}

// ---------------------------------------------------------------------------
// stream_drift: kStreams streams round robin through Server (stream=1), one
// frame at a time, each frame back to back with a full forward.
// ---------------------------------------------------------------------------

/// Serves frames of kStreams drifting streams round robin while more(i)
/// holds. `rig` must serve with stream=1.
template <typename More>
void drive_streams(ServeRig& rig, Network& direct, const Pool& pool,
                   std::uint64_t seed, More more, Window& w) {
  std::size_t cuts = 0;
  std::vector<DriftStream> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back(
        pool, seed * 0x94d049bb133111ebULL + 3 + static_cast<std::uint64_t>(s),
        &cuts);
  }

  for (std::size_t i = 0; more(i); ++i) {
    const int s = static_cast<int>(i % kStreams);
    const Frame f = streams[static_cast<std::size_t>(s)].next();
    const Tensor& frame = f.image;
    const bool direct_first = (i / kStreams) % 2 == 1;
    Tensor full;
    double full_ms = 0.0;
    auto run_full = [&] {
      const auto d0 = Clock::now();
      full = forward_at(direct, frame, kSubnets);
      full_ms = ms_between(d0, Clock::now());
    };
    if (direct_first) run_full();

    stepping::serve::Request req;
    req.input = frame;
    req.stream_id = 1 + static_cast<std::uint64_t>(s) + kStreams * f.scene;
    std::atomic<std::int64_t> done_ns{0};
    req.on_step = [&done_ns](const stepping::serve::StepUpdate& u) {
      if (u.final) {
        done_ns.store(Clock::now().time_since_epoch().count());
      }
    };
    const auto t0 = Clock::now();
    stepping::serve::ServedResult r;
    ++w.attempted;
    try {
      r = rig.server->submit(std::move(req)).get();
    } catch (const std::runtime_error&) {
      ++w.refused;
      w.deadlines.refused();
      continue;
    } catch (const std::exception&) {
      ++w.errored;
      w.deadlines.refused();
      continue;
    }
    const double frame_ms =
        ms_between(t0, Clock::time_point(Clock::duration(done_ns.load())));
    if (!direct_first) run_full();

    w.first_ms.push_back(frame_ms);  // a frame has one answer
    w.final_ms.push_back(frame_ms);
    w.frame_ms.push_back(frame_ms);
    w.full_ms.push_back(full_ms);
    w.deadlines.answered(true);
    w.answered_exit(r.exit_subnet);
    const Tensor& ref = r.exit_subnet == kSubnets
                            ? full
                            : forward_at(direct, frame, r.exit_subnet);
    if (!same_bits(r.logits, ref)) ++w.mismatched;
    // Accuracy over the clean frame of each of the first kPool cuts.
    if (f.cut) {
      w.count_accuracy(f.cut_index, r.logits.data(),
                       static_cast<std::size_t>(r.logits.numel()), f.label);
    }
  }
}

/// Stream-layer counters of a stream-enabled server (per-layer metrics).
/// Tiles are 8 px, so a 32x32 frame diffs 16.
void collect_stream_layer(const stepping::serve::Server& server, Network& net,
                          LayerValues& out) {
  auto& reg = server.metrics();
  auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double frames = count("serve_stream_frames_total");
  const double lookups = count("serve_stream_cache_hits_total") +
                         count("serve_stream_cache_misses_total");
  const double full_macs =
      static_cast<double>(stepping::ladder_step_macs(net, 0, kSubnets));
  if (frames > 0 && lookups > 0) {
    out["stream.dirty_tile_ratio"] =
        count("serve_stream_dirty_tiles_total") / (frames * 16.0);
    out["stream.cache_hit_ratio"] =
        count("serve_stream_cache_hits_total") / lookups;
    out["stream.cold_frame_share"] = count("serve_stream_cold_total") / frames;
    out["stream.macs_per_frame"] =
        full_macs - count("serve_stream_macs_saved_total") / frames;
  }
}

Window run_stream_drift(const std::string& fixture, const Pool& pool,
                        std::uint64_t seed, double seconds, double tail_q,
                        double* setup_s) {
  *setup_s = median_setup_s([&] { return make_serve_rig(fixture, pool, true); });
  auto rig = make_serve_rig(fixture, pool, true);
  Network direct = rig->model.clone();
  Window w;
  drive_streams(*rig, direct, pool, seed, for_seconds(seconds), w);
  collect_serve_layer(*rig->server, tail_q, w);
  collect_stream_layer(*rig->server, direct, w.layer);
  return w;
}

// ---------------------------------------------------------------------------
// serve_wire: closed-loop loopback connections through TcpServer/TcpClient.
// ---------------------------------------------------------------------------

struct WireRig {
  std::unique_ptr<ServeRig> serve;
  std::unique_ptr<stepping::serve::TcpServer> tcp;
  std::thread accept_loop;
  ~WireRig() {
    if (tcp) tcp->stop();
    if (accept_loop.joinable()) accept_loop.join();
  }
};

std::unique_ptr<WireRig> make_wire_rig(const std::string& fixture,
                                       const Pool& pool) {
  auto rig = std::make_unique<WireRig>();
  rig->serve = make_serve_rig(fixture, pool, false);
  rig->tcp = std::make_unique<stepping::serve::TcpServer>(*rig->serve->server, 0);
  stepping::serve::TcpServer* tcp = rig->tcp.get();
  rig->accept_loop = std::thread([tcp] { tcp->run(); });
  return rig;
}

Window run_serve_wire(const std::string& fixture, const Pool& pool,
                      double seconds, double tail_q, double* setup_s) {
  *setup_s = median_setup_s([&] { return make_wire_rig(fixture, pool); });
  auto rig = make_wire_rig(fixture, pool);

  struct Reply {
    std::size_t image;
    double rtt_ms;
    bool ok;
    stepping::serve::WireReply wire;
  };
  std::vector<std::vector<Reply>> per_conn(kWireConns);
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kWireConns; ++c) {
      clients.emplace_back([&, c] {
        auto& replies = per_conn[static_cast<std::size_t>(c)];
        try {
          stepping::serve::TcpClient client(rig->tcp->port());
          for (std::size_t k = 0; Clock::now() < end; ++k) {
            // Connections interleave over the pool: c, c+K, c+2K, ...
            const std::size_t img = (k * kWireConns + static_cast<std::size_t>(c)) %
                                    pool.images.size();
            Reply r{img, 0.0, false, {}};
            const auto t0 = Clock::now();
            r.ok = client.infer(pool.images[img], 0.0, 0, r.wire);
            r.rtt_ms = ms_between(t0, Clock::now());
            replies.push_back(std::move(r));
          }
        } catch (const std::exception&) {
          replies.push_back(Reply{0, 0.0, false, {}});  // could not connect
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  Window w;
  Network checker = rig->serve->model.clone();
  References refs(checker, pool);
  // Merge in request order (k-th request of each connection in turn), so
  // the accuracy pass covers the pool once.
  std::size_t longest = 0;
  for (const auto& v : per_conn) longest = std::max(longest, v.size());
  std::size_t index = 0;
  for (std::size_t k = 0; k < longest; ++k) {
    for (int c = 0; c < kWireConns; ++c) {
      const auto& v = per_conn[static_cast<std::size_t>(c)];
      if (k >= v.size()) continue;
      const Reply& r = v[k];
      ++w.attempted;
      if (!r.ok) {
        ++w.errored;
        w.deadlines.refused();
        ++index;
        continue;
      }
      // Only the final reply crosses the wire, so the client's first
      // answer is its final answer.
      w.first_ms.push_back(r.rtt_ms);
      w.final_ms.push_back(r.rtt_ms);
      w.wire_overhead_ms.push_back(r.rtt_ms - r.wire.final_ms);
      w.deadlines.answered(true);
      const int level = static_cast<int>(r.wire.exit_subnet);
      w.answered_exit(level);
      if (level < 1 || level > kSubnets ||
          !same_bits(refs.at(r.image, level), r.wire.logits)) {
        ++w.mismatched;
      }
      w.count_accuracy(index++, r.wire.logits.data(), r.wire.logits.size(),
                       pool.labels[r.image]);
    }
  }
  w.clients = kWireConns;
  collect_serve_layer(*rig->serve->server, tail_q, w);
  return w;
}

// ---------------------------------------------------------------------------
// Per-layer probes of the traced run. They run after the main window.
// ---------------------------------------------------------------------------

/// Median of `reps` timings of fn(), in microseconds.
double median_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return quantile(us, 0.5);
}

int active_units(const stepping::Assignment& a, int level) {
  return static_cast<int>(
      std::count_if(a.begin(), a.end(), [level](int s) { return s <= level; }));
}

/// tensor layer: the ops.h kernels called with each body conv's shapes at L1
/// and LN (active input and output channels), summed over the convs. Bytes
/// and FLOPs are computed from the shapes.
void probe_tensor(Network& net, LayerValues& out) {
  constexpr int kReps = 200;
  Rng rng(5);
  for (int level : {1, kSubnets}) {
    double im2col_us = 0, gemm_us = 0, pool_us = 0, relu_us = 0;
    double bytes = 0, flops = 0;
    for (const auto& layer : net.layers()) {
      const auto* conv = dynamic_cast<const stepping::Conv2d*>(layer.get());
      if (!conv || conv->is_head()) continue;
      stepping::Conv2dGeometry g = conv->geometry();
      g.in_c = active_units(conv->in_subnet(), level);
      g.out_c = active_units(conv->unit_subnet(), level);
      const int hw = g.out_h() * g.out_w();
      Tensor x({g.in_c, g.in_h, g.in_w});
      stepping::fill_normal(x, 0.0f, 1.0f, rng);
      Tensor cols({g.patch(), hw});
      Tensor a({g.out_c, g.patch()});
      stepping::fill_normal(a, 0.0f, 0.1f, rng);
      Tensor c({g.out_c, hw});
      im2col_us += median_us(kReps, [&] { stepping::im2col(x.data(), g, cols.data()); });
      gemm_us += median_us(kReps, [&] { stepping::gemm(a, cols, c); });
      const Tensor act = c.reshaped({1, g.out_c, g.out_h(), g.out_w()});
      Tensor r, p;
      std::vector<unsigned char> mask;
      std::vector<int> arg;
      relu_us += median_us(kReps, [&] { stepping::relu_forward(act, r, mask); });
      pool_us += median_us(kReps, [&] { stepping::maxpool_forward(r, 2, p, arg); });
      bytes += static_cast<double>(g.patch()) * hw * sizeof(float);
      flops += 2.0 * g.out_c * g.patch() * hw;
    }
    const std::string L = ".L" + std::to_string(level);
    out["tensor.im2col_us" + L] = im2col_us;
    out["tensor.gemm_us" + L] = gemm_us;
    out["tensor.maxpool_us" + L] = pool_us;
    out["tensor.relu_us" + L] = relu_us;
    out["tensor.im2col_bytes" + L] = bytes;
    out["tensor.gemm_flops" + L] = flops;
  }
}

/// Runs the layers one at a time exactly as Network::forward does (a
/// Layer -> ReLU pair is fused at inference) and adds each step's time to
/// the entry named by the layer's block ("c1" for c1, c1_bn, c1_relu).
Tensor forward_by_layer(Network& net, const Tensor& x, int level,
                        std::map<std::string, double>& us) {
  const stepping::SubnetContext ctx = ctx_at(level);
  const auto& layers = net.layers();
  Tensor cur = x;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    stepping::Layer& l = *layers[i];
    const auto t0 = Clock::now();
    if (i + 1 < layers.size() && l.can_fuse_relu() && layers[i + 1]->is_relu()) {
      cur = l.forward_relu(cur, ctx);
      ++i;
    } else {
      cur = l.forward(cur, ctx);
    }
    const std::string name = l.name();
    us[name.substr(0, name.find('_'))] += ms_between(t0, Clock::now()) * 1e3;
  }
  return cur;
}

/// nn layer: Network::forward per level, and each named block at L1 and LN.
void probe_nn(Network& net, const Pool& pool, Window& w,
              LayerValues& out) {
  constexpr int kReps = 100;
  std::vector<double> fwd[kSubnets];
  for (int r = 0; r < kReps; ++r) {
    const Tensor& x = pool.images[static_cast<std::size_t>(r) % pool.images.size()];
    for (int l = 1; l <= kSubnets; ++l) {
      const auto t0 = Clock::now();
      forward_at(net, x, l);
      fwd[l - 1].push_back(ms_between(t0, Clock::now()) * 1e3);
    }
  }
  for (int l = 1; l <= kSubnets; ++l) {
    out["nn.forward_us.L" + std::to_string(l)] = quantile(fwd[l - 1], 0.5);
  }
  out["nn.l1_vs_top_x"] = paired_ratio_median(fwd[0], fwd[kSubnets - 1]);
  for (int level : {1, kSubnets}) {
    std::map<std::string, std::vector<double>> blocks;
    for (int r = 0; r < kReps; ++r) {
      const Tensor& x =
          pool.images[static_cast<std::size_t>(r) % pool.images.size()];
      std::map<std::string, double> us;
      const Tensor y = forward_by_layer(net, x, level, us);
      if (!same_bits(y, forward_at(net, x, level))) ++w.mismatched;
      for (const auto& [name, v] : us) blocks[name].push_back(v);
    }
    const std::string L = ".L" + std::to_string(level);
    for (const char* c : {"c1", "c2", "c3"}) {
      out[std::string("nn.") + c + "_us" + L] = quantile(blocks[c], 0.5);
    }
    if (level == kSubnets) {
      double pool_us = 0.0;
      for (const char* p : {"p1", "p2", "p3"}) pool_us += quantile(blocks[p], 0.5);
      out["nn.pool_us" + L] = pool_us;
      out["nn.fc_us" + L] = quantile(blocks["fc"], 0.5);
    }
  }
}

/// core layer: IncrementalExecutor::run per step, with its analytic MACs.
/// On ladder the step times come from the traced window itself.
void probe_core(Network& net, const Pool& pool, const Window& live,
                LayerValues& out) {
  constexpr int kReps = 100;
  stepping::IncrementalExecutor ex(net);
  std::vector<double> step_ms[kSubnets - 1];
  std::int64_t macs[kSubnets] = {};
  std::int64_t full_top = 0;
  for (int r = 0; r < kReps; ++r) {
    const Tensor& x = pool.images[static_cast<std::size_t>(r) % pool.images.size()];
    ex.run(x, 1);
    macs[0] = ex.last_step_macs();
    for (int l = 2; l <= kSubnets; ++l) {
      const auto t0 = Clock::now();
      ex.run(x, l);
      step_ms[l - 2].push_back(ms_between(t0, Clock::now()));
      macs[l - 1] = ex.last_step_macs();
    }
    full_top = ex.last_full_macs();
  }
  std::int64_t climbed = 0;
  for (std::int64_t m : macs) climbed += m;
  for (int s = 0; s < kSubnets - 1; ++s) {
    const std::string step = std::to_string(s + 1) + "-" + std::to_string(s + 2);
    const auto& src = live.step_ms[s].empty() ? step_ms[s] : live.step_ms[s];
    out["core.step_us." + step] = quantile(src, 0.5) * 1e3;
    out["core.step_macs." + step] = static_cast<double>(macs[s + 1]);
  }
  out["core.reuse_mac_ratio"] = full_top > 0 ? static_cast<double>(climbed) /
                                    static_cast<double>(full_top)
                              : 0.0;
}

/// protocol layer: encode_request / decode_reply of one pool image.
void probe_wire(Network& net, const Pool& pool, LayerValues& out) {
  constexpr int kReps = 500;
  const Tensor& x = pool.images[0];
  stepping::serve::WireRequest req;
  req.c = static_cast<std::uint32_t>(x.dim(1));
  req.h = static_cast<std::uint32_t>(x.dim(2));
  req.w = static_cast<std::uint32_t>(x.dim(3));
  req.data.assign(x.data(), x.data() + x.numel());
  stepping::serve::WireReply reply;
  reply.exit_subnet = kSubnets;
  const Tensor logits = forward_at(net, x, kSubnets);
  reply.logits.assign(logits.data(), logits.data() + logits.numel());
  std::vector<std::uint8_t> req_bytes, reply_bytes = encode_reply(reply);
  stepping::serve::WireReply decoded;
  out["wire.encode_us"] = median_us(kReps, [&] { req_bytes = encode_request(req); });
  out["wire.decode_us"] = median_us(kReps, [&] { decode_reply(reply_bytes, decoded); });
  // Each frame carries a u32 length prefix.
  out["wire.bytes_per_request"] = static_cast<double>(req_bytes.size() + reply_bytes.size() + 8);
}

// ---------------------------------------------------------------------------
// Running one workload.
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string fixture, workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Window run_window(const Options& o, const Workload& wl, const Pool& pool,
                  double seconds, bool traced, double* setup_s) {
  const std::string name = wl.name;
  if (name == "ladder") {
    return run_ladder(o.fixture, pool, seconds, traced, setup_s);
  }
  if (name == "serve_open") {
    return run_serve_open(o.fixture, pool, o.seed, seconds, wl.tail_q, setup_s);
  }
  if (name == "stream_drift") {
    return run_stream_drift(o.fixture, pool, o.seed, seconds, wl.tail_q, setup_s);
  }
  return run_serve_wire(o.fixture, pool, seconds, wl.tail_q, setup_s);
}

/// Completed requests per second. A closed loop of K clients completes K
/// requests per mean latency. The open loop completes what its fixed
/// schedule offers.
double throughput_rps(const Window& w) {
  if (w.clients == 0) {
    return w.open_span_s > 0
               ? static_cast<double>(w.final_ms.size()) / w.open_span_s
               : 0.0;
  }
  double sum_ms = 0.0;
  for (double ms : w.final_ms) sum_ms += ms;
  return sum_ms > 0 ? w.clients * static_cast<double>(w.final_ms.size()) /
                          (sum_ms / 1e3)
                    : 0.0;
}

void print_timing(const char* what, const std::vector<double>& v, double q) {
  // The reported tail is a median over kSlices slices; the whole-run
  // percentiles are printed for reference.
  const std::size_t per = v.size() / kSlices;
  std::printf("  %-6s n=%zu p50=%.4f p90=%.4f p95=%.4f p99=%.4f ms; tail p%g "
              "has %zu beyond in each of %zu slices%s\n",
              what, v.size(), quantile(v, 0.5), quantile(v, 0.9),
              quantile(v, 0.95), quantile(v, 0.99), q * 100,
              samples_beyond(per, q), kSlices,
              tail_supported(per, q) ? "" : " (too few)");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Options& o) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const Pool pool = make_pool(o.seed);
  std::printf(
      "env: STEPPING_THREADS=%s threads=%d workers=%d isa=%s nproc=%u "
      "model=%s width=%g subnets=%d seed=%llu workload=%s trace=%d\n",
      std::getenv("STEPPING_THREADS") ? std::getenv("STEPPING_THREADS") : "unset",
      stepping::ThreadPool::global().size(),
      std::string(wl->name) == "ladder" ? 0 : kWorkers,
      stepping::isa_tier_name(stepping::isa_tier()),
      std::thread::hardware_concurrency(), kModel, kWidth, kSubnets,
      static_cast<unsigned long long>(o.seed), wl->name, o.trace ? 1 : 0);

  double setup_s = 0.0;
  Window w;
  Window untraced;
  if (o.trace) {
    // Half the window untraced, half traced: the difference of their
    // final_ms_p75 is the tracing cost.
    double unused = 0.0;
    untraced = run_window(o, *wl, pool, o.seconds / 2, false, &unused);
    w = run_window(o, *wl, pool, o.seconds / 2, true, &setup_s);
    // Both halves served real requests; all of them count as attempted.
    w.attempted += untraced.attempted;
    w.mismatched += untraced.mismatched;
    w.refused += untraced.refused;
    w.errored += untraced.errored;
  } else {
    w = run_window(o, *wl, pool, o.seconds, false, &setup_s);
  }

  const std::string name = wl->name;
  const double q = wl->tail_q;
  // Per-layer values of this workload's own traffic, taken before the
  // ratio loops below add their pairs.
  LayerValues layer = w.layer;
  if (name == "serve_open") {
    layer["load.gen_late_ms_p99"] = quantile(w.gen_late_ms, 0.99);
  }
  if (name == "serve_wire") {
    layer["wire.overhead_ms_p50"] = quantile(w.wire_overhead_ms, 0.5);
  }
  // Peak memory of the workload itself, before the ratio loops below build
  // rigs of their own.
  const double peak_mb = peak_rss_mb();
  // Every workload reports both ratios. One that does not make a ratio in
  // its main loop runs the loop that does after its window, so the ratio
  // means the same on every workload. Their answers are checked and counted
  // like the window's.
  auto count_checks = [&w](const Window& p) {
    w.attempted += p.attempted;
    w.mismatched += p.mismatched;
    w.refused += p.refused;
    w.errored += p.errored;
  };
  if (name != "ladder") {
    auto rig = make_ladder_rig(o.fixture, pool);
    Network direct = rig->net.clone();
    Window p;
    drive_ladder(*rig, direct, pool, false, count_of(kLadderRatioPairs), p);
    count_checks(p);
    w.ladder_ms = std::move(p.ladder_ms);
    w.direct_ms = std::move(p.direct_ms);
  }
  if (name != "stream_drift") {
    auto rig = make_serve_rig(o.fixture, pool, true);
    Network direct = rig->model.clone();
    Window p;
    drive_streams(*rig, direct, pool, o.seed, count_of(kStreamRatioFrames),
                  p);
    count_checks(p);
    w.frame_ms = std::move(p.frame_ms);
    w.full_ms = std::move(p.full_ms);
    // The stream layer does its work in this loop on every workload but
    // stream_drift.
    collect_stream_layer(*rig->server, direct, layer);
  }
  layer["stream.delta_us_p50"] = quantile(w.frame_ms, 0.5) * 1e3;
  layer["stream.full_us_p50"] = quantile(w.full_ms, 0.5) * 1e3;

  std::vector<Metric> shown = {
      {"setup_s", setup_s, "s"},
      {"first_ms_p75", quantile(w.first_ms, kCentral), "ms"},
      {"first_ms_tail", sliced_quantile(w.first_ms, q, kSlices), "ms"},
      {"final_ms_p75", quantile(w.final_ms, kCentral), "ms"},
      {"final_ms_tail", sliced_quantile(w.final_ms, q, kSlices), "ms"},
      {"throughput_rps", throughput_rps(w), "1/s"},
      {"step_overhead_x", paired_ratio_median(w.ladder_ms, w.direct_ms), "x"},
      {"delta_vs_full_x", paired_ratio_median(w.frame_ms, w.full_ms), "x"},
      {"deadline_hit_ratio", w.deadlines.hit_ratio(), "ratio"},
      {"mean_exit", w.exits ? w.exit_sum / static_cast<double>(w.exits) : 0.0,
       "level"},
      {"accuracy",
       w.acc_total ? static_cast<double>(w.acc_hits) /
                         static_cast<double>(w.acc_total)
                   : 0.0,
       "ratio"},
      {"peak_rss_mb", peak_mb, "MB"},
  };

  if (o.trace) {
    Network net = load_model(o.fixture);
    probe_tensor(net, layer);
    probe_nn(net, pool, w, layer);
    probe_core(net, pool, w, layer);
    probe_wire(net, pool, layer);
    layer["trace.overhead_ms"] =
        quantile(w.final_ms, kCentral) - quantile(untraced.final_ms, kCentral);
    shown.clear();
    for (const LayerMetricDef& d : kLayerMetrics) {
      auto it = layer.find(d.name);
      shown.push_back({d.name, it == layer.end() ? 0.0 : it->second, d.unit});
      if (it != layer.end()) layer.erase(it);
    }
    if (!layer.empty()) {
      throw std::logic_error("per-layer metric missing from kLayerMetrics: " +
                             layer.begin()->first);
    }
  }

  std::printf("workload %s: attempted=%zu failed=%zu (mismatch=%zu refused=%zu "
              "errored=%zu), failed share %zu/%zu\n",
              wl->name, w.attempted, w.failed(), w.mismatched, w.refused,
              w.errored, w.failed(), w.attempted);
  print_timing("first", w.first_ms, q);
  print_timing("final", w.final_ms, q);
  std::printf("  accuracy over %zu answers, deadline hits %zu/%zu\n",
              w.acc_total, w.deadlines.hits(), w.deadlines.sent());
  for (const Metric& m : shown) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += w.mismatched == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(w.attempted);
  json += ", \"failed\": " + std::to_string(w.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " +
            json_number(shown[i].value) + ", \"unit\": \"" + shown[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string fixture_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--make-fixture" && has_value) fixture_out = argv[++i];
    else if (a == "--fixture" && has_value) o.fixture = argv[++i];
    else if (a == "--workload" && has_value) o.workload = argv[++i];
    else if (a == "--seed" && has_value) o.seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) o.seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has_value) o.trace = std::stoi(argv[++i]) != 0;
    else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  try {
    if (!fixture_out.empty()) return perfbench::make_fixture(fixture_out);
    if (o.fixture.empty() || o.workload.empty() || !(o.seconds > 0)) {
      std::fprintf(stderr,
                   "usage: perfbench --fixture F --workload W --seed N "
                   "--seconds S --trace 0|1\n");
      return 2;
    }
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
