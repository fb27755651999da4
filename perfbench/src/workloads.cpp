#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fft/spectral.hpp"
#include "layout/datasets.hpp"
#include "layout/geometry.hpp"
#include "layout/raster.hpp"
#include "litho/golden.hpp"
#include "metrics/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opc/engine.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace nitho;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median wall time in ms of `reps` calls of fn (one call per sample).
double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn();
    t.push_back(ms_between(a, Clock::now()));
  }
  return median(t);
}

/// Runs fixed-work reps for `seconds`, each tagged with the host steal
/// share while it ran.  While fewer than `min_clean` reps are clean, it
/// keeps going for up to half as long again; it always runs at least
/// `min_clean` reps.
std::vector<Rep> measure(double seconds, std::size_t min_clean,
                         const std::function<Rep()>& rep) {
  std::vector<Rep> reps;
  std::size_t clean = 0;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (reps.size() >= min_clean &&
        (clean >= min_clean || elapsed >= 1.5 * seconds) &&
        elapsed >= seconds) {
      break;
    }
    const HostTicks a = host_ticks();
    Rep r = rep();
    r.steal = steal_share(a, host_ticks());
    if (r.steal <= kMaxSteal) ++clean;
    reps.push_back(std::move(r));
  }
  return reps;
}

/// Set-up is timed several times per run and reported as the median over
/// the set-ups the host did not steal from: at least kMinSetups times, then
/// until `budget_s` is spent, at most kMaxSetups times.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
double timed_setups(double budget_s, const std::function<void()>& setup) {
  std::vector<Rep> t;
  const auto start = Clock::now();
  while (t.size() < kMinSetups ||
         (t.size() < kMaxSetups &&
          ms_between(start, Clock::now()) < budget_s * 1e3)) {
    const HostTicks h = host_ticks();
    const auto a = Clock::now();
    setup();
    Rep r;
    r.seconds = ms_between(a, Clock::now()) / 1e3;
    r.steal = steal_share(h, host_ticks());
    t.push_back(std::move(r));
  }
  return summarize(t, 1).median_s;
}

// ---------------------------------------------------------------------------
// Optics, models and inputs.
// ---------------------------------------------------------------------------

/// The paper's optics on 1 um tiles at 1 nm/px: Eq.-10 kernels of 29x29.
LithoConfig paper_optics() { return LithoConfig{}; }

/// The same optics on 320 nm tiles at 10 nm/px (32 px masks): Eq.-10
/// kernels of 9x9, the small-tile serving shape.
LithoConfig tile_optics() {
  LithoConfig lc;
  lc.tile_nm = 320;
  lc.raster_px = 32;
  lc.analysis_px = 32;
  lc.sim_px = 32;
  lc.spectrum_crop = 15;
  return lc;
}

/// The CMLP size point the repo's benches use (Table I: ~0.08 MB).  The
/// model seed is part of the system, not of the inputs, so it is fixed.
NithoModel make_model(const LithoConfig& lc, int kdim, int rank,
                      std::uint64_t model_seed = 1) {
  NithoConfig mc;
  mc.kernel_dim = kdim;
  mc.rank = rank;
  mc.encoding.features = 96;
  mc.hidden = 48;
  mc.blocks = 2;
  mc.seed = model_seed;
  return NithoModel(mc, lc.tile_nm, lc.optics.wavelength_nm, lc.optics.na);
}

/// `count` layouts alternating between the given families.  Layouts are
/// rectangle lists, so holding them costs next to nothing; rasters are made
/// from them when needed.
std::vector<Layout> make_layouts(const LithoConfig& lc,
                                 const std::vector<DatasetKind>& kinds,
                                 int count, Rng& rng) {
  std::vector<Layout> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(make_layout(kinds[static_cast<std::size_t>(i) % kinds.size()],
                              lc.tile_nm, rng));
  }
  return out;
}

Grid<double> raster_of(const LithoConfig& lc, const Layout& layout) {
  return rasterize(layout, lc.tile_nm / lc.raster_px);
}

/// Golden samples of `layouts`.  Rasterizing is input generation, so only
/// the rendering itself is added to *render_ms.
std::vector<Sample> render(const GoldenEngine& golden,
                           const std::vector<Layout>& layouts,
                           double* render_ms = nullptr) {
  std::vector<Sample> out;
  out.reserve(layouts.size());
  for (const Layout& l : layouts) {
    const Grid<double> raster = raster_of(golden.config(), l);
    const auto a = Clock::now();
    out.push_back(golden.make_sample(raster));
    if (render_ms) *render_ms += ms_between(a, Clock::now());
  }
  return out;
}

std::vector<const Sample*> ptrs(const std::vector<Sample>& s) {
  std::vector<const Sample*> p;
  for (const Sample& x : s) p.push_back(&x);
  return p;
}

/// Held-out sets are a fixed fixture, like a test split: they do not
/// depend on --seed, so the quality metrics compare across seeds.
constexpr std::uint64_t kHeldoutSeed = 20230709;

/// The held-out layouts of an optical setup (`count` tiles alternating
/// between `kinds`).
std::vector<Layout> heldout_layouts(const LithoConfig& lc,
                                    const std::vector<DatasetKind>& kinds,
                                    int count) {
  Rng rng(kHeldoutSeed);
  return make_layouts(lc, kinds, count, rng);
}

/// The two quality metrics every workload reports for the kernels it runs:
/// held-out imaging MSE (evaluate_nitho) and the mean edge-placement error
/// of the printed pattern against the golden print, in analysis-grid px.
struct Quality {
  double mse = 0.0;
  double epe_px = 0.0;
};

Quality quality(const NithoModel& model, const GoldenEngine& golden,
                const std::vector<Sample>& heldout, int train_px) {
  const TrainingSet set =
      prepare_training_set(ptrs(heldout), model.kernel_dim(), train_px);
  Quality q;
  q.mse = evaluate_nitho(model, set);
  const int px = golden.config().analysis_px;
  const double thr = golden.config().resist.threshold;
  for (const Sample& s : heldout) {
    q.epe_px += opc::mean_edge_placement_error(
        binarize(predict_aerial(model, s, px), thr), s.resist);
  }
  q.epe_px /= static_cast<double>(heldout.size());
  return q;
}

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------

struct ServeShape {
  LithoConfig optics;
  int kdim = 0;
  int rank = 0;
  int pool = 0;                 ///< distinct input masks held by the generator
  std::vector<int> out_px;      ///< alternated request by request
  int max_batch = 8;
  std::chrono::microseconds max_delay{500};
  /// Also the closed-loop window: the capacity phase keeps this many
  /// requests outstanding, so submit never blocks there.
  std::size_t queue_capacity = 64;
  /// Requests per closed-loop capacity rep.
  int closed_n = 0;
  /// Open-loop rate (req/s), fixed so latency is always measured at the
  /// same absolute load, and requests per open-loop segment.
  double open_rate = 0.0;
  int open_n = 0;
  /// Publish a pre-built kernel set every swap_every requests (0 = never).
  int swap_every = 0;
  int train_px = 64;            ///< grid of the held-out quality set
  int heldout = 16;
  /// Every check_every-th served result is checked bit for bit.
  int check_every = 16;
};

/// Not in BENCHMARK.json (README.md, "paper_serve").
ServeShape paper_shape() {
  ServeShape s;
  s.optics = paper_optics();
  s.kdim = 29;
  s.rank = 24;
  s.pool = 8;
  s.out_px = {64};
  s.max_batch = 4;
  s.queue_capacity = 8;
  s.closed_n = 32;
  // Half of what one request at a time sustains (~8 ms each).  Half of the
  // closed-loop rate (~240/s with batches of 4) would run the server at
  // ~85% busy, because an open-loop request at that rate is served alone.
  s.open_rate = 60.0;
  s.open_n = 60;
  s.check_every = 32;
  return s;
}

/// The shape of bench_rollout (32 px masks, rank-8 9x9 kernels, max_batch
/// 16, max_delay 300 us, queue 64, four swaps per 4096 requests), with the
/// two out_px values serve_demo alternates.
ServeShape tile_shape() {
  ServeShape s;
  s.optics = tile_optics();
  s.kdim = 9;
  s.rank = 8;
  s.pool = 64;
  s.out_px = {16, 32};
  s.max_batch = 16;
  s.max_delay = std::chrono::microseconds(300);
  s.queue_capacity = 64;
  s.closed_n = 16384;
  // About 40% of the closed-loop capacity measured with this shape on a
  // 4-vCPU x86 VM (~11k req/s, README.md "Workloads").
  s.open_rate = 4500.0;
  s.open_n = static_cast<int>(s.open_rate);
  s.swap_every = 1024;
  s.train_px = 32;
  s.heldout = 32;
  s.check_every = 64;
  return s;
}

struct RequestSpec {
  int mask = 0;
  int out_px = 0;
  serve::RequestKind kind = serve::RequestKind::kAerial;
};

/// Every third request asks for the resist image, the mix of serve_demo.
constexpr int kResistEvery = 3;
constexpr std::int64_t kPostSwap = 64;

/// One outstanding request of the generator.
struct Pending {
  std::int64_t seq = 0;
  std::int64_t index = 0;  ///< position in the open-loop schedule
  RequestSpec spec;
  std::uint64_t generation = 0;
  /// Among the first kPostSwap requests submitted after a kernel swap.
  bool post_swap = false;
  Clock::time_point due;
  std::future<Grid<double>> fut;
};

/// The serving system under test plus the generator state around it.  The
/// generator polls its outstanding futures and never blocks on one, so
/// completions are stamped as they happen, in any order.
class ServeRig {
 public:
  ServeRig(const ServeShape& shape, const std::vector<Grid<double>>& pool,
           std::uint64_t seed)
      : shape_(shape), pool_(pool), req_rng_(seed * 7919 + 17) {}

  /// Builds the model(s), exports kernels and starts a warmed server.
  /// Everything here counts as set-up.
  void setup(bool traced) {
    server_.reset();
    kernel_sets_.clear();
    refs_.clear();
    const int sets = shape_.swap_every > 0 ? 2 : 1;
    // Set 0 serves first and is the model the quality metrics score; set 1
    // (a second seed) is what the swap cadence alternates with.
    for (int k = sets - 1; k >= 0; --k) {
      model_ = std::make_unique<NithoModel>(
          make_model(shape_.optics, shape_.kdim, shape_.rank,
                     1 + static_cast<std::uint64_t>(k)));
      kernel_sets_.insert(kernel_sets_.begin(),
                          std::make_shared<const std::vector<Grid<cd>>>(
                              model_->export_kernels()));
    }
    for (const auto& ks : kernel_sets_) refs_.emplace_back(ks, threshold());
    serve::ServeOptions so;
    so.shards = 1;
    so.queue_capacity = shape_.queue_capacity;
    so.batch.max_batch = shape_.max_batch;
    so.batch.max_delay = shape_.max_delay;
    if (traced) so.trace = obs::TraceConfig{true, 1, std::size_t{1} << 17};
    server_ = std::make_unique<serve::LithoServer>(
        FastLitho(kernel_sets_[0], threshold()), so);
    generation_ = 0;
    // Warm-up: every served out_px builds its engine and the pool threads
    // start before anything is timed.
    for (int i = 0; i < 2 * shape_.max_batch; ++i) {
      const int px = shape_.out_px[static_cast<std::size_t>(i) %
                                   shape_.out_px.size()];
      server_->submit(pool_[0], px).get();
    }
  }

  double threshold() const { return shape_.optics.resist.threshold; }
  serve::LithoServer& server() { return *server_; }
  const NithoModel& model() const { return *model_; }
  const FastLitho& ref(std::uint64_t gen) const {
    return refs_[gen % refs_.size()];
  }
  const std::shared_ptr<const std::vector<Grid<cd>>>& kernels(int k) const {
    return kernel_sets_[static_cast<std::size_t>(k)];
  }

  RequestSpec next_spec() {
    RequestSpec s;
    s.mask = req_rng_.randint(0, shape_.pool - 1);
    s.out_px = shape_.out_px[static_cast<std::size_t>(seq_) %
                             shape_.out_px.size()];
    s.kind = seq_ % kResistEvery == 0 ? serve::RequestKind::kResist
                                      : serve::RequestKind::kAerial;
    return s;
  }

  /// Submits one request, publishing the next pre-built kernel set first
  /// when the swap cadence says so.  Returns the time spent inside submit
  /// (backpressure) in ms.
  double submit(Pending& p, Grid<double> mask) {
    if (shape_.swap_every > 0 && seq_ > 0 && seq_ % shape_.swap_every == 0) {
      const int next = static_cast<int>((generation_ + 1) % refs_.size());
      FastLitho fresh(kernel_sets_[static_cast<std::size_t>(next)],
                      threshold());
      const auto a = Clock::now();
      generation_ = server_->swap_kernels(std::move(fresh));
      swap_ms.push_back(ms_between(a, Clock::now()));
      last_swap_seq_ = seq_;
    }
    p.post_swap = last_swap_seq_ >= 0 && seq_ - last_swap_seq_ < kPostSwap;
    p.seq = seq_++;
    p.generation = generation_;
    const auto a = Clock::now();
    p.fut = server_->submit(std::move(mask), p.spec.out_px, p.spec.kind);
    return ms_between(a, Clock::now());
  }

  /// Resolves a completed request: counts it, keeps a checked sample.
  void finish(Pending& p, Report& r) {
    try {
      Grid<double> g = p.fut.get();
      if (p.seq % shape_.check_every == 0) {
        samples_.push_back({&ref(p.generation),
                            &pool_[static_cast<std::size_t>(p.spec.mask)],
                            p.spec.out_px, p.spec.kind, std::move(g)});
      }
      r.count(true);
    } catch (const std::exception&) {
      r.count(false);
    }
  }

  /// Closed loop: `n` requests in bursts of queue_capacity.  Each burst is
  /// submitted at once (the queue has room for all of it) and waited for in
  /// full before the next.  Returns the seconds they took.
  double closed_loop(int n, Report& r) {
    std::vector<Pending> burst;
    const auto start = Clock::now();
    for (int submitted = 0; submitted < n;) {
      burst.resize(std::min(static_cast<std::size_t>(n - submitted),
                            shape_.queue_capacity));
      for (Pending& p : burst) {
        p.spec = next_spec();
        submit(p, pool_[static_cast<std::size_t>(p.spec.mask)]);
      }
      for (Pending& p : burst) finish(p, r);
      submitted += static_cast<int>(burst.size());
    }
    return ms_between(start, Clock::now()) / 1e3;
  }

  struct OpenLoop {
    std::vector<double> latency_ms;     ///< completion - due, in due order
    std::vector<double> post_swap_ms;   ///< the same, first 64 after a swap
    std::vector<double> lateness_ms;    ///< submit start - due
    std::vector<double> block_ms;       ///< time inside submit()
  };

  /// Finishes every completed request in `out`; returns how many.  With
  /// `ol`, records each one's latency from its due time.
  int reap(std::deque<Pending>& out, Report& r, OpenLoop* ol);

  /// Open loop: `n` requests at shape_.open_rate.  Requests are due on a
  /// fixed schedule; each is timed from its due time, so a stall delays
  /// every later request's clock too.  The next request's mask is copied
  /// out of the pool ahead of its due time.
  OpenLoop open_loop(std::int64_t n, Report& r) {
    OpenLoop res;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / shape_.open_rate));
    std::deque<Pending> out;
    res.latency_ms.resize(static_cast<std::size_t>(n));
    std::int64_t i = 0;
    RequestSpec spec = next_spec();
    Grid<double> next_mask = pool_[static_cast<std::size_t>(spec.mask)];
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    while (i < n || !out.empty()) {
      const auto now = Clock::now();
      const auto due = t0 + i * period;
      if (i < n && now >= due) {
        Pending p;
        p.spec = spec;
        p.due = due;
        p.index = i;
        res.lateness_ms.push_back(ms_between(due, now));
        res.block_ms.push_back(submit(p, std::move(next_mask)));
        out.push_back(std::move(p));
        if (++i < n) {
          spec = next_spec();
          next_mask = pool_[static_cast<std::size_t>(spec.mask)];
        }
        continue;
      }
      if (reap(out, r, &res) == 0) std::this_thread::yield();
    }
    return res;
  }

  /// Bit-identity check of every kept sample against a direct call on the
  /// snapshot that served it; a mismatch turns into a failed operation.
  void check_samples(Report& r) {
    check_served(samples_, r);
    samples_.clear();
  }

  std::vector<double> swap_ms;

 private:
  ServeShape shape_;
  const std::vector<Grid<double>>& pool_;
  Rng req_rng_;
  std::unique_ptr<NithoModel> model_;
  std::vector<std::shared_ptr<const std::vector<Grid<cd>>>> kernel_sets_;
  std::vector<FastLitho> refs_;
  std::unique_ptr<serve::LithoServer> server_;
  std::uint64_t generation_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t last_swap_seq_ = -1;
  std::vector<ServedSample> samples_;
};

int ServeRig::reap(std::deque<Pending>& out, Report& r, OpenLoop* ol) {
  int done = 0;
  for (auto it = out.begin(); it != out.end();) {
    if (it->fut.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++it;
      continue;
    }
    if (ol) {
      const double lat = ms_between(it->due, Clock::now());
      ol->latency_ms[static_cast<std::size_t>(it->index)] = lat;
      if (it->post_swap) ol->post_swap_ms.push_back(lat);
    }
    finish(*it, r);
    it = out.erase(it);
    ++done;
  }
  return done;
}

Report run_serve(const ServeShape& shape, const RunOptions& opt) {
  Report r;
  Rng rng(opt.seed);
  const std::vector<DatasetKind> kinds = {DatasetKind::B2m, DatasetKind::B2v};
  std::vector<Grid<double>> pool;
  for (const Layout& l : make_layouts(shape.optics, kinds, shape.pool, rng)) {
    pool.push_back(raster_of(shape.optics, l));
  }
  const std::vector<Layout> heldout =
      heldout_layouts(shape.optics, kinds, shape.heldout);
  ServeRig rig(shape, pool, opt.seed);

  if (!opt.trace) {
    const double setup_s = timed_setups(1.0, [&] { rig.setup(false); });
    // A rep is one closed-loop capacity phase followed by one open-loop
    // segment, so both phases sample the whole run.
    constexpr std::size_t kMinReps = 5;
    const std::vector<Rep> reps = measure(opt.seconds, kMinReps, [&] {
      Rep x;
      x.ops = shape.closed_n;
      x.seconds = rig.closed_loop(shape.closed_n, r);
      x.latency_ms = rig.open_loop(shape.open_n, r).latency_ms;
      return x;
    });
    rig.server().stop();
    rig.check_samples(r);
    const RepSummary sum = summarize(reps, kMinReps);
    note_reps(r, reps, sum);
    r.add("setup_s", setup_s, "s");
    r.add("throughput_per_s", sum.rate, "1/s");
    r.add("latency_p50_ms", sum.p50_ms, "ms");
    r.add("latency_p99_ms", sum.p99_ms, "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    const GoldenEngine golden(shape.optics);
    const Quality q =
        quality(rig.model(), golden, render(golden, heldout), shape.train_px);
    r.add("heldout_mse", q.mse, "mse");
    r.add("epe_px", q.epe_px, "px");
    return r;
  }

  // Traced run: per-layer numbers.  Layer calls are timed here, around the
  // public function of each layer, on the workload's own inputs.
  rig.setup(false);
  const FastLitho& ref = rig.ref(0);
  const double thr = rig.threshold();
  const double inv_n2 = 1.0 / static_cast<double>(pool[0].size());
  const int px0 = shape.out_px[0];
  // Small masks take microseconds per call: time loops of calls instead.
  const int inner = pool[0].rows() >= 256 ? 1 : 64;
  const std::size_t layer_masks = std::min<std::size_t>(pool.size(), 8);
  std::vector<double> fft_ms, socs_ms, resist_ms;
  for (std::size_t mi = 0; mi < layer_masks; ++mi) {
    const Grid<double>& m = pool[mi];
    Grid<cd> spec;
    fft_ms.push_back(median_ms(3, [&] {
      for (int k = 0; k < inner; ++k) spec = fft2_crop_centered(m, shape.kdim);
    }) / inner);
    for (auto& z : spec) z *= inv_n2;
    Grid<double> aerial;
    socs_ms.push_back(median_ms(3, [&] {
      for (int k = 0; k < inner; ++k) {
        aerial = ref.aerial_from_spectrum(spec, px0);
      }
    }) / inner);
    resist_ms.push_back(median_ms(3, [&] {
      for (int k = 0; k < inner; ++k) binarize(aerial, thr);
    }) / inner);
  }
  std::vector<Grid<double>> batch(pool.begin(),
                                  pool.begin() + std::min<std::size_t>(
                                                     pool.size(),
                                                     shape.max_batch));
  const double batch_ms = median_ms(5, [&] { ref.aerial_batch(batch, px0); });
  std::vector<double> build_ms;
  for (const int px : shape.out_px) {
    build_ms.push_back(
        median_ms(5, [&] { const AerialEngine e(rig.kernels(0), px); }));
  }

  // Tracing overhead: untraced and traced servers, capacity reps alternated.
  ServeRig traced(shape, pool, opt.seed);
  traced.setup(true);
  std::vector<double> plain_tput, traced_tput;
  const auto start = Clock::now();
  while (plain_tput.size() < 3 ||
         ms_between(start, Clock::now()) < 0.4 * opt.seconds * 1e3) {
    plain_tput.push_back(shape.closed_n / rig.closed_loop(shape.closed_n, r));
    traced_tput.push_back(shape.closed_n /
                          traced.closed_loop(shape.closed_n, r));
  }
  rig.server().stop();
  // Stage spans are read from the open-loop phase only: in the closed loop
  // every request waits behind a full queue by construction.
  const std::int64_t open_start_us = traced.server().tracer().now_us();
  const ServeRig::OpenLoop ol = traced.open_loop(
      static_cast<std::int64_t>(0.4 * opt.seconds * shape.open_rate), r);
  const serve::ShardStats st = traced.server().stats();
  traced.server().stop();
  rig.check_samples(r);
  traced.check_samples(r);

  // Serve stages from the server's own spans (Tracer export).
  std::map<std::uint64_t, const obs::TraceEvent*> qw, ba, res;
  std::map<std::int64_t, const obs::TraceEvent*> compute_at;
  std::vector<const obs::TraceEvent*> requests;
  const std::vector<obs::TraceEvent> ev = traced.server().tracer().events();
  std::vector<double> qw_ms, ba_ms, comp_ms, res_ms;
  for (const obs::TraceEvent& e : ev) {
    if (e.start_us < open_start_us) continue;
    const std::string name = e.name;
    if (name == "request") requests.push_back(&e);
    const double ms = static_cast<double>(e.dur_us) / 1e3;
    if (name == "queue_wait") {
      qw[e.id] = &e;
      qw_ms.push_back(ms);
    } else if (name == "batch_assembly") {
      ba[e.id] = &e;
      ba_ms.push_back(ms);
    } else if (name == "compute") {
      compute_at[e.start_us] = &e;
      comp_ms.push_back(ms);
    } else if (name == "resolve") {
      res[e.id] = &e;
      res_ms.push_back(ms);
    }
  }
  // Coverage: share of each traced request's span covered by its named
  // stages (queue wait, assembly, its batch's compute and resolve).
  double covered = 0.0, total = 0.0;
  for (const obs::TraceEvent* q : requests) {
    const auto iq = qw.find(q->id), ib = ba.find(q->id);
    if (iq == qw.end() || ib == ba.end()) continue;
    const auto ic = compute_at.find(ib->second->start_us + ib->second->dur_us);
    if (ic == compute_at.end()) continue;
    const auto ir = res.find(ic->second->id);
    if (ir == res.end()) continue;
    covered += static_cast<double>(iq->second->dur_us + ib->second->dur_us +
                                   ic->second->dur_us + ir->second->dur_us);
    total += static_cast<double>(q->dur_us);
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  r.add("fft.spectrum_ms", median(fft_ms), "ms");
  r.add("litho.socs_ms", median(socs_ms), "ms");
  r.add("litho.resist_ms", median(resist_ms), "ms");
  r.add("nitho.batch_ms_per_mask", batch_ms / static_cast<double>(batch.size()),
        "ms");
  r.add("nitho.engine_build_ms", mean(build_ms), "ms");
  r.add("serve.queue_wait_ms", mean(qw_ms), "ms");
  r.add("serve.batch_assembly_ms", mean(ba_ms), "ms");
  r.add("serve.compute_ms", mean(comp_ms), "ms");
  r.add("serve.resolve_ms", mean(res_ms), "ms");
  r.add("serve.batch_occupancy", st.mean_batch_occupancy, "count");
  r.add("serve.batches", static_cast<double>(st.batches), "count");
  r.add("serve.submit_block_ms", mean(ol.block_ms), "ms");
  if (!traced.swap_ms.empty()) {
    r.add("serve.swap_ms", median(traced.swap_ms), "ms");
    r.add("serve.post_swap_p99_ms", percentile(ol.post_swap_ms, 99), "ms");
  }
  r.add("gen.lateness_p99_ms", percentile(ol.lateness_ms, 99), "ms");
  r.add("trace.coverage", total > 0 ? covered / total : 0.0, "ratio");
  r.add("trace.overhead", median(traced_tput) / median(plain_tput), "ratio");
  return r;
}

// ---------------------------------------------------------------------------
// Training.
// ---------------------------------------------------------------------------

/// The seeded train split is 64 tiles, cut into 4 folds of 16; a model
/// trains on one fold, so an epoch is 4 steps of batch 4.  run_epoch is the
/// finest public unit, and a latency sample is one epoch's mean step.
/// Folds of 8 would double the samples, but models trained on 8 tiles made
/// epe_px swing by 0.46 of its median from seed to seed.
constexpr int kTrainTiles = 64;
constexpr int kTrainFolds = 4;
constexpr int kTestTiles = 32;
constexpr int kTrainPx = 64;
constexpr int kTrainBatch = 4;
/// Timed epochs per rep (96 steps), after one warm-up epoch.
constexpr int kTrainEpochs = 24;
/// Reps cycle through this many (fold, shuffle order) pairs, one model
/// each; the quality metrics average those models, because one short
/// training run's held-out EPE swings by +-20% with its data and shuffle
/// order alone.
constexpr int kTrainModels = 16;

Report run_train(const RunOptions& opt) {
  Report r;
  const LithoConfig lc = paper_optics();
  Rng rng(opt.seed);
  const std::vector<DatasetKind> kinds = {DatasetKind::B2m};
  const std::vector<Layout> train_layouts =
      make_layouts(lc, kinds, kTrainTiles, rng);
  const std::vector<Layout> test_layouts =
      heldout_layouts(lc, kinds, kTestTiles);

  // Set-up: golden TCC + eigendecomposition, golden rendering of the train
  // split, the prepared tensors of each fold, and a warm-up epoch.
  std::unique_ptr<GoldenEngine> golden;
  std::vector<Sample> train;
  std::vector<TrainingSet> folds(kTrainFolds);
  double golden_s = 0, render_ms = 0, prepare_ms = 0;
  // Returns the set-up time in seconds, rasterizing excluded.
  auto setup = [&] {
    // Drop the previous round's state first so set-up repeats do not stack
    // in peak_rss_mb.
    golden.reset();
    train.clear();
    for (TrainingSet& f : folds) f = TrainingSet{};
    const HostTicks h = host_ticks();
    const auto a = Clock::now();
    golden = std::make_unique<GoldenEngine>(lc);
    const auto b = Clock::now();
    render_ms = 0.0;
    train = render(*golden, train_layouts, &render_ms);
    const auto c = Clock::now();
    const std::vector<const Sample*> all = ptrs(train);
    constexpr auto kFold = static_cast<std::ptrdiff_t>(kTrainTiles / kTrainFolds);
    for (std::ptrdiff_t f = 0; f < kTrainFolds; ++f) {
      folds[static_cast<std::size_t>(f)] = prepare_training_set(
          std::vector<const Sample*>(all.begin() + f * kFold,
                                     all.begin() + (f + 1) * kFold),
          29, kTrainPx);
    }
    const auto d = Clock::now();
    NithoModel warm = make_model(lc, 29, 24);
    NithoTrainConfig tc;
    tc.epochs = 1;
    tc.batch = kTrainBatch;
    tc.train_px = kTrainPx;
    NithoTrainer(warm, folds[0], tc).run_epoch();
    golden_s = ms_between(a, b) / 1e3;
    prepare_ms = ms_between(c, d);
    Rep x;
    x.seconds =
        (ms_between(a, b) + render_ms + ms_between(c, Clock::now())) / 1e3;
    x.steal = steal_share(h, host_ticks());
    render_ms /= kTrainTiles;
    return x;
  };
  std::vector<Rep> setups;
  for (std::size_t i = 0; i < (opt.trace ? 1 : kMinSetups); ++i) {
    setups.push_back(setup());
  }
  const double setup_s = summarize(setups, 1).median_s;

  obs::MetricsRegistry registry;
  obs::Tracer tracer(obs::TraceConfig{true, 1, std::size_t{1} << 16}, 1);
  struct TrainRep {
    Rep rep;  ///< steps/s over the timed epochs; mean step ms per epoch
    double wall_s = 0;
    TrainStats delta;
  };
  std::vector<std::unique_ptr<NithoModel>> models(kTrainModels);
  std::vector<std::vector<double>> first_losses(kTrainModels);
  std::size_t next_model = 0;
  // One rep: a fresh model trained for 1 + kTrainEpochs epochs; the first
  // (warm-up) epoch is untimed.  Every rep is the same amount of work.
  auto rep = [&](bool observed) {
    const std::size_t j = next_model++ % kTrainModels;
    auto model = std::make_unique<NithoModel>(make_model(lc, 29, 24));
    NithoTrainConfig tc;
    tc.epochs = 1 + kTrainEpochs;
    tc.batch = kTrainBatch;
    tc.train_px = kTrainPx;
    tc.seed = opt.seed * kTrainModels + j;
    NithoTrainer trainer(*model, folds[j % kTrainFolds], tc);
    if (observed) trainer.set_observer(&registry, &tracer);
    trainer.run_epoch();
    const TrainStats before = trainer.stats();
    TrainRep out;
    const auto a = Clock::now();
    while (!trainer.done()) {
      const int s0 = trainer.stats().steps;
      const auto e0 = Clock::now();
      trainer.run_epoch();
      out.rep.latency_ms.push_back(ms_between(e0, Clock::now()) /
                                   (trainer.stats().steps - s0));
    }
    out.wall_s = ms_between(a, Clock::now()) / 1e3;
    const TrainStats& after = trainer.stats();
    out.delta.steps = after.steps - before.steps;
    out.delta.forward_seconds = after.forward_seconds - before.forward_seconds;
    out.delta.backward_seconds =
        after.backward_seconds - before.backward_seconds;
    out.delta.step_seconds = after.step_seconds - before.step_seconds;
    out.rep.ops = out.delta.steps;
    out.rep.seconds = out.wall_s;
    const bool ok = loss_decreased(trainer.epoch_losses());
    r.attempted += after.steps;
    if (!ok) {
      r.failed += after.steps;
      r.checks_passed = false;
    }
    if (first_losses[j].empty()) {
      first_losses[j] = trainer.epoch_losses();
      models[j] = std::move(model);
    } else if (trainer.epoch_losses() != first_losses[j]) {
      r.checks_passed = false;  // a rerun must repeat its trajectory exactly
    }
    return out;
  };

  if (!opt.trace) {
    const std::vector<Rep> reps =
        measure(opt.seconds, kTrainModels, [&] { return rep(false).rep; });
    const RepSummary sum = summarize(reps, kTrainModels);
    note_reps(r, reps, sum);
    r.add("setup_s", setup_s, "s");
    r.add("throughput_per_s", sum.rate, "1/s");
    r.add("latency_p50_ms", sum.p50_ms, "ms");
    r.add("latency_p99_ms", sum.p99_ms, "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    const std::vector<Sample> test = render(*golden, test_layouts);
    Quality mean_q;
    for (const auto& m : models) {
      const Quality q = quality(*m, *golden, test, kTrainPx);
      mean_q.mse += q.mse / kTrainModels;
      mean_q.epe_px += q.epe_px / kTrainModels;
    }
    r.add("heldout_mse", mean_q.mse, "mse");
    r.add("epe_px", mean_q.epe_px, "px");
    return r;
  }

  std::vector<double> plain, observed, fwd, bwd, optim, cover;
  const auto start = Clock::now();
  while (plain.size() < 3 ||
         ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    plain.push_back(rep(false).rep.rate());
    const TrainRep x = rep(true);
    observed.push_back(x.rep.rate());
    const double n = x.delta.steps;
    fwd.push_back(x.delta.forward_seconds * 1e3 / n);
    bwd.push_back(x.delta.backward_seconds * 1e3 / n);
    optim.push_back(x.delta.step_seconds * 1e3 / n);
    cover.push_back((x.delta.forward_seconds + x.delta.backward_seconds +
                     x.delta.step_seconds) / x.wall_s);
  }
  // The golden render is the paper-shape fft -> litho pipeline (1024^2
  // rasters, rank-260 kernels on the sim grid): time its layers on a few of
  // the train tiles.
  const AerialEngine socs(std::make_shared<const std::vector<Grid<cd>>>(
                              golden->kernels().kernels),
                          lc.sim_px);
  std::vector<double> fft_ms, socs_ms, resist_ms;
  for (int t = 0; t < 4; ++t) {
    const Grid<double> raster = raster_of(lc, train_layouts[t]);
    Grid<cd> spec;
    fft_ms.push_back(median_ms(
        3, [&] { spec = fft2_crop_centered(raster, lc.spectrum_crop); }));
    for (auto& z : spec) z /= static_cast<double>(raster.size());
    Grid<double> aerial;
    socs_ms.push_back(median_ms(3, [&] { aerial = socs.aerial(spec); }));
    resist_ms.push_back(median_ms(
        3, [&] { (void)binarize(aerial, lc.resist.threshold); }));
  }
  const std::vector<Sample> test = render(*golden, test_layouts);
  const TrainingSet test_set = prepare_training_set(ptrs(test), 29, kTrainPx);
  const double predict_ms =
      median_ms(9, [&] { (void)models[0]->predict_kernels(); });
  const double eval_ms =
      median_ms(3, [&] { (void)evaluate_nitho(*models[0], test_set); });
  r.add("fft.spectrum_ms", median(fft_ms), "ms");
  r.add("litho.socs_ms", median(socs_ms), "ms");
  r.add("litho.resist_ms", median(resist_ms), "ms");
  r.add("litho.golden_setup_s", golden_s, "s");
  r.add("litho.render_ms_per_tile", render_ms, "ms");
  r.add("nitho.prepare_set_ms", prepare_ms, "ms");
  r.add("nn.forward_ms", median(fwd), "ms");
  r.add("nn.backward_ms", median(bwd), "ms");
  r.add("nn.optimizer_ms", median(optim), "ms");
  r.add("nitho.predict_kernels_ms", predict_ms, "ms");
  r.add("nitho.evaluate_ms", eval_ms, "ms");
  r.add("trace.coverage", median(cover), "ratio");
  r.add("trace.overhead", median(observed) / median(plain), "ratio");
  return r;
}

// ---------------------------------------------------------------------------
// ILT.
// ---------------------------------------------------------------------------

constexpr int kIltBatch = 8;
/// Distinct jobs the reps cycle through: epe_px averages all of them, so it
/// does not hinge on one draw of 8 intents.
constexpr int kIltJobs = 32;
constexpr int kIltSteps = 96;
constexpr int kIltCheckpointEvery = 16;
/// A latency sample is the mean step time of a block of this many steps.
/// Single steps (~2.5 ms on 3 threads) spread from 2.0 to 2.9 ms within a
/// run, and their p50 and p99 moved by more than a quarter from run to run
/// on a busy host; block means move with the host, not with one step.
constexpr int kIltBlock = 8;

Report run_ilt(const RunOptions& opt) {
  Report r;
  const LithoConfig lc = paper_optics();
  Rng rng(opt.seed);
  opc::OpcConfig cfg;
  cfg.mask_px = 64;
  cfg.sim_px = 32;
  cfg.resist_threshold = lc.resist.threshold;
  // Intents: B1 tiles (chunky rectilinear metal) rasterized straight onto
  // the 64 px optimization grid, in kIltJobs batches of kIltBatch.
  std::vector<std::vector<Grid<double>>> jobs(kIltJobs);
  for (auto& job : jobs) {
    for (int i = 0; i < kIltBatch; ++i) {
      job.push_back(binarize(
          rasterize(make_layout(DatasetKind::B1, lc.tile_nm, rng),
                    lc.tile_nm / cfg.mask_px),
          0.5));
    }
  }

  std::unique_ptr<NithoModel> model;
  std::unique_ptr<opc::OpcEngine> engine;
  auto setup = [&] {
    model = std::make_unique<NithoModel>(make_model(lc, 29, 24));
    engine = std::make_unique<opc::OpcEngine>(
        std::make_shared<const std::vector<Grid<cd>>>(model->export_kernels()),
        cfg);
    engine->start(jobs[0]);
    engine->step();
  };
  const double setup_s = timed_setups(0.5, setup);

  std::vector<std::vector<float>> first_losses(kIltJobs);
  std::vector<double> epe, final_loss;
  std::size_t next_job = 0;
  // One rep: the next job started from its intents and run for kIltSteps
  // steps, checkpointed in memory every kIltCheckpointEvery steps.  Reps
  // cycle through the jobs; every rep is the same amount of work.  The rep's
  // rate is in mask-iterations per second and its latencies are the mean
  // step times of its blocks of kIltBlock steps.
  auto rep = [&](std::vector<double>* ck_ms) {
    const std::size_t j = next_job++ % jobs.size();
    engine->start(jobs[j]);
    Rep x;
    double block_ms = 0.0;
    const auto a = Clock::now();
    for (int s = 1; s <= kIltSteps; ++s) {
      const auto t = Clock::now();
      engine->step();
      const auto u = Clock::now();
      block_ms += ms_between(t, u);
      if (s % kIltBlock == 0) {
        x.latency_ms.push_back(block_ms / kIltBlock);
        block_ms = 0.0;
      }
      if (s % kIltCheckpointEvery == 0) {
        const opc::OpcCheckpoint ck = engine->checkpoint();
        if (ck_ms) ck_ms->push_back(ms_between(u, Clock::now()));
        if (ck.iteration != s) r.checks_passed = false;
      }
    }
    const double wall_ms = ms_between(a, Clock::now());
    x.ops = kIltBatch * kIltSteps;
    x.seconds = wall_ms / 1e3;
    const std::vector<float>& l = engine->losses();
    const bool ok = loss_decreased(std::vector<double>(l.begin(), l.end()));
    r.attempted += static_cast<std::int64_t>(kIltBatch) * kIltSteps;
    if (!ok) {
      r.failed += static_cast<std::int64_t>(kIltBatch) * kIltSteps;
      r.checks_passed = false;
    }
    if (first_losses[j].empty()) {
      first_losses[j] = l;
      epe.push_back(engine->mean_epe_px());
      final_loss.push_back(l.back());
    } else if (l != first_losses[j]) {
      r.checks_passed = false;  // reruns of a job must repeat it exactly
    }
    return std::pair<Rep, double>(std::move(x), wall_ms);
  };
  auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  };

  if (!opt.trace) {
    const std::vector<Rep> reps = measure(
        opt.seconds, jobs.size(), [&] { return rep(nullptr).first; });
    const RepSummary sum = summarize(reps, jobs.size());
    note_reps(r, reps, sum);
    r.add("setup_s", setup_s, "s");
    r.add("throughput_per_s", sum.rate, "1/s");
    r.add("latency_p50_ms", sum.p50_ms, "ms");
    r.add("latency_p99_ms", sum.p99_ms, "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    // The workload's own imaging MSE: the final fit loss (aerial against
    // intent) of each job, averaged over the jobs.
    r.add("heldout_mse", mean(final_loss), "mse");
    r.add("epe_px", mean(epe), "px");
    return r;
  }

  // Traced reps add the per-checkpoint clock reads; untraced reps are the
  // end-to-end run's loop.  Alternating them gives the tracing overhead.
  std::vector<double> step_ms, ck_ms, cover, plain, traced;
  const auto start = Clock::now();
  while (traced.size() < 3 ||
         ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    plain.push_back(rep(nullptr).first.rate());
    const std::size_t c0 = ck_ms.size();
    const auto [x, wall] = rep(&ck_ms);
    traced.push_back(x.rate());
    step_ms.insert(step_ms.end(), x.latency_ms.begin(), x.latency_ms.end());
    double busy = kIltBlock * std::accumulate(x.latency_ms.begin(),
                                              x.latency_ms.end(), 0.0);
    for (std::size_t i = c0; i < ck_ms.size(); ++i) busy += ck_ms[i];
    cover.push_back(busy / wall);
  }
  r.add("opc.step_ms", median(step_ms), "ms");
  r.add("opc.forward_ms", median_ms(9, [&] { (void)engine->forward_aerial(); }),
        "ms");
  r.add("opc.checkpoint_ms", median(ck_ms), "ms");
  r.add("opc.epe_ms", median_ms(5, [&] { (void)engine->mean_epe_px(); }), "ms");
  r.add("trace.coverage", median(cover), "ratio");
  r.add("trace.overhead", median(traced) / median(plain), "ratio");
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_serve", "tile_serve",
                                                 "train", "ilt"};
  return names;
}

int pool_workers_for(const std::string& workload) {
  const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int cap = std::min(n, 4);
  // One vCPU is left to the generator (serving: it runs beside the shard
  // worker, which joins the pool as its calling thread) or to the kernel
  // (training and ILT, where the caller joins the pool): a pool on every
  // vCPU waits at each barrier for whichever vCPU the host took away.
  // tile_serve batches are a few hundred us of work, which one worker
  // serves steadier than a pool (README.md, "Workloads").
  if (workload == "tile_serve") return 1;
  return std::max(1, cap - 1);
}

void pin_process_for(const std::string& workload) {
  // tile_serve's generator and shard worker hand every burst back and forth.
  // Pinned to one vCPU, 5 runs of 20 s spread 0.13 of the median in
  // throughput and 0.04 in p99; left to the scheduler, 0.16 and 0.11, with
  // open-loop p99 outliers of 2-3x (README.md, "Workloads").  Threads
  // inherit the mask, so this runs before any is started.
  if (workload != "tile_serve") return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double input_pool_mb(const std::string& workload) {
  constexpr double kMiB = 1024.0 * 1024.0;
  constexpr double kPaperRaster = 1024.0 * 1024.0 * sizeof(double);
  if (workload == "paper_serve") {
    return paper_shape().pool * kPaperRaster / kMiB;
  }
  if (workload == "tile_serve") {
    return tile_shape().pool * 32.0 * 32.0 * sizeof(double) / kMiB;
  }
  // Train holds layouts and rasterizes one tile at a time.
  if (workload == "train") return kPaperRaster / kMiB;
  return kIltJobs * kIltBatch * 64.0 * 64.0 * sizeof(double) / kMiB;
}

Report run_workload(const RunOptions& opt) {
  if (opt.workload == "paper_serve") return run_serve(paper_shape(), opt);
  if (opt.workload == "tile_serve") return run_serve(tile_shape(), opt);
  if (opt.workload == "train") return run_train(opt);
  if (opt.workload == "ilt") return run_ilt(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
