// Repository benchmark program: one user journey per workload, timed end to
// end, with an optional traced run that times the public entry points of
// every library layer from here (no spans or counters inside src/).
//
// Every workload runs the same three stages, each on its own input; the
// workload decides which stage gets the large input, so each workload
// stresses different layers while still reporting every end-to-end metric:
//
//   train  SES (GAT) on kTrainDatasets BAShapes graphs, one fit each, and
//          the first fitted again (determinism check) -> train_s, test_acc,
//          explain_auc.
//   scale  GCN backbone on a power-law scale graph: fit, whole-graph cold
//          forward, un-memoized forward, ShardedSession build, cold logits
//          through the shards -> train_epoch_s, cold_forward_s, forward_ms,
//          shard_build_s, sharded_cold_s.
//   serve  A briefly trained SES (GCN) behind serve::BatchScheduler, driven
//          by an open loop of Poisson reads at fixed absolute rates next to
//          a fixed-rate stream of graph invalidations -> read_p50_ms,
//          max_rps (and the per-layer serve.read_p99_ms).
//
// After set-up the stages run interleaved in rounds (see Journey::Run), so
// every metric samples the whole run rather than one stretch of it.
//
// Usage (sesbench/run.py builds this and supplies the flags):
//   ses_bench --workload=<scale-cold|serve-update> --seed=<n>
//             --seconds=<open-loop seconds> --trace=<0|1> [--trace-out=f]
// Prints one JSON report as its last stdout line; exits 1 when a
// correctness check fails, 2 on bad flags.
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "autograd/variable.h"
#include "core/inference_session.h"
#include "core/ses_model.h"
#include "core/sharded_session.h"
#include "data/scale.h"
#include "data/synthetic.h"
#include "graph/khop.h"
#include "graph/partition.h"
#include "kernels/dispatch.h"
#include "kernels/spmm.h"
#include "metrics/metrics.h"
#include "models/backbone_models.h"
#include "models/encoders.h"
#include "obs/metrics.h"
#include "serve/batch_scheduler.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace ses;
namespace ag = ses::autograd;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Workloads. Sizes are constants of the benchmark, never calibrated per run.

struct Workload {
  const char* name;
  /// Base nodes of the scale-stage graph, GCN epochs per fit, samples of
  /// each scale timing per round (spread evenly over the rounds when below
  /// one), and un-memoized forwards per sample.
  int64_t scale_nodes;
  int64_t scale_epochs;
  double scale_samples_per_round;
  int64_t forward_repeats;
  /// Base nodes of the serve-stage graph, and graph invalidations per
  /// second beside the reads: about a fifth of the time goes to rebuilds,
  /// so the fast path keeps the median, and each p99 window
  /// rests on several rebuilds rather than on its single slowest one.
  int64_t serve_nodes;
  double writes_per_second;
  /// Which stage's graph and model the traced per-layer probes target.
  enum class Focus { kScale, kServe } focus;
};

constexpr Workload kWorkloads[] = {
    {"scale-cold", 150000, 1, 0.5, 2, 10000, 12, Workload::Focus::kScale},
    {"serve-update", 50000, 2, 1.0, 3, 20000, 6, Workload::Focus::kServe},
};

// Train stage: the paper's BAShapes with the GAT backbone, on one OpenMP
// thread: its 700-row matrices gain nothing from more, and a team's barriers
// made the fit time swing 3.6-4.8 s between runs on a shared 4-core box.
constexpr int kTrainThreads = 1;
/// BAShapes graphs per run, drawn from the seed: test_acc and explain_auc
/// are their means, since one 70-node test split moves accuracy by several
/// points between seeds. One fit each plus a refit of the first, spread over
/// the rounds; train_s is the median of the fits.
constexpr int64_t kTrainDatasets = 3;
constexpr int64_t kTrainFits = kTrainDatasets + 1;
constexpr int64_t kSesEpochs = 100;
constexpr int64_t kSesHidden = 64;
constexpr float kSesDropout = 0.2f;
// Scale stage.
constexpr int64_t kScaleHidden = 32;
constexpr int64_t kShards = 4;
// Serve stage. The first rate is the nominal one and gets half of the
// open-loop time; the ladder is a fixed sequence of absolute rates (reads/s)
// at least 2x apart.
constexpr double kRates[] = {2000, 8000, 16000};
constexpr double kLatencyLimitMs = 250;
constexpr int64_t kServeHidden = 16;
constexpr int64_t kExplainTopK = 5;
/// A rate whose sender ran later than this at p99 (a tenth of the limit) is
/// invalid: the load was not offered on schedule, so the rate cannot pass.
constexpr double kMaxSendLateMs = 25;
constexpr int64_t kSetupRepeats = 3;
constexpr double kWarmupSeconds = 0.5;
/// Nominal-rate serving per round, and the share of --seconds served at
/// the nominal rate in rounds; the rest serves the rates above it.
constexpr double kRoundServeSeconds = 0.5;
constexpr double kNominalShare = 0.75;
/// p99 windows: 1000 nominal reads each, so 10 lie beyond the p99.
constexpr double kP99WindowSeconds = 0.5;

// ---------------------------------------------------------------------------
// Spans for the traced run: kept in memory, written as a Chrome trace.

struct Span {
  std::string name;
  int parent;
  double start_us, end_us;
};

class Tracer {
 public:
  void Enable() { enabled_ = true; }
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, NowUs(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    stack_.pop_back();
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i ? "," : "", s.name.c_str(), s.start_us,
                    s.end_us - s.start_us, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(g_tracer.Begin(name)) {}
  ~ScopedSpan() { g_tracer.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Wall seconds of f(), recorded as span `name` when tracing.
template <typename F>
double Timed(const std::string& name, F&& f) {
  ScopedSpan span(name);
  const auto start = Clock::now();
  f();
  return Since(start);
}

// ---------------------------------------------------------------------------
// Report pieces.

struct Metric {
  std::string name, unit;
  double value;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct RateResult {
  double rate = 0, seconds = 0;
  int64_t sent = 0, ok = 0, failed = 0, met = 0, writes = 0;
  int64_t ok_past_deadline = 0, wrong_answers = 0;
  /// Latency of every read, from its due time to its observed answer.
  std::vector<double> latency_ms;
  /// p99 read latency and p99 sender lateness of each p99 window.
  std::vector<double> window_p99_ms, window_late_p99_ms, window_wait_p99_ms;
  double drain_ms = 0;
  serve::BatchScheduler::Stats sched;
  core::InferenceSession::Stats cache;  ///< session memo outcomes in phase

  /// p99_ms is the median of the window p99s, so a short stall of the
  /// shared machine moves one window, not the result.
  double p50_ms() const { return Quantile(latency_ms, 0.50); }
  double p99_ms() const { return Median(window_p99_ms); }
  double send_late_p99_ms() const { return Median(window_late_p99_ms); }
  double queue_wait_p99_ms() const { return Median(window_wait_p99_ms); }
  double goodput() const { return static_cast<double>(met) / seconds; }
  bool valid() const { return send_late_p99_ms() <= kMaxSendLateMs; }
  /// >= 99% of reads answered correctly within the limit, and the backlog
  /// drained within one limit of the send window's end.
  bool pass() const {
    return valid() && sent > 0 &&
           static_cast<double>(met) >= 0.99 * static_cast<double>(sent) &&
           drain_ms <= kLatencyLimitMs;
  }

  void Add(RateResult&& o) {
    rate = o.rate;
    seconds += o.seconds;
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    met += o.met;
    writes += o.writes;
    ok_past_deadline += o.ok_past_deadline;
    wrong_answers += o.wrong_answers;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    window_p99_ms.insert(window_p99_ms.end(), o.window_p99_ms.begin(),
                         o.window_p99_ms.end());
    window_late_p99_ms.insert(window_late_p99_ms.end(),
                              o.window_late_p99_ms.begin(),
                              o.window_late_p99_ms.end());
    window_wait_p99_ms.insert(window_wait_p99_ms.end(),
                              o.window_wait_p99_ms.begin(),
                              o.window_wait_p99_ms.end());
    drain_ms = std::max(drain_ms, o.drain_ms);
    sched.requests += o.sched.requests;
    sched.batches += o.sched.batches;
    sched.deadline_flushes += o.sched.deadline_flushes;
    sched.shed += o.sched.shed;
    sched.expired += o.sched.expired;
    sched.expired_inflight += o.sched.expired_inflight;
    sched.degraded_served += o.sched.degraded_served;
    cache.cache_hits += o.cache.cache_hits;
    cache.cache_misses += o.cache.cache_misses;
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Open-loop serving of one rate.

struct Pending {
  serve::OpKind op = serve::OpKind::kPredict;
  int64_t node = 0;
  Clock::duration offset{};  ///< due time relative to the phase start
  Clock::time_point due, submitted;
  serve::PredictFuture predict;
  serve::LogitsRowFuture logits;
  serve::ExplainFuture explain;

  bool Ready() const {
    switch (op) {
      case serve::OpKind::kPredict: return predict.Ready();
      case serve::OpKind::kLogitsRow: return logits.Ready();
      case serve::OpKind::kExplain: return explain.Ready();
    }
    return false;
  }
};

Clock::duration AtSeconds(double t) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(t));
}

RateResult RunRate(core::InferenceSession* session, const tensor::Tensor& ref,
                   const std::vector<int64_t>& ref_class, double rate,
                   double writes_per_second, double seconds, uint64_t seed) {
  RateResult res;
  res.rate = rate;
  res.seconds = seconds;
  const int64_t n = ref.rows();

  // The schedule is drawn before sending: Poisson read arrivals (60%
  // predict, 30% logits-row, 10% explain) and evenly spaced writes.
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(rate));
  std::vector<Pending> reads;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    Pending p;
    const double u = rng.Uniform();
    p.op = u < 0.6 ? serve::OpKind::kPredict
                   : (u < 0.9 ? serve::OpKind::kLogitsRow
                              : serve::OpKind::kExplain);
    p.node = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    p.offset = AtSeconds(t);
    reads.push_back(std::move(p));
  }
  std::vector<Clock::duration> writes;
  for (double t = 0.5 / writes_per_second; t < seconds;
       t += 1.0 / writes_per_second)
    writes.push_back(AtSeconds(t));

  const auto hits0 = session->stats();
  auto& registry = obs::MetricsRegistry::Get();
  obs::Histogram& queue_wait = registry.GetHistogram(
      "ses.sched.queue_wait_us", obs::Histogram::DefaultLatencyEdgesUs());
  std::vector<int64_t> wait_buckets(queue_wait.edges().size() + 1);
  for (size_t i = 0; i < wait_buckets.size(); ++i)
    wait_buckets[i] = queue_wait.BucketCount(i);

  serve::SchedulerOptions sopt;
  sopt.num_workers = 1;
  auto sched = std::make_unique<serve::BatchScheduler>(session, sopt);
  serve::SubmitOptions submit;
  submit.deadline_us = kLatencyLimitMs * 1e3;

  // One load-generator thread (this one) sends on the schedule and polls
  // completions; it never sleeps, so neither send times nor completion
  // stamps pay an OS wake-up. With one scheduler worker, batches resolve in
  // submission order, so polling the oldest outstanding read is enough.
  const auto limit = AtSeconds(kLatencyLimitMs / 1e3);
  std::vector<double>& latency_ms = res.latency_ms;
  latency_ms.assign(reads.size(), 0.0);
  std::vector<double> late_ms;
  late_ms.reserve(reads.size());
  std::deque<size_t> outstanding;
  auto finish = [&](Pending& p, size_t i) {
    serve::Status status;
    bool right = true;
    if (p.op == serve::OpKind::kPredict) {
      int64_t cls = -1;
      status = p.predict.Get(&cls);
      right = !status.ok() || cls == ref_class[static_cast<size_t>(p.node)];
    } else if (p.op == serve::OpKind::kLogitsRow) {
      std::vector<float> row;
      status = p.logits.Get(&row);
      right = !status.ok() ||
              (static_cast<int64_t>(row.size()) == ref.cols() &&
               std::memcmp(row.data(), ref.RowPtr(p.node),
                           row.size() * sizeof(float)) == 0);
    } else {
      core::InferenceSession::Explanation e;
      status = p.explain.Get(&e);
      right = !status.ok() ||
              static_cast<int64_t>(e.neighbors.size()) <= kExplainTopK;
    }
    const auto done = Clock::now();
    latency_ms[i] =
        std::chrono::duration<double, std::milli>(done - p.due).count();
    if (!right) ++res.wrong_answers;
    if (!status.ok()) {
      ++res.failed;
      return;
    }
    ++res.ok;
    if (right && done - p.due <= limit) ++res.met;
    // The scheduler expires a request at its deadline, so an "ok" answer
    // seen later than that (plus one poll of slack) is impossible.
    if (done - p.submitted > limit + std::chrono::milliseconds(1))
      ++res.ok_past_deadline;
  };

  const auto origin = Clock::now();
  size_t next = 0, w = 0;
  while (next < reads.size() || !outstanding.empty()) {
    const auto now = Clock::now();
    if (w < writes.size() && origin + writes[w] <= now) {
      session->InvalidateGraph();
      ++w;
    }
    if (next < reads.size() && origin + reads[next].offset <= now) {
      Pending& p = reads[next];
      p.due = origin + p.offset;
      p.submitted = now;
      late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - p.due).count());
      switch (p.op) {
        case serve::OpKind::kPredict:
          p.predict = sched->SubmitPredict(p.node, submit);
          break;
        case serve::OpKind::kLogitsRow:
          p.logits = sched->SubmitLogitsRow(p.node, submit);
          break;
        case serve::OpKind::kExplain:
          p.explain = sched->SubmitExplain(p.node, kExplainTopK, submit);
          break;
      }
      outstanding.push_back(next++);
    }
    while (!outstanding.empty() && reads[outstanding.front()].Ready()) {
      finish(reads[outstanding.front()], outstanding.front());
      outstanding.pop_front();
    }
  }
  res.drain_ms = std::max(
      0.0, std::chrono::duration<double, std::milli>(
               Clock::now() - (origin + AtSeconds(seconds)))
               .count());
  sched->Stop();
  res.sched = sched->stats();
  sched.reset();
  res.writes = static_cast<int64_t>(w);

  const auto hits1 = session->stats();
  res.cache.cache_hits = hits1.cache_hits - hits0.cache_hits;
  res.cache.cache_misses = hits1.cache_misses - hits0.cache_misses;
  res.sent = static_cast<int64_t>(reads.size());
  // Per p99 window: read-latency and sender-lateness p99s.
  const auto n_windows = static_cast<size_t>(
      std::max(1.0, std::floor(seconds / kP99WindowSeconds)));
  std::vector<std::vector<double>> lat_w(n_windows), late_w(n_windows);
  for (size_t i = 0; i < reads.size(); ++i) {
    const size_t k = std::min(
        n_windows - 1,
        static_cast<size_t>(
            std::chrono::duration<double>(reads[i].offset).count() /
            kP99WindowSeconds));
    lat_w[k].push_back(latency_ms[i]);
    late_w[k].push_back(late_ms[i]);
  }
  for (size_t k = 0; k < n_windows; ++k) {
    res.window_p99_ms.push_back(Quantile(std::move(lat_w[k]), 0.99));
    res.window_late_p99_ms.push_back(Quantile(std::move(late_w[k]), 0.99));
  }
  // Queue-wait p99 of this phase alone, from the histogram's bucket delta
  // (bucket upper edge).
  int64_t total = 0;
  for (size_t i = 0; i < wait_buckets.size(); ++i) {
    wait_buckets[i] = queue_wait.BucketCount(i) - wait_buckets[i];
    total += wait_buckets[i];
  }
  const auto target = static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(total)));
  int64_t acc = 0;
  const auto& edges = queue_wait.edges();
  for (size_t i = 0; i < wait_buckets.size() && total > 0; ++i) {
    acc += wait_buckets[i];
    if (acc >= target) {
      res.window_wait_p99_ms.push_back(edges[std::min(i, edges.size() - 1)] / 1e3);
      break;
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// One journey: set-up, then rounds that interleave the three stages so every
// metric samples the whole run (the shared machine's speed drifts over tens
// of seconds), then the serve ladder and, when traced, the layer probes.

class Journey {
 public:
  /// `threads` is the OpenMP team size of this thread's scale-stage calls;
  /// `serve_threads` is the one the scheduler worker runs with.
  Journey(const Workload& wl, uint64_t seed, double seconds, int threads,
          int serve_threads)
      : wl_(wl),
        seed_(seed),
        seconds_(seconds),
        threads_(threads),
        serve_threads_(serve_threads) {}

  void Run(bool probes) {
    Setup();
    StartServe();
    const int64_t rounds = std::max<int64_t>(
        4, std::llround(seconds_ * kNominalShare / kRoundServeSeconds));
    const auto scale_samples = static_cast<int64_t>(std::ceil(
        static_cast<double>(rounds) * wl_.scale_samples_per_round));
    // Work spread evenly over the rounds: `total` items, this many in round r.
    auto share = [rounds](int64_t r, int64_t total) {
      return (r + 1) * total / rounds - r * total / rounds;
    };
    int64_t fits = 0;
    for (int64_t r = 0; r < rounds; ++r) {
      ScopedSpan span("round");
      for (int64_t i = 0; i < share(r, kTrainFits); ++i) {
        omp_set_num_threads(kTrainThreads);
        TrainOnce(fits++);
        omp_set_num_threads(threads_);
      }
      for (int64_t i = 0; i < share(r, scale_samples); ++i) ScaleSample();
      ScopedSpan serve_span("serve.nominal");
      nominal_.Add(RunRate(serve_session_.get(), ref_, ref_class_, kRates[0],
                           wl_.writes_per_second, kRoundServeSeconds,
                           seed_ + static_cast<uint64_t>(r)));
    }
    FinishTrain();
    FinishScale();
    ServeLadder(seconds_ - static_cast<double>(rounds) * kRoundServeSeconds);
    if (probes) LayerProbes();
  }

  /// Sum of the fixed-work stage timings (the traced/untraced comparison).
  double timed_total() const { return timed_total_; }
  const std::vector<Metric>& end_to_end() const { return e2e_; }
  const std::vector<Metric>& per_layer() const { return layer_; }
  const std::vector<Check>& checks() const { return checks_; }
  const std::vector<RateResult>& rates() const { return rates_; }
  const std::vector<std::pair<std::string, uint64_t>>& digests() const {
    return digests_;
  }
  /// Nominal-rate reads plus checks, and how many of them failed (a read
  /// fails when it is not answered correctly within the limit).
  int64_t attempted() const {
    return rates_.front().sent + static_cast<int64_t>(checks_.size());
  }
  int64_t failed() const {
    int64_t f = rates_.front().sent - rates_.front().met;
    for (const Check& c : checks_) f += c.ok ? 0 : 1;
    return f;
  }

 private:
  void E2e(const std::string& name, const std::string& unit, double v) {
    e2e_.push_back({name, unit, v});
  }
  void Layer(const std::string& name, const std::string& unit, double v) {
    layer_.push_back({name, unit, v});
  }
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }

  void Setup() {
    ScopedSpan span("setup");
    // The serving model is trained briefly here: it is set-up for the serve
    // stage, so its cost lands in setup_s. Every repeat generates the inputs
    // and fits one; the first repeat's inputs and model are kept.
    core::SesOptions uopt;
    uopt.backbone = "GCN";
    uopt.epl_epochs = 1;
    models::TrainConfig ucfg;
    ucfg.epochs = 1;
    ucfg.hidden = kServeHidden;
    ucfg.seed = seed_;
    ucfg.track_best_val = false;
    std::vector<double> setup_s, focus_gen_s;
    for (int64_t r = 0; r < kSetupRepeats; ++r) {
      data::ScaleGraphOptions so;
      so.num_nodes = wl_.scale_nodes;
      so.seed = seed_ ^ 0x5CA1Eull;
      data::ScaleGraphOptions uo;
      uo.num_nodes = wl_.serve_nodes;
      uo.seed = seed_ ^ 0x5E7E5ull;
      std::vector<data::Dataset> ba(kTrainDatasets);
      double t_ba = 0;
      for (int64_t k = 0; k < kTrainDatasets; ++k) {
        data::SyntheticOptions bo;
        bo.seed = seed_ + static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull;
        t_ba += Timed("data.MakeBaShapes",
                      [&] { ba[k] = data::MakeBaShapes(bo); });
      }
      data::Dataset sg, ug;
      const double t_sg =
          Timed("data.MakeScaleGraph", [&] { sg = data::MakeScaleGraph(so); });
      const double t_ug =
          Timed("data.MakeScaleGraph", [&] { ug = data::MakeScaleGraph(uo); });
      focus_gen_s.push_back(wl_.focus == Workload::Focus::kScale ? t_sg
                                                                 : t_ug);
      std::vector<std::pair<std::string, uint64_t>> d = {
          {"scale", data::DatasetDigest(sg)}, {"serve", data::DatasetDigest(ug)}};
      for (int64_t k = 0; k < kTrainDatasets; ++k)
        d.emplace_back("bashapes." + std::to_string(k),
                       data::DatasetDigest(ba[k]));
      if (r == 0) {
        digests_ = d;
        ba_ = std::move(ba);
        sg_ = std::move(sg);
        ug_ = std::move(ug);
      } else {
        const bool same = d == digests_;
        Expect("digest_repeats_" + std::to_string(r), same,
               "regenerated inputs have the recorded digests");
      }
      auto model = std::make_unique<core::SesModel>(uopt);
      const data::Dataset& fit_on = r == 0 ? ug_ : ug;
      setup_s.push_back(t_ba + t_sg + t_ug +
                        Timed("core.SesModel.Fit(serve)",
                              [&] { model->Fit(fit_on, ucfg); }));
      if (r == 0) serve_model_ = std::move(model);
    }
    E2e("setup_s", "s", Median(setup_s));
    gen_s_ = Median(focus_gen_s);

    scale_cfg_.epochs = wl_.scale_epochs;
    scale_cfg_.hidden = kScaleHidden;
    scale_cfg_.seed = seed_;
    scale_cfg_.dropout = 0.0f;
    scale_cfg_.track_best_val = false;
    all_nodes_.resize(static_cast<size_t>(sg_.num_nodes()));
    for (size_t i = 0; i < all_nodes_.size(); ++i)
      all_nodes_[i] = static_cast<int64_t>(i);
  }

  /// Fit `i` of SES (GAT): on BAShapes graph i, and for i past the last
  /// graph again on graph i - kTrainDatasets, compared with its first fit.
  void TrainOnce(int64_t i) {
    ScopedSpan span("stage.train");
    core::SesOptions opt;
    opt.backbone = "GAT";
    models::TrainConfig cfg;
    cfg.epochs = kSesEpochs;
    cfg.hidden = kSesHidden;
    cfg.dropout = kSesDropout;
    cfg.seed = seed_;
    const data::Dataset& ds = ba_[static_cast<size_t>(i % kTrainDatasets)];
    auto model = std::make_unique<core::SesModel>(opt);
    fit_s_.push_back(
        Timed("core.SesModel.Fit(train)", [&] { model->Fit(ds, cfg); }));
    timed_total_ += fit_s_.back();
    et_s_.push_back(model->explainable_training_seconds());
    epl_s_.push_back(model->enhanced_learning_seconds());
    const tensor::Tensor logits = model->Logits(ds);
    const double acc = models::Accuracy(logits, ds.labels, ds.test_idx);
    const double auc = metrics::ExplanationAuc(ds, model->EdgeScores(ds));
    if (i < kTrainDatasets) {
      train_logits_.push_back(logits);
      acc_.push_back(acc);
      auc_.push_back(auc);
      return;
    }
    const auto k = static_cast<size_t>(i - kTrainDatasets);
    Expect("fit_repeats_bitwise", SameBits(train_logits_[k], logits),
           "a refit with one seed gives bitwise-equal logits");
    Expect("test_acc_repeats", acc == acc_[k],
           Num(acc_[k]) + " vs " + Num(acc));
    Expect("explain_auc_repeats", auc == auc_[k],
           Num(auc_[k]) + " vs " + Num(auc));
  }

  void FinishTrain() {
    bool in_range = true;
    for (size_t k = 0; k < acc_.size(); ++k)
      in_range = in_range && acc_[k] > 0 && acc_[k] <= 1 && auc_[k] > 0 &&
                 auc_[k] <= 1;
    Expect("quality_in_range", in_range, "0 < test_acc, explain_auc <= 1");
    E2e("train_s", "s", Median(fit_s_));
    E2e("test_acc", "frac", Mean(acc_));
    E2e("explain_auc", "frac", Mean(auc_));
  }

  /// One sample of every scale-stage timing: a GCN fit, a cold whole-graph
  /// session, un-memoized forwards, a ShardedSession build and its cold
  /// logits for every node (checked bitwise against the whole graph's).
  void ScaleSample() {
    ScopedSpan span("stage.scale");
    gcn_ = std::make_unique<models::BackboneModel>("GCN");
    const double fit_s = Timed("models.BackboneModel.Fit",
                               [&] { gcn_->Fit(sg_, scale_cfg_); });
    epoch_s_.push_back(fit_s / static_cast<double>(wl_.scale_epochs));
    timed_total_ += fit_s;

    scale_session_.reset();
    cold_s_.push_back(Timed("core.InferenceSession.cold", [&] {
      scale_session_ =
          std::make_unique<core::InferenceSession>(gcn_->encoder(), &sg_);
      scale_session_->Logits();
    }));
    timed_total_ += cold_s_.back();
    for (int64_t i = 0; i < wl_.forward_repeats; ++i) {
      fwd_ms_.push_back(1e3 * Timed("core.InferenceSession.ForwardLogits",
                                    [&] { scale_session_->ForwardLogits(); }));
      timed_total_ += fwd_ms_.back() / 1e3;
    }
    const tensor::Tensor single = scale_session_->Logits();
    forward_matches_ = forward_matches_ &&
                       SameBits(single, scale_session_->ForwardLogits());

    core::ShardedSessionOptions shard_opt;
    shard_opt.partition.num_shards = kShards;
    std::unique_ptr<core::ShardedSession> sharded;
    build_s_.push_back(Timed("core.ShardedSession.ctor", [&] {
      sharded = std::make_unique<core::ShardedSession>(gcn_->encoder(), &sg_,
                                                       shard_opt);
    }));
    double max_ms = 0, sum_ms = 0;
    tensor::Tensor gathered;
    sharded_s_.push_back(Timed("core.ShardedSession.cold", [&] {
      for (int64_t s = 0; s < sharded->num_shards(); ++s) {
        const double ms = 1e3 * Timed("core.shard.Logits", [&] {
                            sharded->shard_session(s)->Logits();
                          });
        max_ms = std::max(max_ms, ms);
        sum_ms += ms;
      }
      gathered = sharded->GatherLogits(all_nodes_);
    }));
    timed_total_ += build_s_.back() + sharded_s_.back();
    shard_fwd_max_ms_.push_back(max_ms);
    shard_fwd_sum_ms_.push_back(sum_ms);
    parity_ = parity_ && SameBits(gathered, single);
    edge_cut_ = sharded->partition().edge_cut_fraction();
    halo_ = sharded->partition().halo_fraction();
  }

  void FinishScale() {
    Expect("forward_matches_memo", forward_matches_,
           "un-memoized forward equals memoized logits");
    Expect("sharded_logits_bitwise", parity_,
           "sharded logits equal whole-graph logits for every node");
    E2e("train_epoch_s", "s", Median(epoch_s_));
    E2e("cold_forward_s", "s", Median(cold_s_));
    E2e("forward_ms", "ms", Median(fwd_ms_));
    E2e("shard_build_s", "s", Median(build_s_));
    E2e("sharded_cold_s", "s", Median(sharded_s_));
  }

  void StartServe() {
    ScopedSpan span("serve.start");
    serve_session_ =
        std::make_unique<core::InferenceSession>(serve_model_.get(), &ug_);
    ref_ = serve_session_->Logits();
    ref_class_ = tensor::ArgmaxRows(ref_);
    // Warm-up at the nominal rate (scheduler threads, allocator, first
    // rebuilds); not reported.
    RunRate(serve_session_.get(), ref_, ref_class_, kRates[0],
            wl_.writes_per_second, kWarmupSeconds, ~seed_);
  }

  /// The rates above nominal share `seconds`; they feed max_rps only.
  void ServeLadder(double seconds) {
    rates_.push_back(std::move(nominal_));
    const double n_above = static_cast<double>(std::size(kRates) - 1);
    for (size_t i = 1; i < std::size(kRates); ++i) {
      ScopedSpan span("serve.rate." + std::to_string(static_cast<int>(kRates[i])));
      rates_.push_back(RunRate(serve_session_.get(), ref_, ref_class_,
                               kRates[i], wl_.writes_per_second,
                               std::max(1.0, seconds / n_above), seed_));
    }
    const RateResult& nominal = rates_.front();
    double max_rps = nominal.goodput();
    for (const RateResult& r : rates_) {
      if (!r.pass()) break;
      max_rps = r.goodput();
    }
    int64_t wrong = 0, past = 0;
    for (const RateResult& r : rates_) {
      wrong += r.wrong_answers;
      past += r.ok_past_deadline;
    }
    Expect("scheduled_results_bitwise", wrong == 0,
           std::to_string(wrong) + " scheduled answers differ from direct");
    Expect("no_ok_past_deadline", past == 0,
           std::to_string(past) + " ok answers arrived past their deadline");
    Expect("p50_le_p99", nominal.p50_ms() <= nominal.p99_ms(),
           Num(nominal.p50_ms()) + " <= " + Num(nominal.p99_ms()));
    Expect("nominal_sender_on_time", nominal.valid(),
           "send_late_p99_ms " + Num(nominal.send_late_p99_ms()));
    E2e("read_p50_ms", "ms", nominal.p50_ms());
    E2e("max_rps", "req/s", max_rps);
  }

  void LayerProbes() {
    ScopedSpan span("probes");
    const bool scale = wl_.focus == Workload::Focus::kScale;
    const data::Dataset& ds = scale ? sg_ : ug_;
    core::InferenceSession* session =
        scale ? scale_session_.get() : serve_session_.get();
    const int64_t hidden = scale ? kScaleHidden : kServeHidden;
    Layer("data.gen_s", "s", gen_s_);

    // The partition belongs to the scale stage's shard build, so it runs at
    // that stage's team size; every later probe runs with the team size of
    // the focus stage whose time it explains.
    std::vector<double> part_s;
    graph::Partition part;
    for (int r = 0; r < 3; ++r) {
      graph::PartitionOptions po;
      po.num_shards = kShards;
      part_s.push_back(Timed("graph.Partitioner.Run", [&] {
        part = graph::Partitioner(po).Run(sg_.graph);
      }));
    }
    const int focus_threads = scale ? threads_ : serve_threads_;
    omp_set_num_threads(focus_threads);
    std::vector<double> khop_s;
    for (int r = 0; r < 3; ++r)
      khop_s.push_back(Timed("graph.KHopAdjacency", [&] {
        graph::KHopAdjacency khop(ds.graph, 2, 32);
      }));
    Layer("graph.partition_s", "s", Median(part_s));
    Layer("graph.khop_s", "s", Median(khop_s));
    Layer("graph.edge_cut_fraction", "frac", edge_cut_);
    Layer("graph.halo_fraction", "ratio", halo_);

    // Kernels at the focus graph and the focus model's width.
    util::Rng rng(seed_);
    const ag::EdgeListPtr edges = ds.graph.DirectedEdges(true);
    const ag::Variable x =
        ag::Variable::Constant(tensor::Tensor::Randn(ds.num_nodes(), hidden, &rng));
    const ag::Variable w =
        ag::Variable::Constant(tensor::Tensor::Ones(edges->size(), 1));
    std::vector<double> spmm_ms, csr_ms;
    {
      ag::InferenceGuard guard;
      ag::SpMM(edges, w, x);  // plan build, not timed
      for (int r = 0; r < 9; ++r)
        spmm_ms.push_back(
            1e3 * Timed("kernels.SpMM", [&] { ag::SpMM(edges, w, x); }));
    }
    for (int r = 0; r < 5; ++r)
      csr_ms.push_back(1e3 * Timed("kernels.BuildCsrByDst", [&] {
                         kernels::BuildCsrByDst(edges->src.data(),
                                                edges->dst.data(), edges->size(),
                                                edges->num_nodes);
                       }));
    const double spmm = Median(spmm_ms);
    Layer("kernels.spmm_ms", "ms", spmm);
    Layer("kernels.spmm_gflops", "GFLOP/s",
          2.0 * static_cast<double>(edges->size()) *
              static_cast<double>(hidden) / (spmm * 1e-3) / 1e9);
    Layer("kernels.csr_build_ms", "ms", Median(csr_ms));

    // Dense tensor ops at the SES training shapes (BAShapes x hidden).
    {
      omp_set_num_threads(kTrainThreads);
      const int64_t n = ba_[0].num_nodes();
      const tensor::Tensor a = tensor::Tensor::Randn(n, kSesHidden, &rng);
      const tensor::Tensor b = tensor::Tensor::Randn(kSesHidden, kSesHidden, &rng);
      const tensor::Tensor c = tensor::Tensor::Randn(n, kSesHidden, &rng);
      std::vector<int64_t> index(static_cast<size_t>(32 * n));
      for (auto& v : index)
        v = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
      auto probe = [&](const std::string& name, auto&& f) {
        std::vector<double> ms;
        for (int r = 0; r < 21; ++r) ms.push_back(1e3 * Timed(name, f));
        return Median(ms);
      };
      Layer("tensor.matmul_ms", "ms",
            probe("tensor.MatMul", [&] { tensor::MatMul(a, b); }));
      Layer("tensor.matmul_at_ms", "ms", probe("tensor.MatMulTransposedA", [&] {
              tensor::MatMulTransposedA(a, c);
            }));
      Layer("tensor.matmul_bt_ms", "ms", probe("tensor.MatMulTransposedB", [&] {
              tensor::MatMulTransposedB(a, b);
            }));
      Layer("tensor.elementwise_ms", "ms", probe("tensor.MulSigmoid", [&] {
              tensor::Sigmoid(tensor::Mul(a, c));
            }));
      Layer("tensor.gather_rows_ms", "ms", probe("tensor.GatherRows", [&] {
              tensor::GatherRows(a, index);
            }));
      omp_set_num_threads(focus_threads);
    }

    // One taped encoder step of a fresh encoder. Serving tapes nothing, so
    // serve-update times the step of its train stage (GAT on BAShapes, one
    // thread), which sets its train_s; scale-cold times its GCN on the
    // scale graph, which sets its train_epoch_s.
    {
      const data::Dataset& tds = scale ? sg_ : ba_[0];
      const ag::EdgeListPtr tedges =
          scale ? edges : ba_[0].graph.DirectedEdges(true);
      omp_set_num_threads(scale ? threads_ : kTrainThreads);
      auto encoder = models::MakeEncoder(
          scale ? "GCN" : "GAT", tds.num_features(),
          scale ? kScaleHidden : kSesHidden, tds.num_classes, &rng);
      const nn::FeatureInput input = models::MakeInput(tds);
      std::vector<double> fwd_ms, bwd_ms;
      for (int r = 0; r < 5; ++r) {
        models::Encoder::Output out;
        fwd_ms.push_back(1e3 * Timed("autograd.Encoder.Forward", [&] {
                           out = encoder->Forward(input, tedges, {}, 0.0f,
                                                  /*training=*/true, &rng);
                         }));
        const ag::Variable loss = ag::NllLoss(ag::LogSoftmaxRows(out.logits),
                                              tds.labels, tds.train_idx);
        bwd_ms.push_back(
            1e3 * Timed("autograd.Backward", [&] { ag::Backward(loss); }));
        encoder->ZeroGrad();
      }
      Layer("autograd.forward_ms", "ms", Median(fwd_ms));
      Layer("autograd.backward_ms", "ms", Median(bwd_ms));
      omp_set_num_threads(focus_threads);
    }

    Layer("core.et_s", "s", Median(et_s_));
    Layer("core.epl_s", "s", Median(epl_s_));
    {
      std::vector<double> build_ms;
      for (int r = 0; r < 5; ++r) {
        session->InvalidateGraph();
        const double cold = Timed("core.InferenceSession.rebuild",
                                  [&] { session->Logits(); });
        const double warm = Timed("core.InferenceSession.ForwardLogits",
                                  [&] { session->ForwardLogits(); });
        build_ms.push_back(1e3 * (cold - warm));
      }
      Layer("core.artifact_build_ms", "ms", Median(build_ms));
    }
    Layer("core.shard_assembly_s", "s", Median(build_s_) - Median(part_s));
    Layer("core.shard_forward_max_ms", "ms", Median(shard_fwd_max_ms_));
    Layer("core.shard_forward_sum_ms", "ms", Median(shard_fwd_sum_ms_));
    const RateResult& nominal = rates_.front();
    const double lookups = static_cast<double>(nominal.cache.cache_hits +
                                               nominal.cache.cache_misses);
    Layer("core.cache_hit_frac", "frac",
          lookups > 0 ? static_cast<double>(nominal.cache.cache_hits) / lookups
                      : 0.0);

    {
      std::vector<int64_t> nodes(256);
      for (auto& v : nodes)
        v = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(ug_.num_nodes())));
      std::vector<double> us;
      for (int r = 0; r < 9; ++r)
        us.push_back(1e6 *
                     Timed("explain.ExplainMany",
                           [&] { serve_session_->ExplainMany(nodes, kExplainTopK); }) /
                     static_cast<double>(nodes.size()));
      Layer("explain.explain_us", "us", Median(us));
    }

    // Rebuild-bound tail latency. Not an end-to-end metric: on a shared box
    // its run-to-run spread exceeds any bound the benchmark may set.
    Layer("serve.read_p99_ms", "ms", nominal.p99_ms());
    const auto& s = nominal.sched;
    const double batches = std::max<int64_t>(s.batches, 1);
    Layer("serve.queue_wait_p99_ms", "ms", nominal.queue_wait_p99_ms());
    Layer("serve.batch_mean", "req", static_cast<double>(s.requests) / batches);
    Layer("serve.deadline_flush_frac", "frac",
          static_cast<double>(s.deadline_flushes) / batches);
    Layer("serve.forward_batch_frac", "frac",
          static_cast<double>(nominal.cache.cache_misses) / batches);
    Layer("serve.shed", "count", static_cast<double>(s.shed));
    Layer("serve.expired", "count",
          static_cast<double>(s.expired + s.expired_inflight));
    Layer("serve.degraded_served_frac", "frac",
          static_cast<double>(s.degraded_served) /
              std::max<double>(static_cast<double>(s.requests), 1.0));
    Layer("bench.send_late_p99_ms", "ms", nominal.send_late_p99_ms());
    omp_set_num_threads(threads_);
  }

  const Workload& wl_;
  const uint64_t seed_;
  const double seconds_;
  const int threads_, serve_threads_;

  std::vector<data::Dataset> ba_;
  data::Dataset sg_, ug_;
  models::TrainConfig scale_cfg_;
  std::vector<int64_t> all_nodes_;
  std::unique_ptr<core::SesModel> serve_model_;
  std::vector<tensor::Tensor> train_logits_;
  tensor::Tensor ref_;
  std::vector<int64_t> ref_class_;
  std::unique_ptr<models::BackboneModel> gcn_;
  std::unique_ptr<core::InferenceSession> scale_session_, serve_session_;

  // Samples, one per fit or round.
  std::vector<double> fit_s_, et_s_, epl_s_, acc_, auc_;
  std::vector<double> epoch_s_, cold_s_, fwd_ms_, build_s_, sharded_s_;
  std::vector<double> shard_fwd_max_ms_, shard_fwd_sum_ms_;
  bool forward_matches_ = true, parity_ = true;
  RateResult nominal_;

  std::vector<Metric> e2e_, layer_;
  std::vector<Check> checks_;
  std::vector<RateResult> rates_;
  std::vector<std::pair<std::string, uint64_t>> digests_;
  double timed_total_ = 0, gen_s_ = 0, edge_cut_ = 0, halo_ = 0;
};

void AppendMetrics(std::string* out, const std::vector<Metric>& ms) {
  for (size_t i = 0; i < ms.size(); ++i)
    *out += (i ? "," : "") + std::string("\"") + ms[i].name +
            "\":{\"value\":" + Num(ms[i].value) + ",\"unit\":\"" +
            ms[i].unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", -1);
  const double seconds = flags.GetDouble("seconds", 0);
  const int64_t trace = flags.GetInt("trace", 0);
  const std::string trace_out = flags.GetString("trace-out", "");
  // OpenMP team size of this thread's scale-stage and probe calls. Threads
  // the library starts (the scheduler worker) keep the process default,
  // OMP_NUM_THREADS.
  const int serve_threads = omp_get_max_threads();
  const int threads =
      static_cast<int>(flags.GetInt("threads", serve_threads));
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) wl = &w;
  if (wl == nullptr || seed < 0 || !(seconds > 0) ||
      (trace != 0 && trace != 1) || threads < 1) {
    std::fprintf(stderr,
                 "usage: ses_bench --workload=<scale-cold|serve-update> "
                 "--seed=<n >= 0> --seconds=<s > 0> "
                 "--trace=<0|1> [--threads=<n>] [--trace-out=<file>]\n");
    return 2;
  }

  // The traced run runs the journey twice, untraced and then traced, so the
  // difference between the two is the tracing overhead. Each takes half of
  // --seconds, so a traced run costs about what an untraced one does.
  const double journey_s = trace == 1 ? seconds / 2 : seconds;
  omp_set_num_threads(threads);
  Journey plain(*wl, static_cast<uint64_t>(seed), journey_s, threads,
                serve_threads);
  plain.Run(/*probes=*/false);
  std::unique_ptr<Journey> traced;
  if (trace == 1) {
    g_tracer.Enable();
    traced = std::make_unique<Journey>(*wl, static_cast<uint64_t>(seed),
                                       journey_s, threads, serve_threads);
    traced->Run(/*probes=*/true);
    if (!trace_out.empty() && !g_tracer.Write(trace_out))
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }

  std::vector<Check> checks = plain.checks();
  int64_t attempted = plain.attempted(), failed = plain.failed();
  std::vector<Metric> layer;
  if (traced) {
    checks.insert(checks.end(), traced->checks().begin(), traced->checks().end());
    attempted += traced->attempted();
    failed += traced->failed();
    layer = traced->per_layer();
    layer.push_back({"obs.trace_overhead_frac", "frac",
                     (traced->timed_total() - plain.timed_total()) /
                         plain.timed_total()});
  }
  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;
  for (const Metric& m : plain.end_to_end())
    if (!std::isfinite(m.value) || m.value <= 0) {
      checks.push_back({"positive_" + m.name, false, Num(m.value)});
      correct = false;
      ++failed;
    }

  std::string out = "{\"workload\":\"" + std::string(wl->name) +
                    "\",\"seed\":" + std::to_string(seed) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"simd_tier\":\"" +
                    kernels::TierName(kernels::ActiveTier()) +
                    "\",\"omp_threads\":" + std::to_string(threads) +
                    ",\"train_threads\":" + std::to_string(kTrainThreads) +
                    ",\"end_to_end\":{";
  AppendMetrics(&out, plain.end_to_end());
  out += "},\"per_layer\":{";
  AppendMetrics(&out, layer);
  out += "},\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i)
    out += std::string(i ? "," : "") + "{\"name\":\"" + checks[i].name +
           "\",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":\"" + checks[i].detail + "\"}";
  out += "],\"digests\":{";
  for (size_t i = 0; i < plain.digests().size(); ++i) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, plain.digests()[i].second);
    out += std::string(i ? "," : "") + "\"" + plain.digests()[i].first +
           "\":\"" + hex + "\"";
  }
  out += "},\"rates\":[";
  for (size_t i = 0; i < plain.rates().size(); ++i) {
    const RateResult& r = plain.rates()[i];
    out += std::string(i ? "," : "") + "{\"rate\":" + Num(r.rate) +
           ",\"seconds\":" + Num(r.seconds) +
           ",\"sent\":" + std::to_string(r.sent) +
           ",\"ok\":" + std::to_string(r.ok) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"met_limit\":" + std::to_string(r.met) +
           ",\"writes\":" + std::to_string(r.writes) +
           ",\"p50_ms\":" + Num(r.p50_ms()) + ",\"p99_ms\":" + Num(r.p99_ms()) +
           ",\"window_p99_ms\":[" + [&] {
             std::string w;
             for (double v : r.window_p99_ms) w += (w.empty() ? "" : ",") + Num(v);
             return w;
           }() + "]" +
           ",\"send_late_p99_ms\":" + Num(r.send_late_p99_ms()) +
           ",\"drain_ms\":" + Num(r.drain_ms) +
           ",\"goodput\":" + Num(r.goodput()) +
           ",\"batches\":" + std::to_string(r.sched.batches) +
           ",\"forwards\":" + std::to_string(r.cache.cache_misses) +
           ",\"valid\":" + (r.valid() ? "true" : "false") +
           ",\"pass\":" + (r.pass() ? "true" : "false") + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
