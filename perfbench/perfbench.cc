// perfbench — the repository benchmark driver.
//
//   perfbench --workload <wdc|abt> --seed N --seconds S --trace <0|1>
//             [--out DIR] [--baseline FILE]
//
// One workload is one generated data profile (see kProfiles). Every run
// executes the same stages on it, so every run reports every metric:
//
//   train   core::Trainer::Run for a fixed number of epochs (1 thread); the
//           other stages use the trained model
//   score   core::BatchMatchProbabilities in batches of 256 over every
//           pair: fp32 at 4 threads, fp32 at 1 thread, int8 at 1 thread
//   dedupe  pipeline::DedupeTables with the default TokenBlocker over two
//           catalogs built from the scored records (4 threads)
//   serve   an in-process serve::MatchService on an ephemeral port, 90%
//           /match and 10% /dedupe, one connection per request: an
//           open-loop steady phase, then a closed-loop saturate phase
//
// The seed drives the generator of the scored data, the catalogs and the
// arrival schedule; the training data, the model and the training recipe
// are fixed. Set-up (data generation, encoding, model construction,
// thread-pool spin-up, int8 packing, arena growth, server start) runs
// kSetupRepeats times and is reported as the median; timed regions start
// after it. Throughputs are reported at a reference host speed measured by
// a probe beside the work (see ProbeOnce).
//
// Every stage checks its outputs (Report::Checked); a mismatch counts as a
// failed operation and makes the run exit nonzero.
//
// --trace 0 prints the end-to-end metrics. --trace 1 enables the program's
// own counters (kernel-call shim, thread-pool clocks, request tracing),
// records spans around public calls into each layer from this file, replays
// the layers one by one, and prints the per-layer metrics. --baseline
// names the result line of an untraced run of the same seed; the traced run
// then also reports its tracing overhead per end-to-end metric.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// A fuller report (every metric plus per-stage detail) goes to
// DIR/<workload>-seed<N>-trace<T>.json, the per-sample values behind the
// metrics to <...>.samples.json; traced runs also write a Chrome trace and
// the per-layer table there.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/var.h"
#include "block/blocker.h"
#include "core/aoa.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/scoring.h"
#include "core/trainer.h"
#include "core/transformer_em.h"
#include "data/generator.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "pipeline/dedupe.h"
#include "serve/json.h"
#include "serve/service.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "util/metrics.h"
#include "util/request_trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace emba;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds one fixed multiply-add loop takes right now: the unit of work
/// of a ProbePool round. It shares no code with emba, so it tracks only the
/// host: the benchmark's host is shared, and its speed swings by up to 2x
/// over seconds.
double ProbeOnce() {
  constexpr int kN = 48;
  float a[kN * kN], b[kN * kN], c[kN * kN] = {};
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = 1.0f + static_cast<float>(i % 7) * 1e-3f;
    b[i] = 1.0f - static_cast<float>(i % 5) * 1e-3f;
  }
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float x = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
  }
  const double seconds = SecondsSince(t0);
  static volatile float sink;
  sink = sink + c[kN * kN / 2];
  return seconds;
}

/// c[m x n] = a[m x k] * b[k x n], plain loops.
void ProbeMatMul(const float* a, const float* b, float* c, int m, int k,
                 int n) {
  std::fill(c, c + m * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float x = a[i * k + p];
      for (int j = 0; j < n; ++j) c[i * n + j] += x * b[p * n + j];
    }
  }
}

/// Each row of h[rows x dim] to zero mean and unit variance, in place.
void ProbeLayerNorm(float* h, int rows, int dim) {
  for (int i = 0; i < rows; ++i) {
    float* row = h + i * dim;
    float mean = 0.0f, var = 0.0f;
    for (int j = 0; j < dim; ++j) mean += row[j];
    mean /= static_cast<float>(dim);
    for (int j = 0; j < dim; ++j) var += (row[j] - mean) * (row[j] - mean);
    const float inv = 1.0f / std::sqrt(var / static_cast<float>(dim) + 1e-5f);
    for (int j = 0; j < dim; ++j) row[j] = (row[j] - mean) * inv;
  }
}

/// Seconds one forward of a small fixed transformer takes right now: two
/// layers at the benchmark model's dimensions (dim 32, 4 heads, FFN 128)
/// over 48 tokens, in plain loops that share no code with emba. It runs
/// the mix of work a serial forward runs (small matrix products, softmax,
/// layer norm, GELU, fresh buffers per call), so host interference that
/// slows one slows the other by about as much; ProbeOnce()'s lone
/// multiply-add loop reacts more to some of it.
double ProbeModel() {
  constexpr int kL = 48, kD = 32, kHeads = 4, kF = 128, kLayer = 2;
  constexpr int kDh = kD / kHeads;
  constexpr int kPerLayer = kD * 3 * kD + kD * kD + kD * kF + kF * kD;
  static const std::vector<float> weights = [] {
    std::vector<float> w(static_cast<size_t>(kLayer * kPerLayer));
    uint32_t x = 12345;
    for (float& v : w) {
      x = x * 1664525u + 1013904223u;
      v = (static_cast<float>(x >> 8) / 16777216.0f - 0.5f) * 0.25f;
    }
    return w;
  }();
  const Clock::time_point t0 = Clock::now();
  std::vector<float> h(kL * kD), qkv(kL * 3 * kD), ctx(kL * kD),
      tmp(kL * kD), ff(kL * kF), p(kL);
  for (int i = 0; i < kL * kD; ++i) {
    h[static_cast<size_t>(i)] = static_cast<float>(i % 13) * 0.01f - 0.06f;
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(kDh));
  auto residual = [&] {
    for (size_t i = 0; i < h.size(); ++i) h[i] += tmp[i];
  };
  for (int layer = 0; layer < kLayer; ++layer) {
    const float* w = weights.data() + layer * kPerLayer;
    const float* wqkv = w;
    const float* wo = wqkv + kD * 3 * kD;
    const float* w1 = wo + kD * kD;
    const float* w2 = w1 + kD * kF;
    ProbeMatMul(h.data(), wqkv, qkv.data(), kL, kD, 3 * kD);
    for (int head = 0; head < kHeads; ++head) {
      for (int i = 0; i < kL; ++i) {
        const float* q = &qkv[static_cast<size_t>(i * 3 * kD + head * kDh)];
        float max = -1e30f;
        for (int j = 0; j < kL; ++j) {
          const float* k =
              &qkv[static_cast<size_t>(j * 3 * kD + kD + head * kDh)];
          float dot = 0.0f;
          for (int d = 0; d < kDh; ++d) dot += q[d] * k[d];
          p[static_cast<size_t>(j)] = dot * scale;
          max = std::max(max, p[static_cast<size_t>(j)]);
        }
        float sum = 0.0f;
        for (float& v : p) sum += (v = std::exp(v - max));
        float* out = &ctx[static_cast<size_t>(i * kD + head * kDh)];
        std::fill(out, out + kDh, 0.0f);
        for (int j = 0; j < kL; ++j) {
          const float* v =
              &qkv[static_cast<size_t>(j * 3 * kD + 2 * kD + head * kDh)];
          const float pj = p[static_cast<size_t>(j)] / sum;
          for (int d = 0; d < kDh; ++d) out[d] += pj * v[d];
        }
      }
    }
    ProbeMatMul(ctx.data(), wo, tmp.data(), kL, kD, kD);
    residual();
    ProbeLayerNorm(h.data(), kL, kD);
    ProbeMatMul(h.data(), w1, ff.data(), kL, kD, kF);
    for (float& v : ff) {
      v = 0.5f * v *
          (1.0f + std::tanh(0.7978845608f * (v + 0.044715f * v * v * v)));
    }
    ProbeMatMul(ff.data(), w2, tmp.data(), kL, kF, kD);
    residual();
    ProbeLayerNorm(h.data(), kL, kD);
  }
  const double seconds = SecondsSince(t0);
  static volatile float sink;
  sink = sink + h[kL * kD / 2];
  return seconds;
}

/// ProbeOnce() run the way a thread pool spreads work over `threads`
/// cores: the caller wakes threads-1 sleeping helpers, and every thread
/// takes ProbeOnce() calls from a shared count until none are left, as
/// core::BatchMatchProbabilities takes pairs; Seconds() is the wall time
/// until the last call is done. Besides slow cores it sees
/// helpers that do not run beside the caller. On a busy host the woken
/// helpers can queue on the caller's core for a minute at a time; 4-thread
/// scoring then runs at the serial rate while ProbeOnce() on each running
/// thread reads normal, and the caller then makes most of the calls itself,
/// as it scores most of the pairs itself.
class ProbePool {
 public:
  explicit ProbePool(int threads) : threads_(threads) {
    for (int t = 1; t < threads; ++t) helpers_.emplace_back([this] { Help(); });
  }
  ~ProbePool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : helpers_) t.join();
  }
  ProbePool(const ProbePool&) = delete;
  ProbePool& operator=(const ProbePool&) = delete;

  double Seconds() {
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++round_;
      pending_ = threads_ - 1;
      next_ = 0;
    }
    wake_.notify_all();
    RunChunks();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    return SecondsSince(start);
  }

 private:
  /// Long enough that waking the helpers is a small part of a round.
  static constexpr int kChunks = 64;

  void RunChunks() {
    while (next_.fetch_add(1) < kChunks) ProbeOnce();
  }

  void Help() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      lock.unlock();
      RunChunks();
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  const int threads_;
  std::mutex mutex_;
  std::condition_variable wake_, done_;
  uint64_t round_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::atomic<int> next_{0};  ///< ProbeOnce() calls taken this round
  std::vector<std::thread> helpers_;
};

/// Mean ProbeModel() over `threads` threads probing at the same time: the
/// host speed seen by work spread over that many cores in long calls.
double ProbeSeconds(int threads) {
  std::vector<double> seconds(static_cast<size_t>(threads));
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t) {
    others.emplace_back(
        [&seconds, t] { seconds[static_cast<size_t>(t)] = ProbeModel(); });
  }
  seconds[0] = ProbeModel();
  for (auto& t : others) t.join();
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum / threads;
}

/// ProbeModel() (and ProbeSeconds()) in the fastest runs on the host the
/// benchmark was tuned on; throughputs are reported as if the probe took
/// this long.
constexpr double kModelProbeReferenceS = 900e-6;
/// A 4-thread ProbePool round of kChunks calls on the same host.
constexpr double kPoolProbeReferenceS = 680e-6;
/// How far a rate follows its probe. When the host's cores slow, the model
/// probe slows more than emba's work does: over 32 trial runs emba's
/// run-median time grew as the 0.73rd to 0.89th power of the probe's, by
/// stage, and scaling in full over-corrected slow runs. When the pool's
/// helpers queue on the caller's core, a pool round and a 4-thread batch
/// slow by the same mechanism, so the pool probe scales in full (see
/// perfbench/README.md).
constexpr double kModelProbeElasticity = 0.75, kPoolProbeElasticity = 1.0;

/// A measured rate at the reference host speed: the rate times
/// (probe / reference)^elasticity.
double AtReference(double rate, double probe_s, double reference_s,
                   double elasticity) {
  return rate * std::pow(probe_s / reference_s, elasticity);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload profiles

struct Profile {
  const char* name;
  /// Training data (data::MakeByName), generated from kTrainDataSeed so
  /// that em_f1 is a deterministic function of the code.
  const char* train_dataset;
  int train_epochs;  ///< fixed: min_epochs == max_epochs
  /// Data the trained model scores, dedupes and serves; generated from
  /// --seed and encoded with the training set's tokenizer.
  const char* score_dataset;
  size_t dedupe_catalog;  ///< records per side of the DedupeTables input
  size_t serve_catalog;   ///< records behind /dedupe
  /// The service's capacity on this profile's 90/10 traffic: the
  /// saturate phase's closed-loop rate at zero rejections, where open-loop
  /// latency also leaves its floor (perfbench/README.md, "Serving knee").
  /// The steady phase offers kSteadyLoad of it.
  double serve_knee_rps;
};

// wdc: long pairs (~57 tokens with the training tokenizer), where attention
// and the thread pool dominate, and blocking keeps half the pair space, so
// the catalogs stay small: behind a 300-record catalog a /dedupe group has
// ~120 candidates, and overlapping groups overflow the batcher's 256-sample
// queue (429s already at 300 requests/s). abt: short pairs (~18 tokens),
// where per-op overhead, encoding and blocking weigh more. Epoch counts
// give each profile ~10k trained pairs.
const Profile kProfiles[] = {
    {"wdc", "wdc_computers_large", 6, "wdc_computers_xlarge", 80, 40, 1370.0},
    {"abt", "abt_buy", 18, "abt_buy", 300, 300, 1320.0},
};

// Shares of --seconds per stage; set-up and training do fixed work.
constexpr double kScoreShare = 0.20, kDedupeShare = 0.12, kSteadyShare = 0.56,
                 kSaturateShare = 0.12;
/// Steady-phase offered rate as a share of the profile's knee.
constexpr double kSteadyLoad = 0.40;
/// Windows of the steady phase; its tails pool the quietest
/// 1/kTailParts of them (~2,000 /match samples at --seconds 30).
constexpr size_t kTailWindows = 32, kTailParts = 4;

constexpr uint64_t kTrainDataSeed = 1;

constexpr int64_t kDim = 32, kLayers = 2, kHeads = 4;
constexpr int kMaxLen = 128;  ///< above every generated pair: no truncation
constexpr size_t kScoreBatch = 256;
constexpr int kThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kInt8F1Tolerance = 0.005;  ///< DESIGN.md §14
constexpr size_t kMatchBodies = 256;
constexpr size_t kDedupeQueries = 64;
constexpr size_t kReplayPairs = 512;

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Detail(const std::string& key, double value) {
    detail.emplace_back(key, serve::json::NumberToString(value));
  }
  /// The per-sample values behind a metric, for the samples report.
  void Samples(const std::string& key, const std::vector<double>& values) {
    samples.emplace_back(key, values);
  }
  void Checked(int64_t attempted_ops, int64_t failed_ops,
               const std::string& what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) {
      failures.push_back(what + ": " + std::to_string(failed_ops) + " of " +
                         std::to_string(attempted_ops) + " failed");
      std::fprintf(stderr, "perfbench: FAILED %s\n", failures.back().c_str());
    }
  }

  std::vector<Metric> e2e, layer;
  std::vector<std::pair<std::string, std::string>> detail;
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::vector<std::string> failures;
  int64_t attempted = 0, failed = 0;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << serve::json::NumberToString(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Span recorder for traced runs. Spans of one pair or request share `id`;
// a span's self time is its duration minus its children's.

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    int tid;
    int64_t begin_ns, end_ns, child_ns;
  };

  void Enable(bool on) { enabled_ = on; }

  int Begin(const char* name, uint64_t id) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, id, ThreadIndex(), NowNs(), 0, 0});
    const int index = static_cast<int>(spans_.size()) - 1;
    Stack().push_back(index);
    return index;
  }

  void End(int index) {
    if (index < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = now;
    std::vector<int>& stack = Stack();
    stack.pop_back();
    if (!stack.empty()) {
      spans_[static_cast<size_t>(stack.back())].child_ns +=
          span.end_ns - span.begin_ns;
    }
  }

  struct Aggregate {
    int64_t count = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Aggregate> Aggregates() const {
    std::map<std::string, Aggregate> out;
    for (const Span& s : spans_) {
      Aggregate& a = out[s.name];
      ++a.count;
      a.total_us += static_cast<double>(s.end_ns - s.begin_ns) / 1e3;
      a.self_us +=
          static_cast<double>(s.end_ns - s.begin_ns - s.child_ns) / 1e3;
    }
    return out;
  }
  /// Mean duration in microseconds of the spans named `name` (0 if none).
  double MeanUs(const std::string& name) const {
    const auto aggregates = Aggregates();
    auto it = aggregates.find(name);
    if (it == aggregates.end() || it->second.count == 0) return 0.0;
    return it->second.total_us / static_cast<double>(it->second.count);
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << static_cast<double>(s.begin_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"self_us\": "
          << static_cast<double>(s.end_ns - s.begin_ns - s.child_ns) / 1e3
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::vector<int>& Stack() {
    thread_local std::vector<int> stack;
    return stack;
  }
  static int ThreadIndex() {
    static std::atomic<int> next{1};
    thread_local int index = next.fetch_add(1);
    return index;
  }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanRecorder g_spans;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t id) : index_(g_spans.Begin(name, id)) {}
  ~ScopedSpan() { g_spans.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Counter deltas over a stage (the registry has no reset outside tests).

uint64_t CounterValue(const std::string& name) {
  return metrics::GetCounter(name).Value();
}

metrics::Histogram::Snapshot HistogramDelta(
    const metrics::Histogram::Snapshot& before,
    const metrics::Histogram::Snapshot& after) {
  metrics::Histogram::Snapshot delta = after;
  delta.count = 0;
  for (size_t b = 0; b < delta.bucket_counts.size(); ++b) {
    const uint64_t prev =
        b < before.bucket_counts.size() ? before.bucket_counts[b] : 0;
    delta.bucket_counts[b] -= prev;
    delta.count += delta.bucket_counts[b];
  }
  delta.sum = after.sum - before.sum;
  return delta;
}

const char* const kKernels[] = {
    "dot", "sum", "sum_sq", "centered_sum_sq", "max", "add", "sub", "mul",
    "scale", "add_scalar", "axpy", "mul_add", "matmul_block_axpy",
    "matmul_block_dot", "exp_sub_sum", "exp_sub_sum_const", "gelu",
    "gelu_backward", "softmax_backward_row", "layer_norm_forward_row",
    "min_max", "int8_quantize_row", "int8_gemm_dequant", "transpose2d"};

std::vector<uint64_t> KernelCalls() {
  std::vector<uint64_t> calls;
  for (const char* k : kKernels) {
    calls.push_back(CounterValue(std::string("kernels.calls.") + k));
  }
  return calls;
}

// ---------------------------------------------------------------------------
// HTTP client: one blocking request per connection.

struct HttpResult {
  int status = 0;  ///< 0 = transport error
  std::string body;
};

HttpResult Post(int port, const std::string& path, const std::string& body) {
  HttpResult result;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval timeout{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return result;
  }
  const std::string request =
      "POST " + path + " HTTP/1.1\r\nHost: bench\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  if (n < 0 || response.rfind("HTTP/1.1 ", 0) != 0) return result;
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + 9);
  result.body = response.substr(header_end + 4);
  return result;
}

// ---------------------------------------------------------------------------
// Set-up

/// How MatchService turns request text into a record (service.cc).
data::Record RecordFromText(const std::string& text) {
  data::Record record;
  record.attributes.emplace_back("text", text);
  return record;
}

/// First `cap` records of one side, distinct by description.
std::vector<data::Record> DistinctRecords(
    const std::vector<data::LabeledPair>& pairs, bool left, size_t cap) {
  std::vector<data::Record> out;
  std::set<std::string> seen;
  for (const auto& pair : pairs) {
    const data::Record& r = left ? pair.left : pair.right;
    if (seen.insert(r.Description()).second) out.push_back(r);
    if (out.size() >= cap) break;
  }
  return out;
}

struct World {
  core::EncodedDataset enc;  ///< training data and its tokenizer
  std::unique_ptr<Rng> model_rng;  ///< must outlive the model
  std::unique_ptr<core::EmModel> model;
  std::vector<data::LabeledPair> raw_pairs;  ///< scoring data, all splits
  std::vector<core::PairSample> pairs;       ///< raw_pairs, encoded
  std::vector<std::vector<core::PairSample>> batches;
  std::vector<data::Record> dedupe_left, dedupe_right;
  std::vector<data::Record> serve_catalog;
  std::vector<std::pair<std::string, std::string>> match_texts;
  std::vector<std::string> match_bodies;
  std::vector<std::string> dedupe_queries, dedupe_bodies;
};

void ScoreWarmup(const World& w) {
  core::BatchMatchProbabilities(*w.model, w.batches.front());
}

std::unique_ptr<World> Setup(const Profile& profile, uint64_t seed) {
  auto w = std::make_unique<World>();
  data::GeneratorOptions gen;
  gen.seed = kTrainDataSeed;
  auto train_data = data::MakeByName(profile.train_dataset, gen);
  EMBA_CHECK(train_data.ok());
  core::EncodeOptions encode;
  encode.max_len = kMaxLen;
  w->enc = core::EncodeDataset(*train_data, encode);

  gen.seed = seed * 2 + 2;  // even: never the training data's seed
  auto score_data = data::MakeByName(profile.score_dataset, gen);
  EMBA_CHECK(score_data.ok());
  for (const auto* split :
       {&score_data->train, &score_data->valid, &score_data->test}) {
    w->raw_pairs.insert(w->raw_pairs.end(), split->begin(), split->end());
  }
  core::ModelBudget budget;
  budget.dim = kDim;
  budget.layers = kLayers;
  budget.heads = kHeads;
  budget.max_len = kMaxLen;
  w->model_rng = std::make_unique<Rng>(7);
  auto model = core::CreateModel("emba", budget,
                                 w->enc.wordpiece->vocab().size(),
                                 w->enc.num_id_classes, w->model_rng.get());
  EMBA_CHECK(model.ok());
  w->model = std::move(*model);
  for (const auto& pair : w->raw_pairs) {
    w->pairs.push_back(
        core::EncodePair(w->enc, pair, w->model->input_style()));
  }
  for (size_t b = 0; b < w->pairs.size(); b += kScoreBatch) {
    const size_t e = std::min(w->pairs.size(), b + kScoreBatch);
    w->batches.emplace_back(w->pairs.begin() + static_cast<long>(b),
                            w->pairs.begin() + static_cast<long>(e));
  }

  w->dedupe_left = DistinctRecords(w->raw_pairs, true, profile.dedupe_catalog);
  w->dedupe_right =
      DistinctRecords(w->raw_pairs, false, profile.dedupe_catalog);
  w->serve_catalog =
      DistinctRecords(w->raw_pairs, false, profile.serve_catalog);
  for (size_t i = 0; i < w->raw_pairs.size() && i < kMatchBodies; ++i) {
    const auto& pair = w->raw_pairs[i];
    w->match_texts.emplace_back(pair.left.Description(),
                                pair.right.Description());
    w->match_bodies.push_back(
        "{\"left\": \"" + serve::json::Escape(pair.left.Description()) +
        "\", \"right\": \"" + serve::json::Escape(pair.right.Description()) +
        "\"}");
  }
  for (const auto& r : DistinctRecords(w->raw_pairs, true, kDedupeQueries)) {
    w->dedupe_queries.push_back(r.Description());
    w->dedupe_bodies.push_back("{\"record\": \"" +
                               serve::json::Escape(r.Description()) +
                               "\", \"top_k\": 10}");
  }

  // Warm-up: spin the pool up at both widths, pack int8 weights, grow the
  // per-thread arenas and resolve the kernel backend.
  w->model->SetTraining(false);
  SetGlobalThreads(1);
  ScoreWarmup(*w);
  int8::SetRuntimeMode(int8::Mode::kOn);
  ScoreWarmup(*w);
  int8::SetRuntimeMode(int8::Mode::kOff);
  SetGlobalThreads(kThreads);
  ScoreWarmup(*w);

  // Server start and its first requests.
  serve::MatchService service(w->model.get(), &w->enc, w->serve_catalog);
  EMBA_CHECK(service.Start(0).ok());
  for (size_t i = 0; i < 4; ++i) {
    Post(service.port(), "/match", w->match_bodies[i % w->match_bodies.size()]);
  }
  Post(service.port(), "/dedupe", w->dedupe_bodies.front());
  service.Shutdown();
  return w;
}

// ---------------------------------------------------------------------------
// Stages. Each returns its numbers through the Report and checks outputs.

struct Budget {
  double seconds;
  size_t min_passes;
};

/// Runs `pass` until the budget is spent (at least min_passes times) and
/// returns each pass's duration in seconds.
template <typename Fn>
std::vector<double> TimePasses(const Budget& budget, Fn pass) {
  std::vector<double> durations;
  const Clock::time_point start = Clock::now();
  while (durations.size() < budget.min_passes ||
         SecondsSince(start) < budget.seconds) {
    const Clock::time_point t0 = Clock::now();
    pass(durations.size());
    durations.push_back(SecondsSince(t0));
  }
  return durations;
}

double MatchF1(const std::vector<core::PairSample>& pairs,
               const std::vector<double>& scores) {
  std::vector<bool> truth, predicted;
  for (size_t i = 0; i < pairs.size(); ++i) {
    truth.push_back(pairs[i].match);
    predicted.push_back(scores[i] >= 0.5);
  }
  return core::ComputeBinaryMetrics(truth, predicted).f1;
}

struct TrainOutcome {
  double pairs_per_s = 0.0;
  double f1 = 0.0;
  /// Seconds of the probes run inside Trainer::Run (and its steps).
  double probe_s = 0.0;
};

/// Pairs per window of the training rate.
constexpr size_t kTrainWindow = 64;

/// Delegates to the model under training and times it in windows of
/// kTrainWindow trained pairs (one grad-mode Forward each). Before each
/// window it times ProbeModel() on the training thread, between two
/// forwards, so every window has the host speed of its own moment beside
/// it: Trainer::Run is one long call that cannot otherwise be interleaved
/// with probes. The probe is outside the window's time. Evaluation runs
/// with training off and is neither timed nor probed.
class WindowedModel : public core::EmModel {
 public:
  struct Window {
    size_t first_pair = 0;
    Clock::time_point begin, end;  ///< end is unset for the last window
    double probe_s = 0.0;  ///< ProbeModel() before the window
  };

  explicit WindowedModel(core::EmModel* inner) : inner_(inner) {
    RegisterModule("model", inner);
  }
  core::ModelOutput Forward(const core::PairSample& sample) const override {
    if (training()) {
      if (pairs_ % kTrainWindow == 0) {
        if (!windows_.empty()) windows_.back().end = Clock::now();
        const double probe_s = ProbeModel();
        windows_.push_back({pairs_, Clock::now(), {}, probe_s});
      }
      ++pairs_;
    }
    return inner_->Forward(sample);
  }
  bool has_aux_heads() const override { return inner_->has_aux_heads(); }
  core::InputStyle input_style() const override {
    return inner_->input_style();
  }
  std::string name() const override { return inner_->name(); }
  const std::vector<Window>& windows() const { return windows_; }

 private:
  core::EmModel* inner_;
  mutable size_t pairs_ = 0;
  mutable std::vector<Window> windows_;
};

/// Trains at one thread. At 4 threads the trainer sends each large matmul
/// to the pool as a fork-join of a few microseconds of work, so its rate
/// follows how fast the host wakes the pool's helpers, which no probe
/// tracked: with a 4-thread probe before each window, one run in five
/// trained 3x slower than the rest while its probe read 1.2x slower, and a
/// pool-shaped probe read 3.5x slower for stretches in which training kept
/// its rate, so that 4 runs in 13 reported 2.5x their rate.
TrainOutcome TrainStage(World& w, const Profile& profile, Report* report,
                        double* eval_share) {
  SetGlobalThreads(1);
  core::TrainConfig config;
  config.max_epochs = profile.train_epochs;
  config.min_epochs = profile.train_epochs;
  config.learning_rate = core::DefaultLearningRate("emba");
  config.heartbeat_seconds = 0.0;
  config.dropout_rng = w.model_rng.get();
  WindowedModel windowed(w.model.get());
  core::Trainer trainer(&windowed, &w.enc, config);
  const Clock::time_point t0 = Clock::now();
  const core::TrainResult result = trainer.Run();
  const double run_wall_s = SecondsSince(t0);
  TrainOutcome out;
  for (const WindowedModel::Window& win : windowed.windows()) {
    out.probe_s += win.probe_s;
  }
  const double run_s = run_wall_s - out.probe_s;  // Run without its probes
  const double raw = static_cast<double>(w.enc.train.size()) *
                     result.epochs_ran / run_s;
  report->Detail("train.raw_pairs_per_s", raw);
  // Each window's rate at the reference speed; windows that span the
  // evaluation between two epochs are left out.
  const size_t per_epoch = w.enc.train.size();
  std::vector<double> rates, probe_s, at_reference;
  for (const WindowedModel::Window& win : windowed.windows()) {
    if (win.end == Clock::time_point{} ||
        win.first_pair / per_epoch !=
            (win.first_pair + kTrainWindow) / per_epoch) {
      continue;
    }
    rates.push_back(static_cast<double>(kTrainWindow) /
                    std::chrono::duration<double>(win.end - win.begin).count());
    probe_s.push_back(win.probe_s);
    at_reference.push_back(
        AtReference(rates.back(), win.probe_s, kModelProbeReferenceS,
                    kModelProbeElasticity));
  }
  out.pairs_per_s = perfbench::Median(at_reference);
  report->Detail("train.windows", static_cast<double>(rates.size()));
  report->Detail("train.raw_median_window_pairs_per_s", perfbench::Median(rates));
  report->Detail("train.probe_median_us", perfbench::Median(probe_s) * 1e6);
  report->Samples("train.window_rate", rates);
  report->Samples("train.window_probe", probe_s);
  out.f1 = result.test.em.f1;

  int64_t bad = 0;
  for (double loss : result.epoch_train_loss) bad += !std::isfinite(loss);
  if (result.epochs_ran != profile.train_epochs) ++bad;
  report->Checked(profile.train_epochs, bad, "train: finite epoch losses");

  if (eval_share != nullptr) {
    // Trainer::Run evaluates the validation split after every epoch and the
    // test split once; time the same calls on the trained model.
    const Clock::time_point v0 = Clock::now();
    trainer.Evaluate(w.enc.valid);
    const double valid_s = SecondsSince(v0);
    const Clock::time_point t1 = Clock::now();
    trainer.Evaluate(w.enc.test);
    const double test_s = SecondsSince(t1);
    *eval_share = (valid_s * result.epochs_ran + test_s) / run_s;
  }
  w.model->SetTraining(false);
  return out;
}

struct ScoreOutcome {
  double fp32_pairs_per_s = 0.0, serial_pairs_per_s = 0.0,
         int8_pairs_per_s = 0.0;
};

ScoreOutcome ScoreStage(World& w, double seconds, Report* report) {
  core::EmModel& model = *w.model;
  model.SetTraining(false);
  const size_t n = w.pairs.size();

  // Reference: single-pair scoring, fp32.
  std::vector<double> reference(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = core::MatchProbability(model, w.pairs[i]);
  }
  const double reference_f1 = MatchF1(w.pairs, reference);

  struct Mode {
    const char* name;
    int threads;
    bool int8;
    double share;  ///< of the stage's `seconds`
    double* out;
    std::vector<double> scores;  ///< first score of every pair
    std::vector<double> batch_rates;
    size_t next_batch = 0;
    int64_t repeated = 0, unrepeatable = 0;
    std::vector<double> probe_s;  ///< the mode's probe after each batch
  };
  ScoreOutcome out;
  Mode modes[] = {
      {"fp32@4", kThreads, false, 0.30, &out.fp32_pairs_per_s, {}, {}, 0, 0, 0, {}},
      {"fp32@1", 1, false, 0.35, &out.serial_pairs_per_s, {}, {}, 0, 0, 0, {}},
      {"int8@1", 1, true, 0.35, &out.int8_pairs_per_s, {}, {}, 0, 0, 0, {}},
  };
  // The modes take turns in short slices, so each one samples the whole
  // stage's span of host conditions, and every batch is timed on its own.
  // A mode's rate is the median over its batches. After each batch a mode
  // times its probe, ProbeModel() for the serial modes and a ProbePool round
  // for fp32@4, and reports the batch rate scaled to the probe's reference
  // time, which cancels the shared host's swings. Each mode scores every
  // pair at least once; later passes must repeat the first bit for bit.
  ProbePool pool(kThreads);
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (Mode& mode : modes) {
      SetGlobalThreads(mode.threads);
      int8::SetRuntimeMode(mode.int8 ? int8::Mode::kOn : int8::Mode::kOff);
      ScoreWarmup(w);  // new pool threads; int8 repacking after training
      mode.scores.resize(n);
      const uint64_t span_id =
          static_cast<uint64_t>(mode.threads * 10 + (mode.int8 ? 1 : 0));
      const double slice = seconds * mode.share / kRounds;
      const Clock::time_point start = Clock::now();
      while (SecondsSince(start) < slice ||
             (round == kRounds - 1 && mode.next_batch < w.batches.size())) {
        const size_t b = mode.next_batch % w.batches.size();
        const auto& batch = w.batches[b];
        const Clock::time_point t0 = Clock::now();
        std::vector<double> p;
        {
          ScopedSpan span("core.batch_match_probabilities", span_id);
          p = core::BatchMatchProbabilities(model, batch);
        }
        mode.batch_rates.push_back(static_cast<double>(batch.size()) /
                                   SecondsSince(t0));
        mode.probe_s.push_back(mode.threads == 1 ? ProbeModel() : pool.Seconds());
        const auto first = mode.scores.begin() +
                           static_cast<long>(b * kScoreBatch);
        if (mode.next_batch < w.batches.size()) {
          std::copy(p.begin(), p.end(), first);
        } else {
          mode.repeated += static_cast<int64_t>(p.size());
          for (size_t i = 0; i < p.size(); ++i) {
            mode.unrepeatable += p[i] != first[static_cast<long>(i)];
          }
        }
        ++mode.next_batch;
      }
    }
  }
  for (Mode& mode : modes) {
    const std::vector<double>& scores = mode.scores;
    std::vector<double> at_reference;  // rates at the reference speed
    for (size_t i = 0; i < mode.batch_rates.size(); ++i) {
      at_reference.push_back(
          mode.threads == 1
              ? AtReference(mode.batch_rates[i], mode.probe_s[i],
                            kModelProbeReferenceS, kModelProbeElasticity)
              : AtReference(mode.batch_rates[i], mode.probe_s[i],
                            kPoolProbeReferenceS, kPoolProbeElasticity));
    }
    *mode.out = perfbench::Median(at_reference);
    const std::string prefix = std::string("score.") + mode.name;
    report->Detail(prefix + ".batches",
                   static_cast<double>(mode.batch_rates.size()));
    report->Detail(prefix + ".raw_median_pairs_per_s",
                   perfbench::Median(mode.batch_rates));
    report->Detail(prefix + ".raw_iqr_share",
                   perfbench::RelativeIqr(mode.batch_rates));
    report->Detail(prefix + ".probe_median_us",
                   perfbench::Median(mode.probe_s) * 1e6);
    report->Samples(prefix + ".rate", mode.batch_rates);
    report->Samples(prefix + ".probe", mode.probe_s);
    report->Checked(mode.repeated, mode.unrepeatable,
                    "score " + std::string(mode.name) +
                        ": repeated passes bit-identical");
    if (!mode.int8) {
      int64_t mismatched = 0;
      for (size_t i = 0; i < n; ++i) mismatched += scores[i] != reference[i];
      report->Checked(static_cast<int64_t>(n), mismatched,
                      std::string("score ") + mode.name +
                          ": bit-identical to MatchProbability");
    } else {
      double max_abs = 0.0;
      for (size_t i = 0; i < n; ++i) {
        max_abs = std::max(max_abs, std::fabs(scores[i] - reference[i]));
      }
      report->Detail("score.int8.f1_delta",
                     MatchF1(w.pairs, scores) - reference_f1);
      report->Detail("score.int8.max_abs_score_delta", max_abs);
    }
  }

  // DESIGN.md §14's int8 contract is stated on a fixed bench dataset: match
  // F1 within 0.005 of fp32. The training set's test split is that fixed
  // set here, so the check is the same on every seed.
  SetGlobalThreads(1);
  const double test_f1 =
      MatchF1(w.enc.test, core::BatchMatchProbabilities(model, w.enc.test));
  int8::SetRuntimeMode(int8::Mode::kOn);
  const double test_f1_int8 =
      MatchF1(w.enc.test, core::BatchMatchProbabilities(model, w.enc.test));
  report->Detail("score.int8.test_f1_delta", test_f1_int8 - test_f1);
  report->Checked(1, std::fabs(test_f1_int8 - test_f1) > kInt8F1Tolerance,
                  "score int8: test-split match F1 within 0.005 of fp32");
  int8::SetRuntimeMode(int8::Mode::kOff);
  SetGlobalThreads(kThreads);
  return out;
}

struct DedupeOutcome {
  double pairs_per_s = 0.0;
  size_t candidates = 0;
};

DedupeOutcome DedupeStage(World& w, double seconds, Report* report) {
  SetGlobalThreads(kThreads);
  const block::TokenBlocker blocker;
  pipeline::DedupeResult first;
  std::vector<double> probe_s;
  const auto durations = TimePasses({seconds, 3}, [&](size_t pass) {
    {
      ScopedSpan span("pipeline.dedupe_tables", pass);
      pipeline::DedupeResult result = pipeline::DedupeTables(
          w.model.get(), w.enc, blocker, w.dedupe_left, w.dedupe_right);
      if (pass == 0) first = std::move(result);
    }
    probe_s.push_back(ProbeSeconds(kThreads));
  });
  DedupeOutcome out;
  out.candidates = first.scored.size();
  std::vector<double> rates, at_reference;
  for (size_t i = 0; i < durations.size(); ++i) {
    rates.push_back(static_cast<double>(out.candidates) / durations[i]);
    at_reference.push_back(
        AtReference(rates.back(), probe_s[i], kModelProbeReferenceS,
                    kModelProbeElasticity));
  }
  out.pairs_per_s = perfbench::Median(at_reference);
  report->Detail("dedupe.raw_median_pairs_per_s", perfbench::Median(rates));
  report->Detail("dedupe.candidates", static_cast<double>(out.candidates));
  report->Detail("dedupe.calls", static_cast<double>(durations.size()));
  report->Detail("dedupe.rate_iqr_share", perfbench::RelativeIqr(rates));
  report->Samples("dedupe.rate", rates);
  report->Samples("dedupe.probe", probe_s);

  // A fixed sample of the scored candidates against the single-pair
  // reference.
  const size_t stride = std::max<size_t>(1, first.scored.size() / 64);
  int64_t checked = 0, mismatched = 0;
  for (size_t c = 0; c < first.scored.size(); c += stride) {
    const pipeline::ScoredPair& s = first.scored[c];
    data::LabeledPair pair;
    pair.left = w.dedupe_left[s.left_index];
    pair.right = w.dedupe_right[s.right_index];
    const double expected = core::MatchProbability(
        *w.model,
        core::EncodePair(w.enc, pair, w.model->input_style()));
    ++checked;
    mismatched += expected != s.match_probability;
  }
  report->Checked(checked, mismatched,
                  "dedupe: sampled scores equal MatchProbability");
  return out;
}

// ---- serve ----

struct Outcome {
  bool dedupe = false;
  size_t body = 0;
  int status = 0;
  double latency_ms = 0.0;   ///< from the scheduled (or send) time
  double lateness_ms = 0.0;  ///< send time minus scheduled time
  double done_s = 0.0;       ///< saturate: completion, from the phase start
  std::string response;
};

struct PhaseStats {
  size_t offered = 0, ok = 0, r429 = 0, r503 = 0, r5xx = 0, transport = 0,
         other = 0, wrong = 0;
};

struct ServeExpectations {
  std::vector<double> match;  ///< per match body
  /// Per dedupe body: (catalog_index, P(match)) in served rank order.
  std::vector<std::vector<std::pair<size_t, double>>> dedupe;
  std::vector<size_t> dedupe_considered;
};

ServeExpectations ExpectedServeOutputs(const World& w,
                                       const serve::ServeConfig& config) {
  ServeExpectations ex;
  const core::EmModel& model = *w.model;
  for (const auto& [left, right] : w.match_texts) {
    data::LabeledPair pair;
    pair.left = RecordFromText(left);
    pair.right = RecordFromText(right);
    ex.match.push_back(core::MatchProbability(
        model, core::EncodePair(w.enc, pair, model.input_style())));
  }
  const block::TokenBlocker blocker(config.blocker);
  for (const std::string& query : w.dedupe_queries) {
    const pipeline::CandidateSet candidates = pipeline::BuildCandidateSamples(
        w.enc, blocker, RecordFromText(query), w.serve_catalog,
        model.input_style());
    std::vector<double> scores;
    for (const auto& s : candidates.samples) {
      scores.push_back(core::MatchProbability(model, s));
    }
    std::vector<size_t> order(scores.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return scores[a] > scores[b]; });
    if (order.size() > static_cast<size_t>(config.dedupe_top_k)) {
      order.resize(static_cast<size_t>(config.dedupe_top_k));
    }
    std::vector<std::pair<size_t, double>> ranked;
    for (size_t c : order) {
      ranked.emplace_back(candidates.catalog_indices[c], scores[c]);
    }
    ex.dedupe.push_back(std::move(ranked));
    ex.dedupe_considered.push_back(scores.size());
  }
  return ex;
}

bool ResponseMatches(const Outcome& o, const ServeExpectations& ex) {
  auto parsed = serve::json::Parse(o.response);
  if (!parsed.ok()) return false;
  if (!o.dedupe) {
    const serve::json::Value* p = parsed->Find("match_probability");
    return p != nullptr && p->is_number() && p->AsNumber() == ex.match[o.body];
  }
  const serve::json::Value* considered = parsed->Find("candidates_considered");
  const serve::json::Value* list = parsed->Find("candidates");
  if (considered == nullptr || list == nullptr || !list->is_array()) {
    return false;
  }
  if (considered->AsNumber() !=
      static_cast<double>(ex.dedupe_considered[o.body])) {
    return false;
  }
  const auto& expected = ex.dedupe[o.body];
  if (list->AsArray().size() != expected.size()) return false;
  for (size_t r = 0; r < expected.size(); ++r) {
    const serve::json::Value& item = list->AsArray()[r];
    const serve::json::Value* index = item.Find("catalog_index");
    const serve::json::Value* p = item.Find("match_probability");
    if (index == nullptr || p == nullptr ||
        index->AsNumber() != static_cast<double>(expected[r].first) ||
        p->AsNumber() != expected[r].second) {
      return false;
    }
  }
  return true;
}

PhaseStats Tally(const std::vector<Outcome>& outcomes,
                 const ServeExpectations& ex) {
  PhaseStats s;
  s.offered = outcomes.size();
  for (const Outcome& o : outcomes) {
    if (o.status == 200) {
      ++s.ok;
      if (!ResponseMatches(o, ex)) ++s.wrong;
    } else if (o.status == 429) {
      ++s.r429;
    } else if (o.status == 503) {
      ++s.r503;
    } else if (o.status >= 500) {
      ++s.r5xx;
    } else if (o.status == 0) {
      ++s.transport;
    } else {
      ++s.other;
    }
  }
  return s;
}

void ReportPhase(const char* phase, const PhaseStats& s, Report* report) {
  const std::string p = std::string("serve.") + phase + ".";
  report->Detail(p + "offered", static_cast<double>(s.offered));
  report->Detail(p + "ok_200", static_cast<double>(s.ok));
  report->Detail(p + "rejected_429", static_cast<double>(s.r429));
  report->Detail(p + "unavailable_503", static_cast<double>(s.r503));
  report->Detail(p + "server_5xx", static_cast<double>(s.r5xx));
  report->Detail(p + "transport_errors", static_cast<double>(s.transport));
  report->Detail(p + "wrong_outputs", static_cast<double>(s.wrong));
  const int64_t failed = static_cast<int64_t>(s.offered - s.ok + s.wrong);
  report->Checked(static_cast<int64_t>(s.offered), failed,
                  std::string("serve ") + phase +
                      ": 200 with offline-identical scores");
}

struct ServeOutcome {
  double match_p50_ms = 0.0, match_p99_ms = 0.0, dedupe_tail_ms = 0.0;
  double goodput_rps = 0.0;
  double steady_start_unix = 0.0, steady_end_unix = 0.0;
  PhaseStats saturate;
  uint64_t steady_batches = 0, steady_deadline_fires = 0;
  double steady_batch_mean = 0.0;
};

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

ServeOutcome ServeStage(World& w, const Profile& profile, uint64_t seed,
                        double seconds, const std::string& access_log,
                        Report* report) {
  SetGlobalThreads(kThreads);
  serve::ServeConfig config;
  const ServeExpectations expected = ExpectedServeOutputs(w, config);
  double considered = 0.0;
  for (size_t c : expected.dedupe_considered) considered += static_cast<double>(c);
  report->Detail("serve.dedupe_candidates_mean",
                 considered / static_cast<double>(expected.dedupe_considered.size()));
  serve::MatchService service(w.model.get(), &w.enc, w.serve_catalog, config);
  EMBA_CHECK(service.Start(0).ok());
  const int port = service.port();
  auto send = [&](Outcome* o) {
    HttpResult r =
        o->dedupe ? Post(port, "/dedupe", w.dedupe_bodies[o->body])
                  : Post(port, "/match", w.match_bodies[o->body]);
    o->status = r.status;
    o->response = std::move(r.body);
  };
  ServeOutcome out;

  // Steady: open-loop Poisson arrivals, conditioned on their count (sorted
  // uniform times), exactly 10% of them /dedupe. Latency runs from the
  // scheduled arrival.
  const double steady_s = seconds * kSteadyShare;
  const double rate_rps = profile.serve_knee_rps * kSteadyLoad;
  const size_t offered = static_cast<size_t>(std::llround(rate_rps * steady_s));
  Rng rng(seed * 7919 + 17);
  std::vector<double> at_s(offered);
  for (double& t : at_s) t = rng.Uniform(0.0, steady_s);
  std::sort(at_s.begin(), at_s.end());
  std::vector<Outcome> steady(offered);
  for (size_t i = 0; i < offered; ++i) {
    steady[i].dedupe = i < offered / 10;
  }
  rng.Shuffle(&steady);
  for (Outcome& o : steady) {
    o.body = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(o.dedupe ? w.dedupe_bodies.size()
                                         : w.match_bodies.size()) -
               1));
  }
  if (!access_log.empty()) {
    std::remove(access_log.c_str());
    EMBA_CHECK(rtrace::SetAccessLogPath(access_log).ok());
  }
  const uint64_t batches0 = CounterValue("serve.batches_total");
  const uint64_t deadline0 = CounterValue("serve.batch_deadline_fires");
  const auto batch_size0 =
      metrics::GetHistogram("serve.batch_size").GetSnapshot();
  out.steady_start_unix = UnixNow();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  {
    // Each free sender takes the earliest unsent arrival, so a request
    // waits on the generator only while all senders are busy.
    std::atomic<size_t> next{0};
    std::vector<std::thread> senders;
    for (int s = 0; s < kThreads; ++s) {
      senders.emplace_back([&] {
        for (size_t i = next++; i < offered; i = next++) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(at_s[i]));
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          ScopedSpan span(steady[i].dedupe ? "serve.request.dedupe"
                                           : "serve.request.match",
                          i);
          send(&steady[i]);
          steady[i].lateness_ms = MsBetween(due, sent);
          steady[i].latency_ms = MsBetween(due, Clock::now());
        }
      });
    }
    for (auto& t : senders) t.join();
  }
  out.steady_end_unix = UnixNow();
  if (!access_log.empty()) EMBA_CHECK(rtrace::SetAccessLogPath("").ok());
  out.steady_batches = CounterValue("serve.batches_total") - batches0;
  out.steady_deadline_fires =
      CounterValue("serve.batch_deadline_fires") - deadline0;
  const auto batch_size = HistogramDelta(
      batch_size0, metrics::GetHistogram("serve.batch_size").GetSnapshot());
  out.steady_batch_mean =
      batch_size.count > 0 ? batch_size.sum / static_cast<double>(batch_size.count)
                           : 0.0;

  // Tails are taken over the quietest quarter of the schedule's windows:
  // host stalls of 10-50 ms come in bursts, and a window that catches one
  // has an outsized p99, while a change to the service moves every window.
  // Windows are ranked by their /match p99; both tails pool the same ones.
  std::vector<double> match_ms, dedupe_ms, lateness_ms;
  std::vector<std::vector<double>> match_window(kTailWindows),
      dedupe_window(kTailWindows);
  for (size_t i = 0; i < offered; ++i) {
    const Outcome& o = steady[i];
    lateness_ms.push_back(o.lateness_ms);
    if (o.status != 200) continue;
    const size_t window =
        std::min(kTailWindows - 1,
                 static_cast<size_t>(at_s[i] / steady_s * kTailWindows));
    (o.dedupe ? dedupe_window : match_window)[window].push_back(o.latency_ms);
    (o.dedupe ? dedupe_ms : match_ms).push_back(o.latency_ms);
  }
  const PhaseStats steady_stats = Tally(steady, expected);
  ReportPhase("steady", steady_stats, report);
  out.match_p50_ms = perfbench::Median(match_ms);
  for (size_t k = 0; k < kTailWindows; ++k) {
    report->Samples("serve.match_ms." + std::to_string(k), match_window[k]);
    report->Samples("serve.dedupe_ms." + std::to_string(k), dedupe_window[k]);
  }
  const std::vector<size_t> quiet =
      perfbench::QuietestWindows(match_window, 99.0, kTailParts);
  const perfbench::TailPercentile match_tail =
      perfbench::HighestSupportedPercentile(
          perfbench::Pool(match_window, quiet));
  const perfbench::TailPercentile dedupe_tail =
      perfbench::HighestSupportedPercentile(
          perfbench::Pool(dedupe_window, quiet));
  out.match_p99_ms = match_tail.value;
  out.dedupe_tail_ms = dedupe_tail.value;
  report->Detail("serve.steady.rate_rps", rate_rps);
  report->Detail("serve.steady.match_tail_samples",
                 static_cast<double>(match_tail.samples));
  report->Detail("serve.steady.match_tail_percentile", match_tail.percentile);
  report->Detail("serve.steady.dedupe_tail_samples",
                 static_cast<double>(dedupe_tail.samples));
  report->Detail("serve.steady.dedupe_tail_percentile",
                 dedupe_tail.percentile);
  report->Detail("serve.steady.match_p99_whole_phase_ms",
                 perfbench::HighestSupportedPercentile(match_ms).value);
  report->Detail("serve.steady.dedupe_p50_ms", perfbench::Median(dedupe_ms));
  const double max_late = lateness_ms.empty()
                              ? 0.0
                              : *std::max_element(lateness_ms.begin(),
                                                  lateness_ms.end());
  report->Detail("serve.steady.generator_late_p50_ms",
                 perfbench::Median(lateness_ms));
  report->Detail("serve.steady.generator_late_p99_ms",
                 perfbench::Percentile(lateness_ms, 99.0));
  report->Detail("serve.steady.generator_late_max_ms", max_late);
  report->Checked(1, perfbench::Percentile(lateness_ms, 99.0) > kLatencyLimitMs,
                  "serve steady: generator within the latency limit of its "
                  "schedule");

  // Saturate: closed loop, kThreads clients back to back.
  const double saturate_s = seconds * kSaturateShare;
  std::vector<std::vector<Outcome>> per_client(kThreads);
  const Clock::time_point sat_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c) {
      clients.emplace_back([&, c] {
        Rng pick(seed * 104729 + static_cast<uint64_t>(c));
        while (SecondsSince(sat_start) < saturate_s) {
          Outcome o;
          o.dedupe = pick.Uniform(0.0, 1.0) < 0.1;
          o.body = static_cast<size_t>(pick.UniformInt(
              0, static_cast<int64_t>(o.dedupe ? w.dedupe_bodies.size()
                                               : w.match_bodies.size()) -
                     1));
          const Clock::time_point t0 = Clock::now();
          send(&o);
          o.latency_ms = MsBetween(t0, Clock::now());
          o.done_s = SecondsSince(sat_start);
          per_client[static_cast<size_t>(c)].push_back(std::move(o));
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double sat_elapsed = SecondsSince(sat_start);
  std::vector<Outcome> saturate;
  for (auto& v : per_client) {
    for (auto& o : v) saturate.push_back(std::move(o));
  }
  out.saturate = Tally(saturate, expected);
  ReportPhase("saturate", out.saturate, report);
  // Goodput per window of the phase, by completion time, and the median
  // over the windows, as for the steady tails.
  constexpr size_t kGoodputWindows = 6;
  std::vector<double> good_per_s(kGoodputWindows, 0.0);
  size_t good = 0;
  for (const Outcome& o : saturate) {
    if (o.status != 200 || o.latency_ms > kLatencyLimitMs) continue;
    ++good;
    if (o.done_s < saturate_s) {
      good_per_s[static_cast<size_t>(o.done_s / saturate_s * kGoodputWindows)] +=
          kGoodputWindows / saturate_s;
    }
  }
  out.goodput_rps = perfbench::Median(good_per_s);
  report->Detail("serve.saturate.goodput_whole_phase_rps",
                 static_cast<double>(good) / sat_elapsed);
  report->Detail("serve.saturate.seconds", sat_elapsed);
  report->Detail("serve.saturate.within_limit", static_cast<double>(good));
  service.Shutdown();
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer replay (traced runs): each layer called on its own, from here.

struct ReplayOutcome {
  double tokens_per_pair = 0.0;
};

ReplayOutcome ReplayLayers(World& w) {
  SetGlobalThreads(1);
  int8::SetRuntimeMode(int8::Mode::kOff);
  auto* em = dynamic_cast<core::TransformerEmModel*>(w.model.get());
  EMBA_CHECK(em != nullptr);
  const nn::TransformerEncoder& encoder = em->encoder();
  const size_t n = std::min(kReplayPairs, w.pairs.size());
  ReplayOutcome out;

  // Separate layer instances at the model's dimensions.
  Rng rng(99);
  nn::Embedding token(w.enc.wordpiece->vocab().size(), kDim, &rng);
  nn::Embedding position(kMaxLen, kDim, &rng);
  nn::Embedding segment(2, kDim, &rng);
  nn::MultiHeadSelfAttention attention(kDim, kHeads, 0.1f, &rng);
  nn::Linear ffn1(kDim, 2 * kDim, &rng), ffn2(2 * kDim, kDim, &rng);
  nn::LayerNorm norm(kDim);
  attention.SetTraining(false);

  double tokens = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const core::PairSample& sample = w.pairs[i];
    const auto& enc = sample.enc;
    const int64_t len = enc.length();
    tokens += static_cast<double>(len);
    {
      ScopedSpan span("text.encode", i);
      core::EncodePair(w.enc, w.raw_pairs[i], w.model->input_style());
    }
    ag::InferenceModeGuard inference;
    ActivationArena::Scope arena;
    {
      ScopedSpan span("core.forward", i);
      core::ModelOutput o = w.model->Forward(sample);
    }
    ActivationArena::Reset();
    {
      ag::Var hidden;
      {
        ScopedSpan span("nn.encoder", i);
        hidden = encoder.Forward(enc.token_ids, enc.segment_ids);
      }
      int64_t b1 = enc.e1_begin, e1 = enc.e1_end, b2 = enc.e2_begin,
              e2 = enc.e2_end;
      if (e1 <= b1) b1 = 0, e1 = 1;
      if (e2 <= b2) b2 = 0, e2 = 1;
      ScopedSpan span("core.aoa", i);
      core::AttentionOverAttention(ag::RowSlice(hidden, b1, e1),
                                   ag::RowSlice(hidden, b2, e2));
    }
    ActivationArena::Reset();

    std::vector<int> positions(static_cast<size_t>(len));
    for (int64_t p = 0; p < len; ++p) positions[static_cast<size_t>(p)] = static_cast<int>(p);
    {
      ScopedSpan span("nn.embedding", i);
      token.Forward(enc.token_ids);
      position.Forward(positions);
      segment.Forward(enc.segment_ids);
    }
    ag::Var x(Tensor::RandomNormal({len, kDim}, &rng));
    ag::Var h(Tensor::RandomNormal({len, 2 * kDim}, &rng));
    {
      ScopedSpan span("nn.attention", i);
      for (int64_t l = 0; l < kLayers; ++l) attention.Forward(x);
    }
    {
      ScopedSpan span("nn.linear", i);
      for (int64_t l = 0; l < kLayers; ++l) {
        ffn1.Forward(x);
        ffn2.Forward(h);
      }
    }
    {
      ScopedSpan span("nn.layernorm", i);
      for (int64_t l = 0; l < 2 * kLayers + 1; ++l) norm.Forward(x);
    }
    {
      ScopedSpan span("nn.gelu", i);
      for (int64_t l = 0; l < kLayers; ++l) ag::Gelu(h);
    }
    int8::SetRuntimeMode(int8::Mode::kOn);
    {
      ScopedSpan span("nn.linear_int8", i);
      for (int64_t l = 0; l < kLayers; ++l) {
        ffn1.Forward(x);
        ffn2.Forward(h);
      }
    }
    int8::SetRuntimeMode(int8::Mode::kOff);
    ActivationArena::Reset();
  }
  out.tokens_per_pair = tokens / static_cast<double>(n);

  // Grad mode, as training runs it (dropout on, graph recorded).
  const size_t train_n = std::min(kReplayPairs, w.enc.train.size());
  w.model->SetTraining(true);
  for (size_t i = 0; i < n; ++i) {
    const auto& enc = w.pairs[i].enc;
    ScopedSpan span("nn.encoder_grad", i);
    encoder.Forward(enc.token_ids, enc.segment_ids);
  }
  for (size_t i = 0; i < train_n; ++i) {
    ScopedSpan span("core.train_forward", i);
    w.model->Forward(w.enc.train[i]);
  }
  w.model->SetTraining(false);
  SetGlobalThreads(kThreads);
  return out;
}

struct PipelineSplit {
  double wall_ms = 0.0, block_ms = 0.0, encode_ms = 0.0, score_ms = 0.0;
  block::BlockingQuality quality;
};

/// DedupeTables wall time beside its parts, each replayed through the same
/// public calls DedupeTables makes (medians of interleaved repetitions).
PipelineSplit SplitDedupe(World& w) {
  SetGlobalThreads(kThreads);
  const block::TokenBlocker blocker;
  std::vector<double> wall, block_ms, encode_ms, score_ms;
  std::vector<block::CandidatePair> candidates;
  for (uint64_t r = 0; r < 5; ++r) {
    Clock::time_point t0 = Clock::now();
    pipeline::DedupeTables(w.model.get(), w.enc, blocker, w.dedupe_left,
                           w.dedupe_right);
    wall.push_back(SecondsSince(t0) * 1e3);
    t0 = Clock::now();
    {
      ScopedSpan span("block.candidates", r);
      candidates = blocker.Candidates(w.dedupe_left, w.dedupe_right);
    }
    block_ms.push_back(SecondsSince(t0) * 1e3);
    std::vector<core::PairSample> samples(candidates.size());
    t0 = Clock::now();
    {
      ScopedSpan span("pipeline.encode", r);
      GlobalThreadPool().ParallelFor(
          0, static_cast<int64_t>(candidates.size()), 16, [&](int64_t c) {
            const auto& [i, j] = candidates[static_cast<size_t>(c)];
            data::LabeledPair pair;
            pair.left = w.dedupe_left[i];
            pair.right = w.dedupe_right[j];
            samples[static_cast<size_t>(c)] =
                core::EncodePair(w.enc, pair, w.model->input_style());
          });
    }
    encode_ms.push_back(SecondsSince(t0) * 1e3);
    t0 = Clock::now();
    {
      ScopedSpan span("pipeline.score", r);
      core::BatchMatchProbabilities(*w.model, samples);
    }
    score_ms.push_back(SecondsSince(t0) * 1e3);
  }
  PipelineSplit split;
  split.wall_ms = perfbench::Median(wall);
  split.block_ms = perfbench::Median(block_ms);
  split.encode_ms = perfbench::Median(encode_ms);
  split.score_ms = perfbench::Median(score_ms);
  split.quality =
      block::EvaluateBlocking(w.dedupe_left, w.dedupe_right, candidates);
  return split;
}

bool IsInt8Kernel(const std::string& kernel) {
  return kernel == "matmul_block_axpy" || kernel == "min_max" ||
         kernel == "int8_quantize_row" || kernel == "int8_gemm_dequant";
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string baseline;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wdc|abt> --seed N --seconds S "
               "--trace <0|1> [--out DIR] [--baseline FILE]\n");
  return 2;
}

std::map<std::string, double> ReadBaseline(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  auto parsed = serve::json::Parse(last);
  if (!parsed.ok()) return values;
  const serve::json::Value* m = parsed->Find("metrics");
  if (m == nullptr || !m->is_object()) return values;
  for (const auto& [name, metric] : m->AsObject()) {
    if (const serve::json::Value* v = metric.Find("value")) {
      values[name] = v->AsNumber();
    }
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return Usage();
    const std::string value = argv[++a];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else if (flag == "--baseline") {
      opt.baseline = value;
    } else {
      return Usage();
    }
  }
  const Profile* profile = nullptr;
  for (const Profile& p : kProfiles) {
    if (opt.workload == p.name) profile = &p;
  }
  if (profile == nullptr || opt.seconds <= 0.0) return Usage();
  mkdir(opt.out_dir.c_str(), 0755);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");

  if (opt.trace) {
    // Before the first kernel call: the counting shim is installed only when
    // the kernel backend is resolved.
    metrics::SetEnabled(true);
    rtrace::SetEnabled(true);
    rtrace::SetAccessLogRateLimit(1e6);
    g_spans.Enable(true);
  }
  Report report;

  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = Setup(*profile, opt.seed);
    setup_s.push_back(SecondsSince(t0));
  }
  World& w = *world;
  report.Detail("setup.iqr_share", perfbench::RelativeIqr(setup_s));
  report.Samples("setup_s", setup_s);
  report.Detail("data.pairs", static_cast<double>(w.pairs.size()));
  report.Detail("data.train_pairs", static_cast<double>(w.enc.train.size()));

  // Train first: the other stages score with the trained model.
  const auto calls_before_train = KernelCalls();
  const auto step0 = metrics::GetHistogram("trainer.step_ms").GetSnapshot();
  const uint64_t trained0 = CounterValue("trainer.pairs_trained");
  double eval_share = 0.0;
  const TrainOutcome train =
      TrainStage(w, *profile, &report, opt.trace ? &eval_share : nullptr);
  const auto calls_after_train = KernelCalls();
  const auto step_delta = HistogramDelta(
      step0, metrics::GetHistogram("trainer.step_ms").GetSnapshot());
  const uint64_t trained = CounterValue("trainer.pairs_trained") - trained0;

  const auto pool_wait0 =
      metrics::GetHistogram("threadpool.queue_wait_us").GetSnapshot();
  const uint64_t chunks0 = CounterValue("threadpool.chunks_total");
  const uint64_t stolen0 = CounterValue("threadpool.chunks_stolen");
  const ScoreOutcome score =
      ScoreStage(w, opt.seconds * kScoreShare, &report);
  const auto pool_wait = HistogramDelta(
      pool_wait0,
      metrics::GetHistogram("threadpool.queue_wait_us").GetSnapshot());
  const uint64_t chunks = CounterValue("threadpool.chunks_total") - chunks0;
  const uint64_t stolen = CounterValue("threadpool.chunks_stolen") - stolen0;

  const DedupeOutcome dedupe =
      DedupeStage(w, opt.seconds * kDedupeShare, &report);
  const ServeOutcome serve =
      ServeStage(w, *profile, opt.seed, opt.seconds,
                 opt.trace ? stem + ".access.jsonl" : "", &report);

  report.E2e("setup_s", perfbench::Median(setup_s), "s");
  report.E2e("peak_rss_mb", PeakRssMiB(), "MiB");
  report.E2e("score_pairs_per_s", score.fp32_pairs_per_s, "pairs/s");
  report.E2e("score_serial_pairs_per_s", score.serial_pairs_per_s, "pairs/s");
  report.E2e("score_int8_pairs_per_s", score.int8_pairs_per_s, "pairs/s");
  report.E2e("dedupe_pairs_per_s", dedupe.pairs_per_s, "pairs/s");
  report.E2e("train_pairs_per_s", train.pairs_per_s, "pairs/s");
  report.E2e("em_f1", train.f1, "F1");
  report.E2e("match_p50_ms", serve.match_p50_ms, "ms");
  report.E2e("match_p99_ms", serve.match_p99_ms, "ms");
  report.E2e("dedupe_tail_ms", serve.dedupe_tail_ms, "ms");
  report.E2e("serve_goodput_rps", serve.goodput_rps, "1/s");

  if (opt.trace) {
    // Kernel calls per pair: one fp32 and one int8 serial pass over every
    // pair, plus the training run (its evaluation passes included).
    const double n = static_cast<double>(w.pairs.size());
    SetGlobalThreads(1);
    const auto k0 = KernelCalls();
    core::BatchMatchProbabilities(*w.model, w.pairs);
    const auto k1 = KernelCalls();
    int8::SetRuntimeMode(int8::Mode::kOn);
    core::BatchMatchProbabilities(*w.model, w.pairs);
    int8::SetRuntimeMode(int8::Mode::kOff);
    const auto k2 = KernelCalls();
    SetGlobalThreads(kThreads);

    const PipelineSplit split = SplitDedupe(w);
    const ReplayOutcome replay = ReplayLayers(w);
    const double encoder_us = g_spans.MeanUs("nn.encoder");
    const double aoa_us = g_spans.MeanUs("core.aoa");
    const double forward_us = g_spans.MeanUs("core.forward");
    const double replay_sum =
        g_spans.MeanUs("nn.embedding") + g_spans.MeanUs("nn.attention") +
        g_spans.MeanUs("nn.linear") + g_spans.MeanUs("nn.layernorm") +
        g_spans.MeanUs("nn.gelu");
    // The training windows' probes run inside steps; not step time.
    const double step_us_per_pair =
        trained > 0 ? (step_delta.sum * 1e3 - train.probe_s * 1e6) /
                          static_cast<double>(trained)
                    : 0.0;
    const double train_forward_us = g_spans.MeanUs("core.train_forward");

    report.Layer("text.encode_us_per_pair", g_spans.MeanUs("text.encode"), "us");
    report.Layer("text.tokens_per_pair", replay.tokens_per_pair, "count");
    report.Layer("block.candidates_ms", split.block_ms, "ms");
    report.Layer("block.candidates",
                 static_cast<double>(split.quality.candidates), "count");
    report.Layer("block.pair_completeness", split.quality.pair_completeness,
                 "ratio");
    report.Layer("block.reduction_ratio", split.quality.reduction_ratio,
                 "ratio");
    report.Layer("nn.encoder_us_per_pair", encoder_us, "us");
    report.Layer("nn.embedding_us_per_pair", g_spans.MeanUs("nn.embedding"), "us");
    report.Layer("nn.attention_us_per_pair", g_spans.MeanUs("nn.attention"), "us");
    report.Layer("nn.linear_us_per_pair", g_spans.MeanUs("nn.linear"), "us");
    report.Layer("nn.linear_int8_us_per_pair", g_spans.MeanUs("nn.linear_int8"),
                 "us");
    report.Layer("nn.layernorm_us_per_pair", g_spans.MeanUs("nn.layernorm"), "us");
    report.Layer("nn.gelu_us_per_pair", g_spans.MeanUs("nn.gelu"), "us");
    report.Layer("nn.replay_gap_us_per_pair", encoder_us - replay_sum, "us");
    report.Layer("nn.encoder_grad_us_per_pair",
                 g_spans.MeanUs("nn.encoder_grad"), "us");
    report.Layer("core.aoa_us_per_pair", aoa_us, "us");
    report.Layer("core.heads_us_per_pair", forward_us - encoder_us - aoa_us, "us");
    report.Layer("core.forward_us_per_pair", forward_us, "us");
    // Serial forward time over (4-thread wall x threads), from the untraced
    // run when given: the counting shim's shared counters slow the 4-thread
    // pass far more than the serial one.
    const std::map<std::string, double> baseline = ReadBaseline(opt.baseline);
    auto untraced = [&](const char* name, double traced) {
      auto it = baseline.find(name);
      return it == baseline.end() ? traced : it->second;
    };
    report.Layer("core.parallel_efficiency",
                 untraced("score_pairs_per_s", score.fp32_pairs_per_s) /
                     (untraced("score_serial_pairs_per_s",
                               score.serial_pairs_per_s) *
                      kThreads),
                 "ratio");
    report.Layer("core.train_step_us_per_pair", step_us_per_pair, "us");
    report.Layer("core.train_forward_us_per_pair", train_forward_us, "us");
    report.Layer("core.train_backward_update_us_per_pair",
                 step_us_per_pair - train_forward_us, "us");
    report.Layer("core.eval_share", eval_share, "ratio");
    const double train_pairs = static_cast<double>(std::max<uint64_t>(trained, 1));
    for (size_t k = 0; k < std::size(kKernels); ++k) {
      report.Layer(std::string("tensor.calls_per_pair.") + kKernels[k],
                   static_cast<double>(k1[k] - k0[k]) / n, "count");
    }
    for (size_t k = 0; k < std::size(kKernels); ++k) {
      // Under int8 only the Linear kernels change; the rest repeat fp32.
      if (!IsInt8Kernel(kKernels[k])) continue;
      report.Layer(std::string("tensor.int8_calls_per_pair.") + kKernels[k],
                   static_cast<double>(k2[k] - k1[k]) / n, "count");
    }
    for (size_t k = 0; k < std::size(kKernels); ++k) {
      report.Layer(std::string("tensor.train_calls_per_pair.") + kKernels[k],
                   static_cast<double>(calls_after_train[k] -
                                       calls_before_train[k]) /
                       train_pairs,
                   "count");
    }
    const ActivationArena::Stats arena = ActivationArena::GlobalStats();
    report.Layer("tensor.arena_heap_fallbacks",
                 static_cast<double>(arena.heap_fallbacks), "count");
    report.Layer("tensor.arena_high_water_bytes",
                 static_cast<double>(arena.high_water_bytes), "bytes");
    report.Layer("tensor.int8_weight_cache_bytes",
                 metrics::GetGauge("inference.int8_weight_cache_bytes").Value(),
                 "bytes");
    report.Layer("threadpool.queue_wait_us_p50",
                 metrics::Histogram::PercentileFromSnapshot(pool_wait, 0.50),
                 "us");
    report.Layer("threadpool.queue_wait_us_p99",
                 metrics::Histogram::PercentileFromSnapshot(pool_wait, 0.99),
                 "us");
    report.Layer("threadpool.steal_share",
                 chunks > 0 ? static_cast<double>(stolen) /
                                  static_cast<double>(chunks)
                            : 0.0,
                 "ratio");
    report.Layer("pipeline.encode_ms", split.encode_ms, "ms");
    report.Layer("pipeline.score_ms", split.score_ms, "ms");
    report.Layer("pipeline.other_ms",
                 split.wall_ms - split.block_ms - split.encode_ms -
                     split.score_ms,
                 "ms");

    // Per-stage serving latency from the steady phase's access log.
    std::map<std::string, std::vector<double>> stage_ms;
    std::ifstream log(stem + ".access.jsonl");
    std::string line;
    while (std::getline(log, line)) {
      auto rec = serve::json::Parse(line);
      if (!rec.ok()) continue;
      const serve::json::Value* endpoint = rec->Find("endpoint");
      const serve::json::Value* stages = rec->Find("stages_ms");
      if (endpoint == nullptr || stages == nullptr ||
          endpoint->AsString() != "/match") {
        continue;
      }
      for (const auto& [name, v] : stages->AsObject()) {
        stage_ms[name].push_back(v.AsNumber());
      }
    }
    for (const char* stage : {"parse", "queue_wait", "batch_form", "compute",
                              "serialize", "other"}) {
      const auto& v = stage_ms[stage];
      const std::string p = std::string("serve.stage.") + stage;
      report.Layer(p + "_ms_p50", perfbench::Percentile(v, 50.0), "ms");
      report.Layer(p + "_ms_p99", perfbench::Percentile(v, 99.0), "ms");
    }
    report.Detail("serve.stage.match_records",
                  static_cast<double>(stage_ms["parse"].size()));
    report.Layer("serve.batch_mean", serve.steady_batch_mean, "count");
    report.Layer("serve.deadline_fire_share",
                 serve.steady_batches > 0
                     ? static_cast<double>(serve.steady_deadline_fires) /
                           static_cast<double>(serve.steady_batches)
                     : 0.0,
                 "ratio");
    report.Layer("serve.rejected_share",
                 serve.saturate.offered > 0
                     ? static_cast<double>(serve.saturate.r429 +
                                           serve.saturate.r503) /
                           static_cast<double>(serve.saturate.offered)
                     : 0.0,
                 "ratio");

    // Tracing overhead against the untraced run of the same seed.
    for (const Metric& m : report.e2e) {
      const bool higher = m.name.find("per_s") != std::string::npos ||
                          m.name == "em_f1" || m.name == "serve_goodput_rps";
      auto it = baseline.find(m.name);
      const double share =
          it == baseline.end()
              ? 0.0
              : perfbench::TracingOverheadShare(it->second, m.value, higher);
      report.Layer("trace.overhead." + m.name, share, "ratio");
    }
    report.Detail("trace.baseline_found", baseline.empty() ? 0.0 : 1.0);

    g_spans.WriteChromeTrace(stem + ".trace.json");
    std::ofstream table(stem + ".layers.txt");
    table << "span                               count     total_us/span   "
             "self_us/span\n";
    for (const auto& [name, a] : g_spans.Aggregates()) {
      char row[160];
      std::snprintf(row, sizeof(row), "%-32s %8lld %16.3f %14.3f\n",
                    name.c_str(), static_cast<long long>(a.count),
                    a.total_us / static_cast<double>(a.count),
                    a.self_us / static_cast<double>(a.count));
      table << row;
    }
    table << "\nmetric                                         traced      "
             "untraced\n";
    for (const Metric& m : report.e2e) {
      auto it = baseline.find(m.name);
      char row[160];
      std::snprintf(row, sizeof(row), "%-40s %14.4f %13.4f\n", m.name.c_str(),
                    m.value, it == baseline.end() ? 0.0 : it->second);
      table << row;
    }
    table << "\nper-layer metric                               value\n";
    for (const Metric& m : report.layer) {
      char row[160];
      std::snprintf(row, sizeof(row), "%-48s %14.4f %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      table << row;
    }
  }

  const bool correct = report.failed == 0;
  {
    std::ofstream full(stem + ".json");
    full << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ",\n \"end_to_end\": " << MetricsJson(report.e2e)
         << ",\n \"per_layer\": " << MetricsJson(report.layer)
         << ",\n \"detail\": {";
    for (size_t i = 0; i < report.detail.size(); ++i) {
      full << (i ? ", " : "") << "\"" << report.detail[i].first
           << "\": " << report.detail[i].second;
    }
    full << "},\n \"failures\": [";
    for (size_t i = 0; i < report.failures.size(); ++i) {
      full << (i ? ", " : "") << "\""
           << serve::json::Escape(report.failures[i]) << "\"";
    }
    full << "]}\n";
  }
  {
    std::ofstream out(stem + ".samples.json");
    out << "{";
    for (size_t i = 0; i < report.samples.size(); ++i) {
      out << (i ? ",\n" : "\n") << "\"" << report.samples[i].first << "\": [";
      const auto& values = report.samples[i].second;
      for (size_t j = 0; j < values.size(); ++j) {
        out << (j ? ", " : "") << serve::json::NumberToString(values[j]);
      }
      out << "]";
    }
    out << "\n}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              MetricsJson(opt.trace ? report.layer : report.e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
