// Tier-1 tests for the observability layer (util/metrics + util/trace):
// exact counter/histogram totals under concurrent updates, span nesting,
// the disabled-tracer no-op contract, JSON validity of both export formats,
// end-to-end instrumentation coverage of a real training run, the kernel
// counting shim's bit-identical forwarding, and keep-last-K checkpoint
// rotation.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/scoring.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace emba {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (recursive descent). Accepts exactly the
// JSON grammar; enough to assert "this export parses", without a JSON
// dependency the container doesn't have.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (!Peek('"')) return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      pos_ += s_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      digits |= std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek('}')) return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek(']')) return ++pos_, true;
      return false;
    }
  }
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Extracts (ts, dur) of the first exported event whose name matches, from
// the one-event-per-line format WriteJson emits.
bool FindSpan(const std::string& trace_json, const std::string& name,
              double* ts, double* dur) {
  std::istringstream lines(trace_json);
  std::string line;
  const std::string needle = "\"name\": \"" + name + "\"";
  while (std::getline(lines, line)) {
    if (line.find(needle) == std::string::npos) continue;
    const size_t ts_pos = line.find("\"ts\": ");
    const size_t dur_pos = line.find("\"dur\": ");
    if (ts_pos == std::string::npos || dur_pos == std::string::npos) continue;
    *ts = std::stod(line.substr(ts_pos + 6));
    *dur = std::stod(line.substr(dur_pos + 7));
    return true;
  }
  return false;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::Registry::Global().ResetAllForTest();
    trace::Stop();
  }
  void TearDown() override {
    trace::Stop();
    metrics::SetEnabled(false);
    kernels::ResetBackend();
    metrics::Registry::Global().ResetAllForTest();
  }
};

// ---------------------------------------------------------------------------
// Registry correctness under concurrency.

TEST_F(ObservabilityTest, CounterIsExactUnderConcurrentIncrements) {
  SetGlobalThreads(4);
  metrics::Counter& counter = metrics::GetCounter("test.concurrent_counter");
  counter.ResetForTest();
  constexpr int64_t kItems = 20000;
  GlobalThreadPool().ParallelFor(0, kItems, /*grain=*/64,
                                 [&](int64_t) { counter.Increment(); });
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kItems));
  SetGlobalThreads(0);
}

TEST_F(ObservabilityTest, HistogramIsExactUnderConcurrentObserves) {
  SetGlobalThreads(4);
  metrics::Histogram& histogram = metrics::GetHistogram(
      "test.concurrent_histogram_ms", metrics::DefaultLatencyBucketsMs());
  histogram.ResetForTest();
  constexpr int64_t kItems = 20000;
  GlobalThreadPool().ParallelFor(0, kItems, /*grain=*/64, [&](int64_t i) {
    histogram.Observe(static_cast<double>(i % 100));
  });
  const metrics::Histogram::Snapshot snapshot = histogram.GetSnapshot();
  EXPECT_EQ(snapshot.count, static_cast<uint64_t>(kItems));
  uint64_t bucket_total = 0;
  for (uint64_t c : snapshot.bucket_counts) bucket_total += c;
  EXPECT_EQ(bucket_total, static_cast<uint64_t>(kItems));
  // Percentiles are ordered and inside the observed range.
  EXPECT_LE(snapshot.p50, snapshot.p95);
  EXPECT_LE(snapshot.p95, snapshot.p99);
  EXPECT_GT(snapshot.p50, 0.0);
  EXPECT_LE(snapshot.p99, 100.0 + 1e-9);
  SetGlobalThreads(0);
}

TEST_F(ObservabilityTest, GaugeSetAndAdd) {
  metrics::Gauge& gauge = metrics::GetGauge("test.gauge");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(1.25);
  gauge.Add(1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 5.0);
}

TEST_F(ObservabilityTest, RegistryReturnsSameObjectForSameName) {
  EXPECT_EQ(&metrics::GetCounter("test.same"), &metrics::GetCounter("test.same"));
  EXPECT_EQ(&metrics::GetHistogram("test.same_h"),
            &metrics::GetHistogram("test.same_h"));
}

TEST_F(ObservabilityTest, ExponentialBucketsShape) {
  const std::vector<double> bounds = metrics::ExponentialBuckets(1.0, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 16.0);
  for (size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
}

TEST_F(ObservabilityTest, MetricsJsonIsValidAndContainsMetrics) {
  metrics::GetCounter("test.json_counter").Increment(7);
  metrics::GetGauge("test.json_gauge").Set(1.5);
  metrics::GetHistogram("test.json_histogram_ms").Observe(3.0);
  const std::string json = metrics::Registry::Global().ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("test.json_gauge"), std::string::npos);
  EXPECT_NE(json.find("test.json_histogram_ms"), std::string::npos);

  const std::string path = "/tmp/emba_observability_metrics.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(metrics::DumpMetricsJson(path).ok());
  EXPECT_TRUE(JsonValidator(ReadFile(path)).Valid());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Tracer contracts.

TEST_F(ObservabilityTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(trace::Enabled());
  const size_t before = trace::BufferedEventCount();
  for (int i = 0; i < 100; ++i) {
    EMBA_TRACE_SPAN("test/should_not_record");
    EMBA_TRACE_SPAN_ARG("test/should_not_record_arg", "i", i);
  }
  EXPECT_EQ(trace::BufferedEventCount(), before);
}

TEST_F(ObservabilityTest, SpanNestingIsContainedInExport) {
  trace::Start();
  {
    EMBA_TRACE_SPAN("test/outer");
    {
      EMBA_TRACE_SPAN("test/inner");
      // Make both spans long enough that µs rounding in the export cannot
      // invert the containment.
      volatile double sink = 0.0;
      for (int i = 0; i < 200000; ++i) sink = sink + static_cast<double>(i);
      (void)sink;
    }
  }
  trace::Stop();
  const std::string path = "/tmp/emba_observability_nesting.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(trace::WriteJson(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  double outer_ts = 0.0, outer_dur = 0.0, inner_ts = 0.0, inner_dur = 0.0;
  ASSERT_TRUE(FindSpan(json, "test/outer", &outer_ts, &outer_dur));
  ASSERT_TRUE(FindSpan(json, "test/inner", &inner_ts, &inner_dur));
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
  std::filesystem::remove(path);
}

TEST_F(ObservabilityTest, DynamicSpanNamesAreCopied) {
  trace::Start();
  {
    std::string name = "test/dynamic_";
    name += "abc";
    trace::ScopedSpanCopy span(name);
  }
  trace::Stop();
  const std::string path = "/tmp/emba_observability_dynamic.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(trace::WriteJson(path).ok());
  EXPECT_NE(ReadFile(path).find("test/dynamic_abc"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(ObservabilityTest, ThreadIdIsStablePerThread) {
  const int id_a = trace::CurrentThreadId();
  EXPECT_EQ(trace::CurrentThreadId(), id_a);
  int id_b = -1;
  std::thread other([&] { id_b = trace::CurrentThreadId(); });
  other.join();
  EXPECT_NE(id_b, id_a);
}

TEST_F(ObservabilityTest, RingWrapDropsOldestAndCountsExactly) {
  // Drive one thread's ring exactly kExtra events past capacity: the wrap
  // must (1) count each overwrite — no more, no less — in both the global
  // drop count and the `trace.events_dropped` counter, (2) overwrite
  // oldest-first so the survivors are the newest capacity-sized suffix, and
  // (3) still export valid Chrome JSON carrying the drop metadata event.
  constexpr int kExtra = 100;
  const int total = static_cast<int>(trace::RingCapacityPerThread()) + kExtra;
  trace::Start();
  ASSERT_EQ(trace::DroppedEventCount(), 0u);
  // A dedicated thread gets a fresh (empty) ring, so the overflow count is
  // exact regardless of what the main thread recorded before.
  std::thread recorder([total] {
    for (int i = 0; i < total; ++i) {
      EMBA_TRACE_SPAN_ARG("test/wrap", "i", i);
    }
  });
  recorder.join();
  trace::Stop();

  EXPECT_EQ(trace::DroppedEventCount(), static_cast<uint64_t>(kExtra));
  EXPECT_EQ(metrics::GetCounter("trace.events_dropped").Value(),
            static_cast<uint64_t>(kExtra));

  const std::string path = "/tmp/emba_observability_ring_wrap.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(trace::WriteJson(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonValidator(json).Valid());
  // Oldest-first overwrite: events 0..kExtra-1 are gone, kExtra.. survive.
  // The closing brace pins the exact arg value ("i": 99 vs "i": 990).
  EXPECT_EQ(json.find("\"i\": " + std::to_string(kExtra - 1) + "}"),
            std::string::npos);
  EXPECT_NE(json.find("\"i\": " + std::to_string(kExtra) + "}"),
            std::string::npos);
  EXPECT_NE(json.find("\"i\": " + std::to_string(total - 1) + "}"),
            std::string::npos);
  // The drop is never silent in the export.
  EXPECT_NE(json.find("emba.trace.dropped"), std::string::npos);
  EXPECT_NE(json.find("{\"events\": " + std::to_string(kExtra) + "}"),
            std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// End-to-end: a real (tiny) training run with metrics + tracing on must
// export valid JSON containing the spans the acceptance criteria name.

core::EncodedDataset TinyEncodedDataset() {
  data::GeneratorOptions options;
  options.seed = 33;
  options.size_factor = 0.3;
  auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
  core::EncodeOptions encode_options;
  encode_options.max_len = 24;
  encode_options.wordpiece_vocab = 400;
  return core::EncodeDataset(dataset, encode_options);
}

TEST_F(ObservabilityTest, TrainingRunExportsInstrumentedMetricsAndTrace) {
  SetGlobalThreads(4);
  metrics::SetEnabled(true);
  trace::Start();
  // Re-resolve the kernel dispatch *after* enabling, so the counting shim is
  // installed and the dispatch span lands in this trace.
  kernels::ResetBackend();

  core::EncodedDataset dataset = TinyEncodedDataset();
  Rng rng(5);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 1;
  config.heartbeat_seconds = 0.0;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  trace::Stop();

  // Metrics: hot-path counters moved during the run.
  EXPECT_GT(metrics::GetCounter("trainer.pairs_trained").Value(), 0u);
  EXPECT_GT(metrics::GetCounter("trainer.steps").Value(), 0u);
  EXPECT_EQ(metrics::GetCounter("trainer.epochs").Value(), 1u);
  EXPECT_GT(metrics::GetCounter("scoring.pairs_scored").Value(), 0u);
  const uint64_t matmul_calls =
      metrics::GetCounter("kernels.calls.matmul_block_axpy").Value() +
      metrics::GetCounter("kernels.calls.matmul_block_dot").Value() +
      metrics::GetCounter("kernels.calls.dot").Value();
  EXPECT_GT(matmul_calls, 0u);
  EXPECT_GT(metrics::GetHistogram("trainer.step_ms").Count(), 0u);
  EXPECT_GT(metrics::GetHistogram("scoring.batch_latency_ms").Count(), 0u);
  EXPECT_GT(metrics::GetHistogram("threadpool.queue_wait_us").Count(), 0u);

  const std::string metrics_path = "/tmp/emba_observability_e2e_metrics.json";
  const std::string trace_path = "/tmp/emba_observability_e2e_trace.json";
  std::filesystem::remove(metrics_path);
  std::filesystem::remove(trace_path);
  ASSERT_TRUE(metrics::DumpMetricsJson(metrics_path).ok());
  ASSERT_TRUE(trace::WriteJson(trace_path).ok());

  const std::string metrics_json = ReadFile(metrics_path);
  EXPECT_TRUE(JsonValidator(metrics_json).Valid());
  EXPECT_NE(metrics_json.find("trainer.pairs_trained"), std::string::npos);
  EXPECT_NE(metrics_json.find("kernels.calls."), std::string::npos);

  const std::string trace_json = ReadFile(trace_path);
  EXPECT_TRUE(JsonValidator(trace_json).Valid());
  for (const char* span :
       {"trainer/run", "trainer/epoch", "trainer/step", "trainer/evaluate",
        "core/batch_forward", "kernels/dispatch", "threadpool/queue_wait",
        "threadpool/parallel_for"}) {
    EXPECT_NE(trace_json.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << "missing span " << span;
  }

  std::filesystem::remove(metrics_path);
  std::filesystem::remove(trace_path);
  SetGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Counting shim: it forwards every kernel call unchanged and counts it.

struct ScoredAndStepped {
  std::vector<double> scores;
  std::vector<Tensor> weights;  ///< every parameter after the step
};

// Batched scoring, then one Adam step over a few training pairs, of a fresh
// small emba model, through whichever kernel table is active.
ScoredAndStepped ScoreAndTrainOneStep(const core::EncodedDataset& dataset) {
  Rng rng(5);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto created = core::CreateModel("emba", budget,
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
  EMBA_CHECK(created.ok());
  core::EmModel& model = **created;
  ScoredAndStepped out;
  model.SetTraining(false);
  out.scores = core::BatchMatchProbabilities(model, dataset.test);

  model.SetTraining(true);
  nn::Adam adam(model.Parameters(), 1e-3f);
  std::vector<ag::Var> losses;
  for (size_t i = 0; i < 4; ++i) {
    const core::PairSample& sample = dataset.train[i];
    const core::ModelOutput logits = model.Forward(sample);
    losses.push_back(ag::BinaryCrossEntropyFromLogits(logits.em_logits,
                                                      sample.match ? 1 : 0));
    for (const auto& [head, id] : {std::pair{logits.id1_logits, sample.id1},
                                   std::pair{logits.id2_logits, sample.id2}}) {
      if (id >= 0 && id < dataset.num_id_classes) {
        losses.push_back(ag::CrossEntropyFromLogits(head, id));
      }
    }
  }
  ag::AddN(losses).Backward();
  adam.Step();
  for (const ag::Var& p : model.Parameters()) out.weights.push_back(p.value());
  return out;
}

TEST_F(ObservabilityTest, CountingShimForwardsBitIdenticallyAndCounts) {
  const core::EncodedDataset dataset = TinyEncodedDataset();
  metrics::SetEnabled(false);
  kernels::ResetBackend();
  const kernels::KernelTable* raw = &kernels::Active();
  const ScoredAndStepped reference = ScoreAndTrainOneStep(dataset);

  metrics::SetEnabled(true);
  kernels::ResetBackend();
  ASSERT_NE(&kernels::Active(), raw) << "counting shim not installed";
  EXPECT_EQ(kernels::ActiveBackend(), raw->backend);
  const ScoredAndStepped counted = ScoreAndTrainOneStep(dataset);

  ASSERT_EQ(counted.scores.size(), reference.scores.size());
  for (size_t i = 0; i < reference.scores.size(); ++i) {
    ASSERT_EQ(counted.scores[i], reference.scores[i]) << "pair " << i;
  }
  ASSERT_EQ(counted.weights.size(), reference.weights.size());
  for (size_t p = 0; p < reference.weights.size(); ++p) {
    const Tensor& a = counted.weights[p];
    const Tensor& b = reference.weights[p];
    ASSERT_TRUE(a.SameShape(b)) << "parameter " << p;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "parameter " << p;
  }

  // Every kernel those calls run shows its calls under its list name.
  std::vector<std::string> used = {
      "dot", "sum", "centered_sum_sq", "max", "add", "mul", "scale",
      "add_scalar", "axpy", "mul_add", "matmul_block_axpy",
      "matmul_block_dot", "exp_sub_sum", "gelu", "gelu_backward",
      "softmax_backward_row", "layer_norm_forward_row", "transpose2d"};
  if (int8::ActiveMode() == int8::Mode::kOn) {
    used.insert(used.end(),
                {"min_max", "int8_quantize_row", "int8_gemm_dequant"});
  }
  for (const std::string& kernel : used) {
    EXPECT_GT(metrics::GetCounter("kernels.calls." + kernel).Value(), 0u)
        << kernel;
  }
}

TEST_F(ObservabilityTest, HeartbeatLogsProgressWithTimestampedPrefix) {
  core::EncodedDataset dataset = TinyEncodedDataset();
  Rng rng(8);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 1;
  // Every elapsed-time check beats this threshold, so the first step emits.
  config.heartbeat_seconds = 1e-9;
  core::Trainer trainer(model->get(), &dataset, config);
  ::testing::internal::CaptureStderr();
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("heartbeat: epoch 0"), std::string::npos) << log;
  EXPECT_NE(log.find("pairs/s"), std::string::npos);
  EXPECT_NE(log.find("eta<="), std::string::npos);
  // Log prefix format: "[INFO 2026-08-07 14:03:21.482 t0 trainer.cc:..."
  EXPECT_NE(log.find("[INFO 20"), std::string::npos);
  const size_t prefix = log.find("[INFO 20");
  EXPECT_NE(log.find(" t", prefix), std::string::npos);
  EXPECT_NE(log.find("trainer.cc:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint rotation (keep-last-K versioned siblings).

size_t CountVersionedCheckpoints(const std::string& anchor) {
  const std::filesystem::path anchor_path(anchor);
  const std::string prefix = anchor_path.filename().string() + ".e";
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(anchor_path.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST_F(ObservabilityTest, CheckpointRotationKeepsLastK) {
  const std::string dir = "/tmp/emba_observability_rotation";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string anchor = dir + "/model.ckpt";

  core::EncodedDataset dataset = TinyEncodedDataset();
  Rng rng(6);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 4;
  config.min_epochs = 4;
  config.patience = 10;
  config.heartbeat_seconds = 0.0;
  config.checkpoint_path = anchor;
  config.checkpoint_every = 1;
  config.checkpoint_keep_last = 2;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());

  EXPECT_TRUE(std::filesystem::exists(anchor));
  EXPECT_EQ(CountVersionedCheckpoints(anchor), 2u);
  // The survivors are the two newest epochs.
  EXPECT_TRUE(std::filesystem::exists(anchor + ".e00003"));
  EXPECT_TRUE(std::filesystem::exists(anchor + ".e00004"));
  EXPECT_GT(metrics::GetCounter("trainer.checkpoints_rotated").Value(), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(ObservabilityTest, CheckpointKeepLastZeroKeepsAllVersions) {
  const std::string dir = "/tmp/emba_observability_rotation_all";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string anchor = dir + "/model.ckpt";

  core::EncodedDataset dataset = TinyEncodedDataset();
  Rng rng(7);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 3;
  config.min_epochs = 3;
  config.patience = 10;
  config.heartbeat_seconds = 0.0;
  config.checkpoint_path = anchor;
  config.checkpoint_every = 1;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());

  EXPECT_EQ(CountVersionedCheckpoints(anchor), 3u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace emba
