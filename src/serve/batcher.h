// Cross-request dynamic batching for online match scoring.
//
// The offline path amortizes per-forward overhead by scoring thousands of
// pairs in one core::BatchForward call; an online service gets requests one
// at a time. The DynamicBatcher recovers the batch shape across requests:
// arrivals park in a bounded queue and the whole parked group is scored as
// one BatchForward call on the global thread pool as soon as no more work
// can join it. The batcher counts the handlers that may still submit: a
// handler takes an InFlight token when it starts a request and hands it
// back when it parks (Submit/SubmitGroup consume it) or answers without
// parking (the token's destructor). A batch fires when it is full
// (`max_batch`), on drain, or when no token is outstanding (`idle`);
// `batch_deadline_us`, measured from the oldest parked request, only caps
// the wait for a handler slow to park. Because BatchForward computes every
// sample independently (index-addressed writes, the determinism contract
// of DESIGN.md §8), a score obtained through any dynamically formed batch is
// bit-identical to a standalone batch of size 1 — the serving layer's
// equivalence contract, enforced by tests/serve_test.cc.
//
// Admission control is explicit and bounded: a full queue rejects with
// ResourceExhausted (HTTP 429) rather than queueing unboundedly, and a
// draining batcher rejects with Unavailable (HTTP 503). Drain() flushes
// every already-admitted request through real scoring before the thread
// exits — an accepted request is never dropped (DESIGN.md §12).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sample.h"
#include "util/request_trace.h"
#include "util/status.h"

namespace emba {
namespace serve {

struct BatcherConfig {
  /// Batch-full fire threshold (and the cap on one BatchForward call).
  size_t max_batch = 16;
  /// Deadline cap: microseconds the oldest parked request may wait for a
  /// handler that holds an InFlight token but has not parked yet. With no
  /// token outstanding the batch fires at once (`idle`), so the deadline
  /// only binds while some handler is slow to park.
  int64_t batch_deadline_us = 2000;
  /// Admission bound: parked requests beyond this are rejected (429).
  size_t max_queue = 256;
};

class DynamicBatcher {
 public:
  /// Scores a formed batch; element i of the result is sample i's
  /// P(match). Runs on the batcher thread (production wiring:
  /// core::BatchMatchProbabilities, which fans out over the thread pool).
  using ScoreFn =
      std::function<std::vector<double>(const std::vector<core::PairSample>&)>;

  /// One handler that may still submit. While any token is outstanding a
  /// partial batch waits for it (up to the deadline cap); once none is, the
  /// batch fires. Submit/SubmitGroup consume the token in the critical
  /// section that parks (or rejects) the samples; destroying an unconsumed
  /// token releases it. Move-only; must not outlive its batcher. A
  /// default-constructed token holds nothing.
  class InFlight {
   public:
    InFlight() = default;
    InFlight(InFlight&& other) noexcept;
    InFlight& operator=(InFlight&& other) noexcept;
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;
    ~InFlight();

   private:
    friend class DynamicBatcher;
    explicit InFlight(DynamicBatcher* batcher) : batcher_(batcher) {}
    DynamicBatcher* batcher_ = nullptr;
  };

  /// Starts the batcher thread immediately.
  DynamicBatcher(ScoreFn score_fn, BatcherConfig config);
  ~DynamicBatcher();  ///< Calls Drain().

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Registers a handler that may still submit; see InFlight.
  InFlight BeginRequest();

  /// Admits one sample and consumes `token`. The future yields its score
  /// (or rethrows the ScoreFn's exception). ResourceExhausted when the
  /// queue is full, Unavailable when draining. `ctx` (optional) is the
  /// submitting request's trace context: the batcher stamps its
  /// queue_wait / batch_form / compute stages and links the shared
  /// BatchSpan when the sample is scored.
  Result<std::future<double>> Submit(
      InFlight token, core::PairSample sample,
      std::shared_ptr<rtrace::RequestContext> ctx = nullptr);

  /// All-or-nothing group admission (one /dedupe request's candidates):
  /// either every sample is parked — possibly spread across several formed
  /// batches — or none is and the group is rejected as a unit. Consumes
  /// `token` either way. The group shares one `ctx`; queue_wait merges as
  /// the max over samples (the group's critical path), the other stages
  /// accumulate.
  Result<std::vector<std::future<double>>> SubmitGroup(
      InFlight token, std::vector<core::PairSample> samples,
      std::shared_ptr<rtrace::RequestContext> ctx = nullptr);

  /// Stops admission (Unavailable from now on), scores every parked
  /// request, and joins the batcher thread. Idempotent; safe to call
  /// concurrently with Submit.
  void Drain();

  /// Parked (admitted, not yet scored) requests right now.
  size_t QueueDepth() const;

  const BatcherConfig& config() const { return config_; }

 private:
  struct Pending {
    core::PairSample sample;
    std::promise<double> promise;
    std::chrono::steady_clock::time_point enqueue;
    /// Trace context of the submitting request; nullptr when untraced.
    std::shared_ptr<rtrace::RequestContext> ctx;
  };

  void Loop();
  /// Returns `token`'s count to the batcher; caller holds mutex_. True when
  /// that left no token outstanding.
  bool ReleaseLocked(InFlight& token);

  ScoreFn score_fn_;
  BatcherConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// Outstanding InFlight tokens: handlers that may still submit.
  size_t in_flight_ = 0;
  bool draining_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace emba
