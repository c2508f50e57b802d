#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "tensor/arena.h"
#include "tensor/int8.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/request_trace.h"
#include "util/trace.h"

namespace emba {
namespace serve {

namespace {

// Shared across endpoints: batches are formed from the mixed arrival
// stream, so their shape is a property of the batcher, not an endpoint.
metrics::Histogram& BatchSizeHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram(
      "serve.batch_size", metrics::LinearBuckets(1.0, 1.0, 64));
  return h;
}

metrics::Histogram& QueueWaitHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram("serve.queue_wait_ms");
  return h;
}

// Single registration point for the queue-depth gauge — Submit and Loop
// both publish it, and duplicated GetGauge call sites had already drifted
// into registering it twice.
metrics::Gauge& QueueDepthGauge() {
  static metrics::Gauge& g = metrics::GetGauge("serve.queue_depth");
  return g;
}

}  // namespace

DynamicBatcher::DynamicBatcher(ScoreFn score_fn, BatcherConfig config)
    : score_fn_(std::move(score_fn)), config_(config) {
  EMBA_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  EMBA_CHECK_MSG(config_.max_queue >= 1, "max_queue must be >= 1");
  EMBA_CHECK_MSG(config_.batch_deadline_us >= 0,
                 "batch_deadline_us must be >= 0");
  thread_ = std::thread([this] { Loop(); });
}

DynamicBatcher::~DynamicBatcher() { Drain(); }

DynamicBatcher::InFlight::InFlight(InFlight&& other) noexcept
    : batcher_(std::exchange(other.batcher_, nullptr)) {}

DynamicBatcher::InFlight& DynamicBatcher::InFlight::operator=(
    InFlight&& other) noexcept {
  if (this != &other) {
    InFlight released(std::move(*this));
    batcher_ = std::exchange(other.batcher_, nullptr);
  }
  return *this;
}

DynamicBatcher::InFlight::~InFlight() {
  if (batcher_ == nullptr) return;
  DynamicBatcher* batcher = batcher_;
  bool idle;
  {
    std::lock_guard<std::mutex> lock(batcher->mutex_);
    idle = batcher->ReleaseLocked(*this);
  }
  // The last handler answered without parking: a parked batch may fire.
  if (idle) batcher->cv_.notify_one();
}

bool DynamicBatcher::ReleaseLocked(InFlight& token) {
  if (token.batcher_ == nullptr) return false;
  EMBA_CHECK_MSG(token.batcher_ == this, "InFlight token of another batcher");
  token.batcher_ = nullptr;
  return --in_flight_ == 0;
}

DynamicBatcher::InFlight DynamicBatcher::BeginRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++in_flight_;
  return InFlight(this);
}

Result<std::future<double>> DynamicBatcher::Submit(
    InFlight token, core::PairSample sample,
    std::shared_ptr<rtrace::RequestContext> ctx) {
  std::vector<core::PairSample> group;
  group.push_back(std::move(sample));
  auto futures = SubmitGroup(std::move(token), std::move(group), std::move(ctx));
  if (!futures.ok()) return futures.status();
  return std::move((*futures)[0]);
}

Result<std::vector<std::future<double>>> DynamicBatcher::SubmitGroup(
    InFlight token, std::vector<core::PairSample> samples,
    std::shared_ptr<rtrace::RequestContext> ctx) {
  static metrics::Counter& admitted =
      metrics::GetCounter("serve.requests_admitted");
  static metrics::Counter& rejected_full =
      metrics::GetCounter("serve.rejected_queue_full");
  static metrics::Counter& rejected_draining =
      metrics::GetCounter("serve.rejected_draining");

  if (samples.empty()) return std::vector<std::future<double>>{};
  std::vector<std::future<double>> futures;
  futures.reserve(samples.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Parking or rejecting, this handler can no longer join a batch. A
    // rejection that leaves the batcher idle wakes it for the parked rest.
    if (ReleaseLocked(token) && !queue_.empty()) cv_.notify_one();
    if (draining_) {
      rejected_draining.Increment(samples.size());
      return Status::Unavailable("matcher is draining");
    }
    if (queue_.size() + samples.size() > config_.max_queue) {
      rejected_full.Increment(samples.size());
      return Status::ResourceExhausted(
          "batch queue full (" + std::to_string(queue_.size()) + " parked, " +
          std::to_string(samples.size()) + " arriving, bound " +
          std::to_string(config_.max_queue) + ")");
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& sample : samples) {
      Pending pending;
      pending.sample = std::move(sample);
      pending.enqueue = now;
      pending.ctx = ctx;
      futures.push_back(pending.promise.get_future());
      queue_.push_back(std::move(pending));
    }
    admitted.Increment(samples.size());
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return futures;
}

void DynamicBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

size_t DynamicBatcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void DynamicBatcher::Loop() {
  static metrics::Counter& batches =
      metrics::GetCounter("serve.batches_total");
  static metrics::Counter& full_fires =
      metrics::GetCounter("serve.batch_full_fires");
  static metrics::Counter& deadline_fires =
      metrics::GetCounter("serve.batch_deadline_fires");
  static metrics::Counter& drain_fires =
      metrics::GetCounter("serve.batch_drain_fires");
  static metrics::Counter& idle_fires =
      metrics::GetCounter("serve.batch_idle_fires");

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      if (draining_) return;
      continue;
    }
    // Batch formation: the window opens when the oldest parked request
    // arrived and closes at batch-full, drain, idle (no handler holds an
    // InFlight token, so no one else can join) or the deadline cap —
    // whichever comes first.
    const auto deadline =
        queue_.front().enqueue +
        std::chrono::microseconds(config_.batch_deadline_us);
    cv_.wait_until(lock, deadline, [this] {
      return queue_.size() >= config_.max_batch || draining_ ||
             in_flight_ == 0;
    });

    const bool batch_full = queue_.size() >= config_.max_batch;
    const bool idle = in_flight_ == 0;
    const size_t n = std::min(queue_.size(), config_.max_batch);
    std::vector<Pending> batch;
    batch.reserve(n);
    const auto dequeue_time = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    const bool draining_now = draining_;
    lock.unlock();

    batches.Increment();
    const char* fire_reason;
    if (batch_full) {
      full_fires.Increment();
      fire_reason = "full";
    } else if (draining_now) {
      drain_fires.Increment();
      fire_reason = "drain";
    } else if (idle) {
      idle_fires.Increment();
      fire_reason = "idle";
    } else {
      deadline_fires.Increment();
      fire_reason = "deadline";
    }
    BatchSizeHistogram().Observe(static_cast<double>(n));
    for (const Pending& pending : batch) {
      const double wait_ms = std::chrono::duration<double, std::milli>(
                                 dequeue_time - pending.enqueue)
                                 .count();
      QueueWaitHistogram().Observe(wait_ms);
      if (pending.ctx != nullptr) {
        // Max, not sum: a multi-sample group's wait is its critical path.
        pending.ctx->MergeStageMaxNs(
            rtrace::Stage::kQueueWait,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                dequeue_time - pending.enqueue)
                .count());
      }
    }

    // One BatchSpan shared by every traced request in the batch: members
    // and metadata are filled before the span is published through any
    // context (LinkBatch takes the context mutex), so /rpcz readers never
    // race these writes. Only the *_ns atomics are written after.
    std::shared_ptr<rtrace::BatchSpan> span;
    if (rtrace::Enabled()) {
      bool any_traced = false;
      for (const Pending& pending : batch) {
        if (pending.ctx != nullptr) {
          any_traced = true;
          break;
        }
      }
      if (any_traced) {
        span = rtrace::BeginBatch(fire_reason, static_cast<int>(n));
        span->int8_active = int8::ActiveMode() != int8::Mode::kOff;
        for (const Pending& pending : batch) {
          if (pending.ctx != nullptr) {
            span->member_trace_ids.push_back(pending.ctx->trace_id());
          }
        }
        for (const Pending& pending : batch) {
          if (pending.ctx != nullptr) pending.ctx->LinkBatch(span);
        }
      }
    }

    std::vector<core::PairSample> samples;
    samples.reserve(n);
    for (Pending& pending : batch) {
      samples.push_back(std::move(pending.sample));
    }
    EMBA_TRACE_SPAN_ARGS("serve/batch", {"size", static_cast<int64_t>(n)});
    const auto score_begin = std::chrono::steady_clock::now();
    if (span != nullptr) {
      span->form_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(score_begin -
                                                               dequeue_time)
              .count(),
          std::memory_order_relaxed);
      for (const Pending& pending : batch) {
        if (pending.ctx != nullptr) {
          pending.ctx->AddStageNs(
              rtrace::Stage::kBatchForm,
              span->form_ns.load(std::memory_order_relaxed));
        }
      }
      rtrace::SetThreadBatchSpan(span.get());
    }
    const auto finish_compute = [&] {
      if (span == nullptr) return;
      rtrace::SetThreadBatchSpan(nullptr);
      const int64_t compute_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - score_begin)
              .count();
      span->compute_ns.store(compute_ns, std::memory_order_relaxed);
      for (const Pending& pending : batch) {
        if (pending.ctx != nullptr) {
          pending.ctx->AddStageNs(rtrace::Stage::kCompute, compute_ns);
        }
      }
    };
    try {
      const std::vector<double> scores = score_fn_(samples);
      finish_compute();
      EMBA_CHECK_MSG(scores.size() == batch.size(),
                     "score fn returned wrong batch size");
      // Arena usage of the scoring path just executed, surfaced in the
      // serve.* SLO family (process-wide aggregates, cheap atomics reads).
      static metrics::Gauge& arena_high_water =
          metrics::GetGauge("serve.arena_bytes_high_water");
      static metrics::Gauge& arena_resets =
          metrics::GetGauge("serve.arena_resets");
      static metrics::Gauge& arena_fallbacks =
          metrics::GetGauge("serve.arena_heap_fallbacks");
      const ActivationArena::Stats arena_stats =
          ActivationArena::GlobalStats();
      arena_high_water.Set(static_cast<double>(arena_stats.high_water_bytes));
      arena_resets.Set(static_cast<double>(arena_stats.resets));
      arena_fallbacks.Set(static_cast<double>(arena_stats.heap_fallbacks));
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].promise.set_value(scores[i]);
      }
    } catch (...) {
      finish_compute();
      const std::exception_ptr error = std::current_exception();
      for (Pending& pending : batch) {
        pending.promise.set_exception(error);
      }
    }

    lock.lock();
  }
}

}  // namespace serve
}  // namespace emba
