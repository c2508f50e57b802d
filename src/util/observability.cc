#include "util/observability.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/http_server.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/request_trace.h"
#include "util/strings.h"
#include "util/trace.h"

namespace emba {
namespace {

std::once_flag g_atexit_once;

void RegisterFlushAtExit() {
  std::call_once(g_atexit_once, [] { std::atexit(FlushObservability); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Health state

namespace {

std::atomic<int> g_health_state{static_cast<int>(HealthState::kStarting)};
// Nanoseconds on the steady clock of the last heartbeat; -1 = never.
std::atomic<int64_t> g_heartbeat_ns{-1};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetHealthState(HealthState state) {
  g_health_state.store(static_cast<int>(state), std::memory_order_relaxed);
}

HealthState GetHealthState() {
  return static_cast<HealthState>(
      g_health_state.load(std::memory_order_relaxed));
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kStarting: return "starting";
    case HealthState::kTraining: return "training";
    case HealthState::kScoring: return "scoring";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

void HealthHeartbeat() {
  g_heartbeat_ns.store(SteadyNowNs(), std::memory_order_relaxed);
}

double HealthHeartbeatAgeSeconds() {
  const int64_t last = g_heartbeat_ns.load(std::memory_order_relaxed);
  if (last < 0) return -1.0;
  return static_cast<double>(SteadyNowNs() - last) * 1e-9;
}

// ---------------------------------------------------------------------------
// Training progress + last checkpoint

namespace {

// epoch < 0 means "never stamped"; epoch and step are stored separately
// with relaxed ordering — /healthz tolerates reading an epoch/step pair
// straddling a step boundary.
std::atomic<int64_t> g_train_epoch{-1};
std::atomic<int64_t> g_train_step{0};

struct CheckpointState {
  std::mutex mutex;
  LastCheckpointInfo info;
};

CheckpointState& GetCheckpointState() {
  static CheckpointState* state = new CheckpointState();
  return *state;
}

}  // namespace

void SetTrainProgress(int64_t epoch, int64_t step) {
  g_train_step.store(step, std::memory_order_relaxed);
  g_train_epoch.store(epoch, std::memory_order_relaxed);
}

TrainProgress GetTrainProgress() {
  TrainProgress progress;
  const int64_t epoch = g_train_epoch.load(std::memory_order_relaxed);
  if (epoch < 0) return progress;
  progress.valid = true;
  progress.epoch = epoch;
  progress.step = g_train_step.load(std::memory_order_relaxed);
  return progress;
}

void SetLastCheckpoint(const std::string& path, int64_t epoch) {
  const double now_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  CheckpointState& state = GetCheckpointState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.info.valid = true;
  state.info.path = path;
  state.info.epoch = epoch;
  state.info.unix_seconds = now_unix;
}

LastCheckpointInfo GetLastCheckpoint() {
  CheckpointState& state = GetCheckpointState();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.info;
}

void ResetTrainStateForTest() {
  g_train_epoch.store(-1, std::memory_order_relaxed);
  g_train_step.store(0, std::memory_order_relaxed);
  CheckpointState& state = GetCheckpointState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.info = LastCheckpointInfo();
}

// ---------------------------------------------------------------------------
// Endpoint handlers

namespace {

void AppendHtmlEscaped(std::ostringstream* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '<': *out << "&lt;"; break;
      case '>': *out << "&gt;"; break;
      case '&': *out << "&amp;"; break;
      default: *out << c;
    }
  }
}

std::string ArgValueToString(const trace::EventSnapshot::Arg& arg,
                             bool json_quote_strings) {
  std::ostringstream out;
  switch (arg.type) {
    case trace::SpanArg::Type::kInt64:
      out << arg.i;
      break;
    case trace::SpanArg::Type::kDouble:
      out.precision(12);
      out << arg.d;
      break;
    case trace::SpanArg::Type::kString:
      if (json_quote_strings) {
        out << '"';
        AppendJsonEscaped(&out, arg.s);
        out << '"';
      } else {
        out << arg.s;
      }
      break;
    case trace::SpanArg::Type::kNone:
      out << "null";
      break;
  }
  return out.str();
}

// Extra endpoints mounted by higher layers (RegisterObservabilityEndpoint).
struct ExtraEndpoints {
  std::mutex mutex;
  // Ordered map: the index page listing is deterministic.
  std::map<std::string, std::function<http::HttpResponse(
                            const http::HttpRequest&)>>
      handlers;
};

ExtraEndpoints& GetExtraEndpoints() {
  static ExtraEndpoints* endpoints = new ExtraEndpoints();
  return *endpoints;
}

http::HttpResponse HandleIndex() {
  http::HttpResponse resp;
  resp.content_type = "text/html; charset=utf-8";
  std::ostringstream out;
  out <<
      "<!doctype html><title>emba observability</title>"
      "<h1>emba observability</h1><ul>"
      "<li><a href=\"/metrics\">/metrics</a> &mdash; Prometheus text "
      "exposition</li>"
      "<li><a href=\"/metrics.json\">/metrics.json</a> &mdash; registry JSON "
      "dump</li>"
      "<li><a href=\"/healthz\">/healthz</a> &mdash; run-state + heartbeat "
      "age</li>"
      "<li><a href=\"/tracez\">/tracez</a> &mdash; recent spans "
      "(<a href=\"/tracez?format=json\">json</a>)</li>"
      "<li><a href=\"/profilez?seconds=2\">/profilez?seconds=2</a> &mdash; "
      "sampling profile (&amp;clock=cpu|wall)</li>"
      "<li><a href=\"/rpcz\">/rpcz</a> &mdash; in-flight + retained slow/"
      "errored requests (<a href=\"/rpcz?format=json\">json</a>, "
      "&amp;trace_id=&lt;hex&gt;)</li>"
      "<li><a href=\"/buildz\">/buildz</a> &mdash; build + runtime "
      "provenance</li>";
  {
    ExtraEndpoints& extra = GetExtraEndpoints();
    std::lock_guard<std::mutex> lock(extra.mutex);
    for (const auto& entry : extra.handlers) {
      out << "<li><a href=\"";
      AppendHtmlEscaped(&out, entry.first);
      out << "\">";
      AppendHtmlEscaped(&out, entry.first);
      out << "</a></li>";
    }
  }
  out << "</ul>";
  resp.body = out.str();
  return resp;
}

http::HttpResponse HandleMetrics() {
  metrics::SampleProcessGauges();
  http::HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = metrics::Registry::Global().ToPrometheus();
  return resp;
}

http::HttpResponse HandleMetricsJson() {
  metrics::SampleProcessGauges();
  http::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = metrics::Registry::Global().ToJson();
  return resp;
}

http::HttpResponse HandleHealthz() {
  const HealthState state = GetHealthState();
  const metrics::ProcessStats stats = metrics::GetProcessStats();
  const double beat_age = HealthHeartbeatAgeSeconds();
  http::HttpResponse resp;
  resp.content_type = "application/json";
  // Draining is the one state a load balancer should treat as "stop sending
  // work here"; everything else (including starting) answers 200.
  resp.status = state == HealthState::kDraining ? 503 : 200;
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "{\"state\": \"" << HealthStateName(state) << "\", "
      << "\"heartbeat_age_seconds\": ";
  if (beat_age < 0) {
    out << "null";
  } else {
    out << beat_age;
  }
  out << ", \"uptime_seconds\": " << stats.uptime_seconds
      << ", \"rss_bytes\": " << stats.rss_bytes
      << ", \"threads\": " << stats.threads;
  // Training progress + last checkpoint (null until a trainer publishes
  // them) — what drain/resume tooling needs without parsing log lines.
  const TrainProgress progress = GetTrainProgress();
  if (progress.valid) {
    out << ", \"epoch\": " << progress.epoch
        << ", \"step\": " << progress.step;
  } else {
    out << ", \"epoch\": null, \"step\": null";
  }
  const LastCheckpointInfo ckpt = GetLastCheckpoint();
  if (ckpt.valid) {
    out << ", \"last_checkpoint\": {\"path\": \"";
    AppendJsonEscaped(&out, ckpt.path);
    out << "\", \"epoch\": " << ckpt.epoch
        << ", \"unix_seconds\": " << ckpt.unix_seconds << "}";
  } else {
    out << ", \"last_checkpoint\": null";
  }
  out << "}\n";
  resp.body = out.str();
  return resp;
}

constexpr size_t kTracezEvents = 256;

http::HttpResponse HandleTracez(const http::HttpRequest& req) {
  const std::vector<trace::EventSnapshot> events =
      trace::SnapshotRecentEvents(kTracezEvents);
  http::HttpResponse resp;
  std::ostringstream out;
  if (http::QueryParam(req.query, "format") == "json") {
    resp.content_type = "application/json";
    out << "{\"tracing\": " << (trace::Enabled() ? "true" : "false")
        << ", \"dropped\": " << trace::DroppedEventCount()
        << ", \"events\": [";
    for (size_t i = 0; i < events.size(); ++i) {
      const trace::EventSnapshot& e = events[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"";
      AppendJsonEscaped(&out, e.name);
      out << "\", \"tid\": " << e.tid << ", \"ts_ns\": " << e.ts_ns
          << ", \"dur_ns\": " << e.dur_ns;
      if (!e.args.empty()) {
        out << ", \"args\": {";
        for (size_t a = 0; a < e.args.size(); ++a) {
          if (a > 0) out << ", ";
          out << '"';
          AppendJsonEscaped(&out, e.args[a].name);
          out << "\": "
              << ArgValueToString(e.args[a], /*json_quote_strings=*/true);
        }
        out << "}";
      }
      out << "}";
    }
    out << (events.empty() ? "]" : "\n]") << "}\n";
  } else {
    resp.content_type = "text/html; charset=utf-8";
    out << "<!doctype html><title>emba /tracez</title><h1>recent spans</h1>"
        << "<p>tracing " << (trace::Enabled() ? "on" : "off") << ", "
        << events.size() << " events shown, " << trace::DroppedEventCount()
        << " dropped (<a href=\"/tracez?format=json\">json</a>)</p>"
        << "<table border=\"1\" cellpadding=\"3\">"
        << "<tr><th>name</th><th>tid</th><th>ts (ms)</th><th>dur (ms)</th>"
        << "<th>args</th></tr>";
    out.precision(3);
    out << std::fixed;
    for (const trace::EventSnapshot& e : events) {
      out << "<tr><td>";
      AppendHtmlEscaped(&out, e.name);
      out << "</td><td>" << e.tid << "</td><td>"
          << static_cast<double>(e.ts_ns) * 1e-6 << "</td><td>"
          << static_cast<double>(e.dur_ns) * 1e-6 << "</td><td>";
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) out << ", ";
        AppendHtmlEscaped(&out, e.args[a].name);
        out << "=";
        AppendHtmlEscaped(&out,
                          ArgValueToString(e.args[a],
                                           /*json_quote_strings=*/false));
      }
      out << "</td></tr>";
    }
    out << "</table>";
  }
  resp.body = out.str();
  return resp;
}

http::HttpResponse HandleProfilez(const http::HttpRequest& req) {
  http::HttpResponse resp;
  const std::string seconds_str = http::QueryParam(req.query, "seconds", "2");
  char* end = nullptr;
  const double seconds = std::strtod(seconds_str.c_str(), &end);
  if (end == seconds_str.c_str() || *end != '\0') {
    resp.status = 400;
    resp.body = "bad seconds parameter: " + seconds_str + "\n";
    return resp;
  }
  const std::string clock_str = http::QueryParam(req.query, "clock", "cpu");
  prof::ProfileClock clock;
  if (clock_str == "cpu") {
    clock = prof::ProfileClock::kCpu;
  } else if (clock_str == "wall") {
    clock = prof::ProfileClock::kWall;
  } else {
    resp.status = 400;
    resp.body = "bad clock parameter (want cpu|wall): " + clock_str + "\n";
    return resp;
  }
  Result<std::string> profile = prof::CollectProfile(seconds, clock);
  if (!profile.ok()) {
    resp.status = profile.status().code() == StatusCode::kFailedPrecondition
                      ? 503
                      : 400;
    resp.body = profile.status().ToString() + "\n";
    return resp;
  }
  resp.body = *profile;
  if (resp.body.empty()) {
    resp.body = "# no samples (idle process on the cpu clock? try "
                "clock=wall)\n";
  }
  return resp;
}

// ---------------------------------------------------------------------------
// /rpcz — request-scoped tracing surface (util/request_trace)

void AppendRecordJson(std::ostringstream* out,
                      const rtrace::RequestRecord& rec) {
  *out << "{\"trace_id\": \"" << rec.trace_id_hex << "\", \"endpoint\": \"";
  AppendJsonEscaped(out, rec.endpoint);
  *out << "\", \"status\": " << rec.status
       << ", \"in_flight\": " << (rec.in_flight ? "true" : "false")
       << ", \"error\": " << (rec.error ? "true" : "false")
       << ", \"start_unix_seconds\": " << rec.start_unix_seconds
       << ", \"e2e_ms\": " << rec.e2e_ms << ", \"stages_ms\": {";
  for (int s = 0; s < rtrace::kStageCount; ++s) {
    if (s > 0) *out << ", ";
    *out << "\"" << rtrace::StageName(static_cast<rtrace::Stage>(s))
         << "\": " << rec.stage_ms[s];
  }
  *out << ", \"other\": " << rec.other_ms << "}";
  if (rec.has_batch) {
    *out << ", \"batch\": {\"id\": " << rec.batch_id
         << ", \"size\": " << rec.batch_size << ", \"fire_reason\": \"";
    AppendJsonEscaped(out, rec.fire_reason);
    *out << "\", \"compute_ms\": " << rec.batch_compute_ms
         << ", \"forward_ms\": " << rec.batch_forward_ms
         << ", \"int8\": " << (rec.int8_active ? "true" : "false")
         << ", \"sibling_trace_ids\": [";
    for (size_t i = 0; i < rec.sibling_trace_ids.size(); ++i) {
      if (i > 0) *out << ", ";
      *out << "\"" << rec.sibling_trace_ids[i] << "\"";
    }
    *out << "]}";
  }
  *out << "}";
}

void AppendRecordHtmlRow(std::ostringstream* out,
                         const rtrace::RequestRecord& rec) {
  *out << "<tr><td><a href=\"/rpcz?trace_id=" << rec.trace_id_hex << "\">"
       << rec.trace_id_hex << "</a></td><td>";
  AppendHtmlEscaped(out, rec.endpoint);
  *out << "</td><td>";
  if (rec.in_flight) {
    *out << "in flight";
  } else {
    *out << rec.status;
  }
  *out << "</td><td>" << rec.e2e_ms << "</td>";
  for (int s = 0; s < rtrace::kStageCount; ++s) {
    *out << "<td>" << rec.stage_ms[s] << "</td>";
  }
  *out << "<td>" << rec.other_ms << "</td><td>";
  if (rec.has_batch) {
    *out << "#" << rec.batch_id << " n=" << rec.batch_size << " ";
    AppendHtmlEscaped(out, rec.fire_reason);
    if (rec.int8_active) *out << " int8";
  }
  *out << "</td></tr>";
}

http::HttpResponse HandleRpcz(const http::HttpRequest& req) {
  http::HttpResponse resp;
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;

  // Single-request lookup: JSON always (the machine-facing contract the
  // serve tests exercise). 404 when the id was never retained — the
  // tail-sampling policy is allowed to have dropped it.
  const std::string trace_id = http::QueryParam(req.query, "trace_id");
  if (!trace_id.empty()) {
    resp.content_type = "application/json";
    rtrace::RequestRecord rec;
    if (!rtrace::FindRetainedHex(trace_id, &rec)) {
      resp.status = 404;
      resp.body = "{\"error\": \"trace id not retained: " + trace_id +
                  "\"}\n";
      return resp;
    }
    AppendRecordJson(&out, rec);
    out << "\n";
    resp.body = out.str();
    return resp;
  }

  const std::vector<rtrace::RequestRecord> in_flight =
      rtrace::SnapshotInFlight();
  const std::vector<rtrace::RequestRecord> retained =
      rtrace::SnapshotRetained();
  if (http::QueryParam(req.query, "format") == "json") {
    resp.content_type = "application/json";
    out << "{\"tracing\": " << (rtrace::Enabled() ? "true" : "false")
        << ", \"slowest_k\": " << rtrace::SlowestK() << ", \"in_flight\": [";
    for (size_t i = 0; i < in_flight.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "  ";
      AppendRecordJson(&out, in_flight[i]);
    }
    out << (in_flight.empty() ? "]" : "\n]") << ", \"retained\": [";
    for (size_t i = 0; i < retained.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "  ";
      AppendRecordJson(&out, retained[i]);
    }
    out << (retained.empty() ? "]" : "\n]") << "}\n";
  } else {
    resp.content_type = "text/html; charset=utf-8";
    out << "<!doctype html><title>emba /rpcz</title><h1>/rpcz</h1>"
        << "<p>request tracing " << (rtrace::Enabled() ? "on" : "off")
        << ", " << in_flight.size() << " in flight, " << retained.size()
        << " retained (slowest-" << rtrace::SlowestK()
        << " + recent errors; <a href=\"/rpcz?format=json\">json</a>)</p>";
    const char* kHeader =
        "<tr><th>trace id</th><th>endpoint</th><th>status</th>"
        "<th>e2e (ms)</th><th>parse</th><th>queue_wait</th>"
        "<th>batch_form</th><th>compute</th><th>serialize</th>"
        "<th>other</th><th>batch</th></tr>";
    out << "<h2>in flight</h2><table border=\"1\" cellpadding=\"3\">"
        << kHeader;
    for (const rtrace::RequestRecord& rec : in_flight) {
      AppendRecordHtmlRow(&out, rec);
    }
    out << "</table><h2>retained (slowest first)</h2>"
        << "<table border=\"1\" cellpadding=\"3\">" << kHeader;
    for (const rtrace::RequestRecord& rec : retained) {
      AppendRecordHtmlRow(&out, rec);
    }
    out << "</table>";
  }
  resp.body = out.str();
  return resp;
}

// ---------------------------------------------------------------------------
// /buildz — build + runtime provenance

#ifndef EMBA_GIT_SHA
#define EMBA_GIT_SHA "unknown"
#endif

// Every environment knob the codebase reads, reported with its live value
// so "what was this process actually configured with" has one answer.
const char* const kEnvKnobs[] = {
    "EMBA_SIMD",         "EMBA_INT8",        "EMBA_ARENA",
    "EMBA_ARENA_BYTES",  "EMBA_NUM_THREADS", "EMBA_METRICS_OUT",
    "EMBA_TRACE_OUT",    "EMBA_OBS_PORT",    "EMBA_METRICS_EVERY",
    "EMBA_RTRACE",       "EMBA_ACCESS_LOG",  "EMBA_RPCZ_K",
    "EMBA_TRAIN_EVENTS", "EMBA_NAN_ABORT",   "EMBA_ATTN_STATS",
    "EMBA_LOG_LEVEL",    "EMBA_BENCH_SCALE",
};

struct BuildzSections {
  std::mutex mutex;
  // Ordered map: /buildz output is diffable across scrapes.
  std::map<std::string, std::function<std::string()>> providers;
};

BuildzSections& GetBuildzSections() {
  static BuildzSections* sections = new BuildzSections();
  return *sections;
}

http::HttpResponse HandleBuildz() {
  http::HttpResponse resp;
  resp.content_type = "application/json";
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  const metrics::ProcessStats stats = metrics::GetProcessStats();
  const double now_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  out << "{\"git_sha\": \"" << EMBA_GIT_SHA << "\", \"compiler\": \"";
  AppendJsonEscaped(&out, __VERSION__);
  out << "\", \"start_time_unix_seconds\": "
      << (now_unix - stats.uptime_seconds)
      << ", \"uptime_seconds\": " << stats.uptime_seconds << ", \"env\": {";
  bool first = true;
  for (const char* knob : kEnvKnobs) {
    out << (first ? "" : ", ") << "\"" << knob << "\": ";
    first = false;
    if (const char* value = std::getenv(knob)) {
      out << "\"";
      AppendJsonEscaped(&out, value);
      out << "\"";
    } else {
      out << "null";
    }
  }
  out << "}";
  {
    BuildzSections& sections = GetBuildzSections();
    std::lock_guard<std::mutex> lock(sections.mutex);
    for (const auto& entry : sections.providers) {
      out << ", \"";
      AppendJsonEscaped(&out, entry.first);
      out << "\": \"";
      AppendJsonEscaped(&out, entry.second());
      out << "\"";
    }
  }
  out << "}\n";
  resp.body = out.str();
  return resp;
}

http::HttpResponse DispatchRequest(const http::HttpRequest& req) {
  static metrics::Counter& requests = metrics::GetCounter("obs.http_requests");
  requests.Increment();
  if (req.method != "GET") {
    http::HttpResponse resp;
    resp.status = 405;
    resp.body = "observability endpoints are GET-only\n";
    return resp;
  }
  if (req.path == "/" || req.path == "/index.html") return HandleIndex();
  if (req.path == "/metrics") return HandleMetrics();
  if (req.path == "/metrics.json") return HandleMetricsJson();
  if (req.path == "/healthz") return HandleHealthz();
  if (req.path == "/tracez") return HandleTracez(req);
  if (req.path == "/profilez") return HandleProfilez(req);
  if (req.path == "/rpcz") return HandleRpcz(req);
  if (req.path == "/buildz") return HandleBuildz();
  {
    // Registered extras (/trainz, ...). The handler is copied out so a
    // concurrent re-registration cannot invalidate it mid-call.
    ExtraEndpoints& extra = GetExtraEndpoints();
    std::function<http::HttpResponse(const http::HttpRequest&)> handler;
    {
      std::lock_guard<std::mutex> lock(extra.mutex);
      auto it = extra.handlers.find(req.path);
      if (it != extra.handlers.end()) handler = it->second;
    }
    if (handler) return handler(req);
  }
  http::HttpResponse resp;
  resp.status = 404;
  resp.body = "not found: " + req.path + "\n";
  return resp;
}

}  // namespace

http::HttpResponse HandleObservabilityRequest(const http::HttpRequest& req) {
  return DispatchRequest(req);
}

void AddBuildzSection(const std::string& key,
                      std::function<std::string()> provider) {
  BuildzSections& sections = GetBuildzSections();
  std::lock_guard<std::mutex> lock(sections.mutex);
  sections.providers[key] = std::move(provider);
}

void RegisterObservabilityEndpoint(
    const std::string& path,
    std::function<http::HttpResponse(const http::HttpRequest&)> handler) {
  EMBA_CHECK_MSG(!path.empty() && path[0] == '/',
                 "endpoint path must start with '/'");
  // Built-ins are dispatched before the extras table, so shadowing one here
  // would silently never fire — reject it loudly instead.
  static const char* const kBuiltins[] = {
      "/",     "/index.html", "/metrics", "/metrics.json", "/healthz",
      "/tracez", "/profilez", "/rpcz",    "/buildz",
  };
  for (const char* builtin : kBuiltins) {
    EMBA_CHECK_MSG(path != builtin,
                   "cannot shadow built-in observability endpoint");
  }
  ExtraEndpoints& extra = GetExtraEndpoints();
  std::lock_guard<std::mutex> lock(extra.mutex);
  extra.handlers[path] = std::move(handler);
}

// ---------------------------------------------------------------------------
// Observability server lifecycle

namespace {

std::mutex g_server_mutex;
std::unique_ptr<http::HttpServer> g_server;
// Mirror of g_server's liveness for the lock-free Running() fast path —
// the trainer polls it once per step.
std::atomic<bool> g_server_running{false};

}  // namespace

Status StartObservabilityServer(int port) {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  if (g_server != nullptr && g_server->Running()) {
    return Status::FailedPrecondition(
        "observability server already running on port " +
        std::to_string(g_server->port()));
  }
  auto server = std::make_unique<http::HttpServer>(&DispatchRequest);
  EMBA_RETURN_NOT_OK(server->Start(port));
  g_server = std::move(server);
  g_server_running.store(true, std::memory_order_release);
  EMBA_LOG(INFO) << "observability server listening on port "
                 << g_server->port()
                 << " (/metrics /healthz /tracez /profilez)";
  return Status::OK();
}

void StopObservabilityServer() {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  g_server_running.store(false, std::memory_order_release);
  if (g_server != nullptr) {
    g_server->Stop();
    g_server.reset();
  }
}

bool ObservabilityServerRunning() {
  return g_server_running.load(std::memory_order_relaxed);
}

int ObservabilityServerPort() {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  return g_server != nullptr && g_server->Running() ? g_server->port() : 0;
}

// ---------------------------------------------------------------------------
// Periodic metrics flush

namespace {

struct PeriodicFlusher {
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};

std::mutex g_flusher_mutex;
std::unique_ptr<PeriodicFlusher> g_flusher;

void StopPeriodicLocked() {
  if (g_flusher == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(g_flusher->mutex);
    g_flusher->stop = true;
  }
  g_flusher->cv.notify_all();
  if (g_flusher->thread.joinable()) g_flusher->thread.join();
  g_flusher.reset();
}

}  // namespace

Status StartPeriodicMetricsFlush(double seconds, const std::string& path) {
  if (!(seconds > 0.0)) {
    return Status::Invalid("flush interval must be > 0 seconds, got " +
                           std::to_string(seconds));
  }
  std::string target = path.empty() ? metrics::MetricsOutputPath() : path;
  if (target.empty()) {
    return Status::FailedPrecondition(
        "periodic metrics flush needs an output path (--metrics-out / "
        "EMBA_METRICS_OUT or an explicit path)");
  }
  metrics::SetMetricsOutputPath(target);
  metrics::SetEnabled(true);
  RegisterFlushAtExit();

  std::lock_guard<std::mutex> lock(g_flusher_mutex);
  StopPeriodicLocked();
  g_flusher = std::make_unique<PeriodicFlusher>();
  PeriodicFlusher* flusher = g_flusher.get();
  const auto interval = std::chrono::duration<double>(seconds);
  g_flusher->thread = std::thread([flusher, interval, target] {
    std::unique_lock<std::mutex> lock(flusher->mutex);
    while (!flusher->cv.wait_for(lock, interval,
                                 [flusher] { return flusher->stop; })) {
      lock.unlock();
      Status status = metrics::DumpMetricsJson(target);
      if (!status.ok()) {
        EMBA_LOG(WARN) << "periodic metrics flush failed: " << status;
      }
      lock.lock();
    }
  });
  return Status::OK();
}

void StopPeriodicMetricsFlush() {
  std::lock_guard<std::mutex> lock(g_flusher_mutex);
  StopPeriodicLocked();
}

bool PeriodicMetricsFlushRunning() {
  std::lock_guard<std::mutex> lock(g_flusher_mutex);
  return g_flusher != nullptr;
}

// ---------------------------------------------------------------------------
// Init / flush

void InitObservabilityFromEnv() {
  metrics::InitMetricsFromEnv();
  trace::InitTraceFromEnv();
  rtrace::InitRequestTraceFromEnv();
  if (!metrics::MetricsOutputPath().empty() ||
      !trace::TraceOutputPath().empty() ||
      !rtrace::AccessLogPath().empty()) {
    RegisterFlushAtExit();
  }
  // Env-driven wiring must never abort a run: malformed values warn and are
  // ignored, and a failed bind (port taken) is reported but non-fatal.
  if (const char* env = std::getenv("EMBA_OBS_PORT")) {
    if (env[0] != '\0') {
      char* end = nullptr;
      const long port = std::strtol(env, &end, 10);
      if (end == env || *end != '\0' || port < 0 || port > 65535) {
        EMBA_LOG(WARN) << "ignoring bad EMBA_OBS_PORT value: " << env;
      } else {
        Status status = StartObservabilityServer(static_cast<int>(port));
        if (!status.ok()) {
          EMBA_LOG(WARN) << "EMBA_OBS_PORT server start failed: " << status;
        }
      }
    }
  }
  if (const char* env = std::getenv("EMBA_METRICS_EVERY")) {
    if (env[0] != '\0') {
      char* end = nullptr;
      const double seconds = std::strtod(env, &end);
      if (end == env || *end != '\0' || !(seconds > 0.0)) {
        EMBA_LOG(WARN) << "ignoring bad EMBA_METRICS_EVERY value: " << env;
      } else {
        Status status = StartPeriodicMetricsFlush(seconds);
        if (!status.ok()) {
          EMBA_LOG(WARN) << "EMBA_METRICS_EVERY flush start failed: "
                         << status;
        }
      }
    }
  }
}

void EnableMetricsOutput(const std::string& path) {
  if (path.empty()) return;
  metrics::SetMetricsOutputPath(path);
  metrics::SetEnabled(true);
  RegisterFlushAtExit();
}

void EnableTraceOutput(const std::string& path) {
  if (path.empty()) return;
  trace::SetTraceOutputPath(path);
  trace::Start();
  RegisterFlushAtExit();
}

void FlushObservability() {
  SetHealthState(HealthState::kDraining);
  Status metrics_status = metrics::FlushMetricsIfConfigured();
  if (!metrics_status.ok()) {
    EMBA_LOG(WARN) << "metrics flush failed: " << metrics_status;
  }
  Status trace_status = trace::FlushTraceIfConfigured();
  if (!trace_status.ok()) {
    EMBA_LOG(WARN) << "trace flush failed: " << trace_status;
  }
  Status access_log_status = rtrace::FlushAccessLog();
  if (!access_log_status.ok()) {
    EMBA_LOG(WARN) << "access log flush failed: " << access_log_status;
  }
}

}  // namespace emba
