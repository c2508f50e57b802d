// Tier-1 fault-injection tests for util/http_server: a hostile or broken
// client must always get a 4xx (or a clean close) and must never crash the
// server or leak a connection slot. Exercises fragmented reads
// (byte-at-a-time requests, bodies split across writes), oversized bodies
// (413) and header blocks (431), malformed request lines and headers (400),
// unsupported methods (405), bad Content-Length (400), mid-request
// disconnects, Expect: 100-continue, worker-pool admission (503 +
// RefusedConnections when the pending queue is full), and an access-log
// line that stays valid JSON when the path holds a control byte. Runs under
// the ASan+UBSan CI job like every tier-1 test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"
#include "util/http_server.h"
#include "util/request_trace.h"

namespace emba {
namespace {

// ---------------------------------------------------------------------------
// Raw-socket client primitives: the whole point is to control exactly what
// bytes hit the wire and when.

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

std::string RecvAll(int fd) {
  std::string raw;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    raw.append(chunk, static_cast<size_t>(n));
  }
  return raw;
}

int StatusOf(const std::string& raw) {
  if (raw.rfind("HTTP/1.1 ", 0) != 0) return -1;
  return std::atoi(raw.c_str() + std::strlen("HTTP/1.1 "));
}

std::string BodyOf(const std::string& raw) {
  const size_t header_end = raw.find("\r\n\r\n");
  return header_end == std::string::npos ? "" : raw.substr(header_end + 4);
}

/// Sends the raw request in `pieces` with a pause between writes, then
/// reads the full response.
std::string RoundTripPieces(int port, const std::vector<std::string>& pieces,
                            int pause_ms = 2) {
  const int fd = Connect(port);
  for (const std::string& piece : pieces) {
    SendAll(fd, piece);
    std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
  }
  const std::string raw = RecvAll(fd);
  close(fd);
  return raw;
}

std::string PostRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

/// The server under test echoes what it parsed, so assembly bugs are
/// visible in the response, not just in the status code.
http::HttpResponse EchoHandler(const http::HttpRequest& req) {
  http::HttpResponse resp;
  resp.body = req.method + " " + req.path + " [" + req.body + "] len=" +
              std::to_string(req.body.size()) + " x-test=" +
              req.Header("x-test");
  return resp;
}

void ExpectNoOpenConnections(const http::HttpServer& server) {
  // The client saw the full response, but the server may still be a few
  // instructions away from close(); poll briefly.
  for (int spin = 0; spin < 2000 && server.OpenConnections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.OpenConnections(), 0);
}

class HttpFaultTest : public ::testing::Test {
 protected:
  void StartServer(http::HttpServerOptions options = {},
                   http::HttpServer::Handler handler = EchoHandler) {
    server_ = std::make_unique<http::HttpServer>(std::move(handler), options);
    ASSERT_TRUE(server_->Start(0).ok());
    port_ = server_->port();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      ExpectNoOpenConnections(*server_);
      server_->Stop();
    }
  }

  std::unique_ptr<http::HttpServer> server_;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Fragmented arrival: short reads must assemble identically to one write.

TEST_F(HttpFaultTest, ByteAtATimeRequestParsesIdentically) {
  StartServer();
  const std::string request = PostRequest("/echo", "hello fragmented world");
  std::vector<std::string> pieces;
  for (char c : request) pieces.emplace_back(1, c);
  const std::string raw = RoundTripPieces(port_, pieces, /*pause_ms=*/0);
  EXPECT_EQ(StatusOf(raw), 200);
  EXPECT_EQ(BodyOf(raw),
            "POST /echo [hello fragmented world] len=22 x-test=");
}

TEST_F(HttpFaultTest, BodySplitAcrossWritesIsAssembledToContentLength) {
  StartServer();
  const std::string body(300, 'b');
  const std::string request = PostRequest("/echo", body);
  // Headers in one write, then the body in three uneven chunks.
  const size_t header_end = request.find("\r\n\r\n") + 4;
  const std::string raw = RoundTripPieces(
      port_, {request.substr(0, header_end + 1),
              request.substr(header_end + 1, 120),
              request.substr(header_end + 121)});
  EXPECT_EQ(StatusOf(raw), 200);
  EXPECT_NE(BodyOf(raw).find("len=300"), std::string::npos);
}

TEST_F(HttpFaultTest, HeadersSplitMidLineParse) {
  StartServer();
  const std::string raw = RoundTripPieces(
      port_, {"GET /a HTTP/1.1\r\nHost: t\r\nx-te", "st: frag",
              "mented\r\nConnection: close\r\n\r\n"});
  EXPECT_EQ(StatusOf(raw), 200);
  EXPECT_NE(BodyOf(raw).find("x-test=fragmented"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hostile inputs: always a 4xx, never a crash.

TEST_F(HttpFaultTest, OversizedBodyAnswers413BeforeReadingIt) {
  http::HttpServerOptions options;
  options.max_body_bytes = 64;
  StartServer(options);
  // Only the headers are sent: the 413 must come from Content-Length alone.
  const int fd = Connect(port_);
  SendAll(fd, "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 100000\r\n"
              "Connection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(RecvAll(fd)), 413);
  close(fd);
}

TEST_F(HttpFaultTest, OversizedHeaderBlockAnswers431) {
  http::HttpServerOptions options;
  options.max_header_bytes = 256;
  StartServer(options);
  const std::string raw = RoundTripPieces(
      port_, {"GET / HTTP/1.1\r\nx-huge: " + std::string(1000, 'h') +
              "\r\n\r\n"});
  EXPECT_EQ(StatusOf(raw), 431);
}

TEST_F(HttpFaultTest, MalformedRequestLineAnswers400) {
  StartServer();
  EXPECT_EQ(StatusOf(RoundTripPieces(port_, {"GARBAGE\r\n\r\n"})), 400);
  EXPECT_EQ(StatusOf(RoundTripPieces(port_, {"GET onlyonefield\r\n\r\n"})),
            400);
}

TEST_F(HttpFaultTest, UnsupportedMethodAnswers405) {
  StartServer();
  EXPECT_EQ(StatusOf(RoundTripPieces(
                port_, {"DELETE / HTTP/1.1\r\nHost: t\r\n\r\n"})),
            405);
}

TEST_F(HttpFaultTest, BadContentLengthAnswers400) {
  StartServer();
  EXPECT_EQ(StatusOf(RoundTripPieces(
                port_, {"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"})),
            400);
}

TEST_F(HttpFaultTest, HeaderWithoutColonAnswers400) {
  StartServer();
  EXPECT_EQ(StatusOf(RoundTripPieces(
                port_, {"GET / HTTP/1.1\r\nbroken header line\r\n\r\n"})),
            400);
}

TEST_F(HttpFaultTest, MidRequestDisconnectLeaksNothing) {
  StartServer();
  // Drop the connection mid-headers, mid-body, and before any bytes.
  for (const std::string& partial :
       {std::string("GET /ha"), PostRequest("/echo", "full body").substr(0, 60),
        std::string()}) {
    const int fd = Connect(port_);
    if (!partial.empty()) SendAll(fd, partial);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    close(fd);
  }
  ExpectNoOpenConnections(*server_);
  // The server is still fully alive for well-formed clients.
  const std::string raw =
      RoundTripPieces(port_, {PostRequest("/echo", "still alive")});
  EXPECT_EQ(StatusOf(raw), 200);
  EXPECT_NE(BodyOf(raw).find("still alive"), std::string::npos);
}

TEST_F(HttpFaultTest, AccessLogLineStaysValidJsonWithControlByteInPath) {
  // The logged endpoint is the client's raw path bytes, so the access log
  // must escape control bytes to stay one valid JSON object per line.
  const std::string log_path = "/tmp/emba_http_fault_access_log.jsonl";
  std::remove(log_path.c_str());
  rtrace::SetEnabled(true);
  ASSERT_TRUE(rtrace::SetAccessLogPath(log_path).ok());
  StartServer();
  EXPECT_EQ(StatusOf(RoundTripPieces(
                port_, {"GET /he\x01z HTTP/1.1\r\nHost: t\r\n\r\n"})),
            200);
  ExpectNoOpenConnections(*server_);  // the line is written at finish
  ASSERT_TRUE(rtrace::FlushAccessLog().ok());
  ASSERT_TRUE(rtrace::SetAccessLogPath("").ok());
  rtrace::SetEnabled(false);
  rtrace::ResetForTest();

  std::ifstream in(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto parsed = serve::json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  const serve::json::Value* endpoint = parsed->Find("endpoint");
  ASSERT_NE(endpoint, nullptr);
  EXPECT_EQ(endpoint->AsString(), "/he\x01z");
  std::remove(log_path.c_str());
}

TEST_F(HttpFaultTest, Expect100ContinueGetsInterimResponse) {
  StartServer();
  const int fd = Connect(port_);
  SendAll(fd, "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n"
              "Expect: 100-continue\r\nConnection: close\r\n\r\n");
  // Read until the interim response arrives, then send the body.
  std::string interim;
  char c;
  while (interim.find("\r\n\r\n") == std::string::npos &&
         recv(fd, &c, 1, 0) == 1) {
    interim += c;
  }
  EXPECT_NE(interim.find("100 Continue"), std::string::npos);
  SendAll(fd, "hello");
  const std::string raw = RecvAll(fd);
  close(fd);
  EXPECT_EQ(StatusOf(raw), 200);
  EXPECT_NE(BodyOf(raw).find("[hello] len=5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Worker-pool admission: a full pending queue answers 503 immediately.

TEST_F(HttpFaultTest, WorkerPoolRefusesWithCanned503WhenPendingQueueFull) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  http::HttpServerOptions options;
  options.num_workers = 1;
  options.max_pending = 1;
  StartServer(options, [&](const http::HttpRequest& req) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    return EchoHandler(req);
  });

  // c1 occupies the only worker; wait until its handler has started so the
  // pending queue is empty again.
  const int c1 = Connect(port_);
  SendAll(c1, "GET /1 HTTP/1.1\r\nConnection: close\r\n\r\n");
  for (int spin = 0; spin < 2000 && entered.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(), 1);

  // c2 parks in the pending queue (bound 1); give the listener a moment.
  const int c2 = Connect(port_);
  SendAll(c2, "GET /2 HTTP/1.1\r\nConnection: close\r\n\r\n");
  for (int spin = 0; spin < 2000 && server_->OpenConnections() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // c3 finds the queue full: immediate canned 503, no waiting.
  const int c3 = Connect(port_);
  SendAll(c3, "GET /3 HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string refused = RecvAll(c3);
  close(c3);
  EXPECT_EQ(StatusOf(refused), 503);
  EXPECT_GE(server_->RefusedConnections(), 1u);

  // Release the worker: both queued requests complete normally.
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(StatusOf(RecvAll(c1)), 200);
  EXPECT_EQ(StatusOf(RecvAll(c2)), 200);
  close(c1);
  close(c2);
}

TEST_F(HttpFaultTest, WorkerPoolSurvivesMixedGoodAndHostileBurst) {
  http::HttpServerOptions options;
  options.num_workers = 3;
  options.max_body_bytes = 256;
  StartServer(options);
  std::atomic<int> ok{0}, client_errors{0}, failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 12; ++i) {
    clients.emplace_back([&, i] {
      std::string raw;
      switch (i % 4) {
        case 0:
          raw = RoundTripPieces(port_, {PostRequest("/echo", "good")}, 0);
          break;
        case 1:
          raw = RoundTripPieces(port_, {"BROKEN\r\n\r\n"}, 0);
          break;
        case 2: {  // oversized body
          const int fd = Connect(port_);
          SendAll(fd, "POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
          raw = RecvAll(fd);
          close(fd);
          break;
        }
        case 3: {  // mid-request disconnect
          const int fd = Connect(port_);
          SendAll(fd, "GET /par");
          close(fd);
          raw = "HTTP/1.1 0";  // no response expected
          break;
        }
      }
      const int status = StatusOf(raw);
      if (status == 200) ok.fetch_add(1);
      else if (status == 400 || status == 413 || status == 0) {
        client_errors.fetch_add(1);
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 3);
  EXPECT_EQ(client_errors.load(), 9);
  EXPECT_EQ(failures.load(), 0);
  ExpectNoOpenConnections(*server_);
}

}  // namespace
}  // namespace emba
