// The TCP frontend (src/net/): framing, quotas, concurrency, drain, and
// the net-facing introspection surface. These tests run a real `net::Server`
// on an ephemeral loopback port and speak the NDJSON protocol over real
// sockets — the same path `cipnet serve --listen` exercises.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/net_format.h"
#include "net/connection.h"
#include "net/info.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "petri/net.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet {
namespace {

std::string toggle_net_text(std::size_t k) {
  PetriNet net;
  for (std::size_t i = 0; i < k; ++i) {
    PlaceId a = net.add_place("a" + std::to_string(i), 1);
    PlaceId b = net.add_place("b" + std::to_string(i), 0);
    net.add_transition({a}, "t" + std::to_string(i), {b});
    net.add_transition({b}, "u" + std::to_string(i), {a});
  }
  return write_net(net, "toggles");
}

std::string request(int id, const std::string& op,
                    const std::string& net_text = "",
                    const std::string& format = "") {
  json::Writer w;
  w.begin_object();
  w.member("id", id);
  w.member("op", op);
  if (!net_text.empty()) w.member("net", net_text);
  if (!format.empty()) w.member("format", format);
  w.end_object();
  return w.take() + "\n";
}

/// Server on an ephemeral loopback port, run on its own thread. `stop()`
/// (also the destructor) drains gracefully and joins.
class TestServer {
 public:
  explicit TestServer(net::ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<net::Server>(std::move(options));
    started_ = server_->start();
    if (started_) thread_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
  }

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] net::Server& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  bool started_ = false;
};

/// Minimal blocking NDJSON client for the tests.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Read complete lines until the server's EOF (or the receive timeout).
  std::vector<std::string> read_until_eof() {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[8192];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buffer.find('\n', start);
           nl != std::string::npos; nl = buffer.find('\n', start)) {
        lines.push_back(buffer.substr(start, nl - start));
        start = nl + 1;
      }
      buffer.erase(0, start);
    }
    return lines;
  }

  /// Blocking single exchange: send one frame, read one response line.
  std::string exchange(const std::string& frame) {
    send_all(frame);
    std::string buffer;
    char ch = 0;
    for (;;) {
      const ssize_t n = ::recv(fd_, &ch, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return buffer;
      if (ch == '\n') return buffer;
      buffer.push_back(ch);
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

json::Value parsed(const std::string& line) { return json::parse(line); }

bool response_ok(const std::string& line) {
  const json::Value doc = parsed(line);
  const json::Value* ok = doc.find("ok");
  return ok != nullptr && ok->type() == json::Value::Type::kBool &&
         ok->as_bool();
}

std::string error_code(const std::string& line) {
  const json::Value doc = parsed(line);
  const json::Value* error = doc.find("error");
  return error == nullptr ? "" : error->get_string("code");
}

TEST(Net, ParseHostportAcceptsHostPortForms) {
  std::string host;
  std::uint16_t port = 0;
  std::string error;
  EXPECT_TRUE(net::parse_hostport("127.0.0.1:8080", host, port, error));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(net::parse_hostport("localhost:0", host, port, error));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(net::parse_hostport(":9", host, port, error));
  EXPECT_EQ(host, "");
  EXPECT_EQ(port, 9);
}

TEST(Net, ParseHostportRejectsMalformedInput) {
  std::string host;
  std::uint16_t port = 0;
  std::string error;
  EXPECT_FALSE(net::parse_hostport("8080", host, port, error));
  EXPECT_FALSE(net::parse_hostport("127.0.0.1:", host, port, error));
  EXPECT_FALSE(net::parse_hostport("127.0.0.1:notaport", host, port, error));
  EXPECT_FALSE(net::parse_hostport("127.0.0.1:70000", host, port, error));
  EXPECT_FALSE(net::parse_hostport("not-a-host:80", host, port, error));
  EXPECT_FALSE(error.empty());
}

TEST(Net, IngestExtractsFramesAndDropsEmptyLines) {
  net::Connection conn(-1, 1, "test");
  std::vector<net::Frame> frames;
  const std::string data = "alpha\n\nbeta\ngam";
  conn.ingest(data.data(), data.size(), 1024, frames);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].line, "alpha");
  EXPECT_EQ(frames[1].line, "beta");
  // The partial tail completes on the next ingest, split mid-frame.
  const std::string rest = "ma\n";
  conn.ingest(rest.data(), rest.size(), 1024, frames);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2].line, "gamma");
  EXPECT_FALSE(frames[2].oversized);
}

TEST(Net, IngestDiscardsOversizedFrameAndStaysLineSynced) {
  net::Connection conn(-1, 1, "test");
  std::vector<net::Frame> frames;
  const std::string data = "0123456789xyz\nshort\n";
  conn.ingest(data.data(), data.size(), 8, frames);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_TRUE(frames[0].line.empty());
  EXPECT_FALSE(frames[1].oversized);
  EXPECT_EQ(frames[1].line, "short");
}

/// What one connection makes of `chunks` fed as consecutive reads: the
/// frames as (line, oversized) pairs, and the frame counters and
/// frame-size recordings they leave in the registry.
using Ingested = std::pair<std::vector<std::pair<std::string, bool>>,
                           std::vector<std::uint64_t>>;

Ingested ingest_reads(const std::vector<std::string>& chunks,
                      std::size_t max_line_bytes) {
  obs::ScopedEnable metrics_on;
  net::Connection conn(-1, 1, "test");
  std::vector<net::Frame> frames;
  for (const std::string& chunk : chunks) {
    conn.ingest(chunk.data(), chunk.size(), max_line_bytes, frames);
  }
  Ingested result;
  for (net::Frame& frame : frames) {
    result.first.emplace_back(std::move(frame.line), frame.oversized);
  }
  const obs::Snapshot snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* sizes = snapshot.histogram("net.frame.bytes");
  result.second = {snapshot.counter("net.frames.in"),
                   snapshot.counter("net.frames.oversized"),
                   sizes == nullptr ? 0 : sizes->count,
                   sizes == nullptr ? 0 : sizes->sum};
  return result;
}

TEST(Net, IngestYieldsTheSameFramesWhateverTheReadBoundaries) {
  constexpr std::size_t kMax = 8;
  // Frames at, and one byte over, the bound; empty lines; an unterminated
  // tail that must never surface.
  const std::string stream =
      "alpha\n\nbeta\n" + std::string(20, 'x') +
      "\n12345678\n123456789\n\n\ngamma\ntail";
  const Ingested whole = ingest_reads({stream}, kMax);
  ASSERT_EQ(whole.first, (std::vector<std::pair<std::string, bool>>{
                             {"alpha", false},
                             {"beta", false},
                             {"", true},
                             {"12345678", false},
                             {"", true},
                             {"gamma", false}}));
  EXPECT_EQ(whole.second, (std::vector<std::uint64_t>{4, 2, 4, 5 + 4 + 8 + 5}));
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    EXPECT_EQ(ingest_reads({stream.substr(0, cut), stream.substr(cut)}, kMax),
              whole)
        << "cut at " << cut;
  }

  // An oversized line split across three reads, at every pair of cuts:
  // its buffered prefix is dropped and the next frame still parses.
  const std::string oversized = "ok\n" + std::string(30, 'y') + "\nafter\n";
  const Ingested whole_oversized = ingest_reads({oversized}, kMax);
  ASSERT_EQ(whole_oversized.first,
            (std::vector<std::pair<std::string, bool>>{
                {"ok", false}, {"", true}, {"after", false}}));
  for (std::size_t first = 3; first <= 33; ++first) {
    for (std::size_t second = first; second <= 33; ++second) {
      EXPECT_EQ(ingest_reads({oversized.substr(0, first),
                              oversized.substr(first, second - first),
                              oversized.substr(second)},
                             kMax),
                whole_oversized)
          << "cuts at " << first << ", " << second;
    }
  }
}

/// This process's accepted TCP sockets on `port`: bound locally to it and
/// not listening (a client socket's local port is its own ephemeral one).
std::vector<int> accepted_sockets_on(std::uint16_t port) {
  std::vector<int> fds;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd", ec)) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET || ntohs(local.sin_port) != port) {
      continue;
    }
    int listening = 1;
    socklen_t optlen = sizeof(listening);
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &optlen) ==
            0 &&
        listening == 0) {
      fds.push_back(fd);
    }
  }
  return fds;
}

TEST(Net, AcceptedConnectionsDisableNagle) {
  TestServer server;
  ASSERT_TRUE(server.started());

  Client first(server.port());
  Client second(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // An answered ping proves the server has accepted that connection.
  ASSERT_TRUE(response_ok(first.exchange(request(1, "ping"))));
  ASSERT_TRUE(response_ok(second.exchange(request(2, "ping"))));

  const std::vector<int> accepted = accepted_sockets_on(server.port());
  ASSERT_EQ(accepted.size(), 2u);
  for (const int fd : accepted) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1) << "accepted fd " << fd;
  }
}

TEST(Net, ServesManyConcurrentClientsWithMixedOps) {
  obs::ScopedEnable metrics_on;
  net::ServerOptions options;
  options.service.scheduler.workers = 4;
  TestServer server(options);
  ASSERT_TRUE(server.started());

  constexpr int kClients = 32;
  constexpr int kRequestsPerClient = 4;
  const std::string toggles = toggle_net_text(4);
  std::atomic<int> ok_responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      // Pipeline a mixed batch in one write, then half-close: the server
      // answers everything and closes (per-connection drain).
      std::string batch;
      batch += request(c * 10 + 1, "ping");
      batch += request(c * 10 + 2, "version");
      batch += request(c * 10 + 3, "reach", toggles);
      batch += request(c * 10 + 4, "metrics");
      client.send_all(batch);
      client.half_close();
      const std::vector<std::string> lines = client.read_until_eof();
      if (lines.size() != kRequestsPerClient) {
        failures.fetch_add(1);
        return;
      }
      for (const std::string& line : lines) {
        if (response_ok(line)) ok_responses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  EXPECT_GE(server.server().conns_accepted(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_GE(server.server().frames_accepted(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST(Net, QuotaRejectsPipelinedFramesBeyondInflightLimit) {
  obs::ScopedEnable metrics_on;
  net::ServerOptions options;
  options.service.scheduler.workers = 1;
  options.quota.max_inflight_jobs = 1;
  TestServer server(options);
  ASSERT_TRUE(server.started());

  // One write carrying a slow job then a burst: the server ingests the
  // whole batch in one read, so every frame past the first exceeds the
  // in-flight quota of 1 while the slow reach still runs.
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string batch = request(1, "reach", toggle_net_text(18));
  for (int i = 2; i <= 6; ++i) batch += request(i, "ping");
  client.send_all(batch);
  client.half_close();
  const std::vector<std::string> lines = client.read_until_eof();
  ASSERT_EQ(lines.size(), 6u);
  int overloaded = 0;
  for (const std::string& line : lines) {
    const json::Value doc = parsed(line);
    if (error_code(line) == "overloaded") {
      ++overloaded;
      // Quota turnaways carry the scheduler's retry hint.
      const json::Value* error = doc.find("error");
      ASSERT_NE(error, nullptr);
      EXPECT_GT(error->get_number("retry_after_ms", 0), 0.0);
    }
  }
  EXPECT_GE(overloaded, 1);
  // Every frame was answered exactly once: ok + overloaded covers all 6.
  int ok = 0;
  for (const std::string& line : lines) {
    if (response_ok(line)) ++ok;
  }
  EXPECT_EQ(ok + overloaded, 6);
}

TEST(Net, GracefulDrainAnswersEveryAcceptedFrame) {
  obs::ScopedEnable metrics_on;
  net::ServerOptions options;
  options.service.scheduler.workers = 2;
  TestServer server(options);
  ASSERT_TRUE(server.started());

  constexpr int kFrames = 16;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string batch;
  const std::string toggles = toggle_net_text(8);
  for (int i = 1; i <= kFrames; ++i) batch += request(i, "reach", toggles);
  client.send_all(batch);
  // Do NOT half-close: the drain itself must stop reading, finish every
  // accepted frame, flush, and close. Wait until the server has accepted
  // all frames so none are lost unread in the socket buffer.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (server.server().frames_accepted() <
             static_cast<std::uint64_t>(kFrames) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.server().frames_accepted(),
            static_cast<std::uint64_t>(kFrames));
  server.server().request_drain();
  const std::vector<std::string> lines = client.read_until_eof();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kFrames));
  for (const std::string& line : lines) {
    EXPECT_TRUE(response_ok(line)) << line;
  }
  server.stop();
  EXPECT_FALSE(net::listener_info().listening);
}

TEST(Net, MetricsOpExposesNetSeriesInJsonAndProm) {
  obs::ScopedEnable metrics_on;
  TestServer server;
  ASSERT_TRUE(server.started());

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Traffic first, so the counters exist with nonzero values.
  ASSERT_TRUE(response_ok(client.exchange(request(1, "ping"))));

  const std::string json_line = client.exchange(request(2, "metrics"));
  ASSERT_TRUE(response_ok(json_line)) << json_line;
  const json::Value doc = parsed(json_line);
  const json::Value* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  const json::Value* counters = result->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get_number("net.conns.accepted", 0), 1.0);
  EXPECT_GE(counters->get_number("net.frames.in", 0), 1.0);
  EXPECT_GE(counters->get_number("net.bytes.in", 0), 1.0);
  EXPECT_GE(counters->get_number("net.bytes.out", 0), 1.0);
  const json::Value* gauges = result->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GE(gauges->get_number("net.conns.active", 0), 1.0);

  const std::string prom_line =
      client.exchange(request(3, "metrics", "", "prom"));
  ASSERT_TRUE(response_ok(prom_line)) << prom_line;
  const json::Value prom_doc = parsed(prom_line);
  const json::Value* prom_result = prom_doc.find("result");
  ASSERT_NE(prom_result, nullptr);
  const std::string body = prom_result->get_string("body");
  EXPECT_NE(body.find("cipnet_net_conns_accepted_total"), std::string::npos);
  EXPECT_NE(body.find("cipnet_net_frames_in_total"), std::string::npos);
  EXPECT_NE(body.find("cipnet_net_conns_active"), std::string::npos);
}

TEST(Net, VersionAndHealthReportTheListener) {
  obs::ScopedEnable metrics_on;
  TestServer server;
  ASSERT_TRUE(server.started());

  Client client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string version_line = client.exchange(request(1, "version"));
  ASSERT_TRUE(response_ok(version_line)) << version_line;
  const json::Value version = parsed(version_line);
  const json::Value* vresult = version.find("result");
  ASSERT_NE(vresult, nullptr);
  EXPECT_NE(vresult->get_string("features").find("net"), std::string::npos);
  const json::Value* vnet = vresult->find("net");
  ASSERT_NE(vnet, nullptr);
  const json::Value* listening = vnet->find("listening");
  ASSERT_NE(listening, nullptr);
  EXPECT_TRUE(listening->as_bool());
  EXPECT_EQ(vnet->get_string("address"), server.server().address());

  const std::string health_line = client.exchange(request(2, "health"));
  ASSERT_TRUE(response_ok(health_line)) << health_line;
  const json::Value health = parsed(health_line);
  const json::Value* hresult = health.find("result");
  ASSERT_NE(hresult, nullptr);
  const json::Value* hnet = hresult->find("net");
  ASSERT_NE(hnet, nullptr);
  EXPECT_GE(hnet->get_number("active_connections", 0), 1.0);
  EXPECT_GE(hnet->get_number("accepted_connections", 0), 1.0);
  EXPECT_GE(hnet->get_number("bytes_in", 0), 1.0);
}

TEST(Net, IdleTimeoutReapsQuietConnections) {
  obs::ScopedEnable metrics_on;
  net::ServerOptions options;
  options.idle_timeout_ms = 150;
  TestServer server(options);
  ASSERT_TRUE(server.started());

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Never send a byte: the server must close us after the idle window.
  const std::vector<std::string> lines = client.read_until_eof();
  EXPECT_TRUE(lines.empty());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.server().conns_closed() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.server().conns_closed(), 1u);
}

TEST(Net, OversizedFrameRejectedWithoutDesyncOverTcp) {
  obs::ScopedEnable metrics_on;
  net::ServerOptions options;
  options.service.max_line_bytes = 256;
  TestServer server(options);
  ASSERT_TRUE(server.started());

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string batch(1024, 'x');  // over the 256-byte frame bound
  batch += "\n";
  batch += request(2, "ping");
  client.send_all(batch);
  client.half_close();
  const std::vector<std::string> lines = client.read_until_eof();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(error_code(lines[0]), "bad_request");
  EXPECT_TRUE(response_ok(lines[1])) << lines[1];
}

TEST(Net, ListenerInfoDefaultsWhenNoServerRuns) {
  const net::ListenerInfo info = net::listener_info();
  EXPECT_FALSE(info.listening);
  EXPECT_FALSE(info.draining);
  EXPECT_TRUE(info.address.empty());
  EXPECT_EQ(info.conns_active, 0u);
}

}  // namespace
}  // namespace cipnet
