#pragma once

// The TCP frontend of `cipnet serve`: an epoll event loop (net/event_loop.h)
// multiplexing a listening acceptor and many per-connection NDJSON state
// machines (net/connection.h) over ONE shared `svc::AnalysisService` — the
// same scheduler, cache, shedding, and introspection the stdio mode uses,
// now serving many clients from one process. Responses computed on worker
// threads route back to the originating connection through a completion
// queue drained by the loop; a connection that died first orphans its
// responses (counted) instead of blocking a worker.
//
// Per-client quotas: frames beyond `ConnectionQuota.max_inflight_jobs` or
// arriving while more than `max_pending_bytes` of responses sit unflushed
// are answered `overloaded` with the scheduler's retry hint — one client
// cannot monopolize the pool or balloon the process. Graceful drain
// (`request_drain()`, wired to SIGTERM by the CLI): stop accepting, stop
// reading, finish every accepted frame, flush, close — every accepted
// frame gets exactly one response before its connection closes. Protocol,
// lifecycle, and quota semantics: docs/SERVICE.md (§ TCP frontend).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/info.h"
#include "svc/service.h"

namespace cipnet::net {

struct ServerOptions {
  /// Bind address: an IPv4 dotted quad, "localhost", or "" / "0.0.0.0"
  /// for INADDR_ANY.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; `address()` reports the real one.
  std::uint16_t port = 0;
  ConnectionQuota quota;
  /// Close connections with no traffic and no in-flight work after this
  /// many ms (0 = never).
  std::uint64_t idle_timeout_ms = 0;
  /// Accept cap: connections beyond are closed immediately (counted in
  /// `net.conns.rejected`).
  std::size_t max_connections = 1024;
  /// The shared analysis service behind every connection.
  svc::ServiceOptions service;
};

/// Parse "host:port" (host optional: ":0" binds any-address ephemeral).
/// Returns false on malformed input; `error` explains.
bool parse_hostport(const std::string& text, std::string& host,
                    std::uint16_t& port, std::string& error);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + publish the introspection supplier. False on failure
  /// (`error()` explains); `run()` must not be called then.
  bool start();

  /// The event loop: blocks until a requested drain completes. Run it on
  /// a dedicated thread when the caller needs to keep working.
  void run();

  /// Begin graceful drain: stop accepting, half-close every connection,
  /// answer everything accepted, then `run()` returns. Callable from any
  /// thread and from signal handlers (atomic flag + eventfd write).
  void request_drain();

  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] svc::AnalysisService& service() { return service_; }

  /// Lifetime totals, readable from any thread (the `health` op and tests).
  [[nodiscard]] std::uint64_t conns_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t conns_closed() const {
    return closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t conns_active() const {
    return active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_accepted() const {
    return frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool draining() const {
    return draining_flag_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ListenerInfo snapshot_info() const;

 private:
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string response;
  };

  void accept_ready();
  void handle_event(Connection* conn, const LoopEvent& event);
  void process_frames(Connection* conn, std::vector<Frame>& frames);
  void complete(std::uint64_t conn_id, const std::string& response);
  void drain_completions();
  void after_output_queued(Connection* conn);
  void update_interest(Connection* conn);
  void close_connection(std::uint64_t conn_id);
  void doom(std::uint64_t conn_id);
  [[nodiscard]] bool is_doomed(std::uint64_t conn_id) const;
  void reap_doomed();
  void begin_drain();
  void reap(std::chrono::steady_clock::time_point now);
  [[nodiscard]] int wait_timeout_ms() const;

  ServerOptions options_;

  EventLoop loop_;
  int listen_fd_ = -1;
  /// Stable epoll tag for the listener (connection tags are Connection*).
  int listen_tag_ = 0;
  std::string address_;
  std::uint16_t port_ = 0;
  std::string error_;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  /// Connections condemned during event dispatch; closing is deferred to
  /// `reap_doomed` so later events in the same batch never touch a freed
  /// Connection through their epoll tag.
  std::vector<std::uint64_t> doomed_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;              // loop-thread view
  std::atomic<bool> draining_flag_{false};  // cross-thread view
  std::atomic<bool> listening_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_{0};
  ByteTotals bytes_;

  /// Declared last: the scheduler's workers (whose completion callbacks
  /// touch the members above) join before anything else is torn down.
  svc::AnalysisService service_;
};

}  // namespace cipnet::net
