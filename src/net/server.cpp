#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"

namespace cipnet::net {

namespace {

CIPNET_FAULT_SITE(f_accept, "net.accept");
CIPNET_FAULT_SITE(f_read, "net.read");

const obs::Counter c_accepted("net.conns.accepted");
const obs::Counter c_closed("net.conns.closed");
const obs::Counter c_rejected("net.conns.rejected");
const obs::Counter c_accept_errors("net.accept.errors");
const obs::Counter c_read_errors("net.read.errors");
const obs::Counter c_quota_rejected("net.quota.rejected");
const obs::Counter c_orphaned("net.responses.orphaned");
const obs::Counter c_idle_closed("net.idle.closed");
const obs::Gauge g_active("net.conns.active");

bool resolve_host(const std::string& host, in_addr& out) {
  if (host.empty() || host == "0.0.0.0") {
    out.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    out.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out) == 1;
}

std::string peer_name(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

bool parse_hostport(const std::string& text, std::string& host,
                    std::uint16_t& port, std::string& error) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    error = "expected HOST:PORT, got '" + text + "'";
    return false;
  }
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    error = "bad port in '" + text + "'";
    return false;
  }
  const unsigned long value = std::strtoul(port_text.c_str(), nullptr, 10);
  if (value > 65535) {
    error = "port out of range in '" + text + "'";
    return false;
  }
  const std::string candidate = text.substr(0, colon);
  in_addr probe{};
  if (!resolve_host(candidate, probe)) {
    error = "bad host in '" + text + "' (IPv4 or 'localhost')";
    return false;
  }
  host = candidate;
  port = static_cast<std::uint16_t>(value);
  return true;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {}

Server::~Server() {
  // Unpublish the introspection supplier first: `version`/`health` jobs on
  // worker threads read it, and the install mutex makes this call block
  // until any in-flight read finishes.
  set_listener_supplier(nullptr);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::start() {
  if (!loop_.valid()) {
    error_ = "epoll initialisation failed";
    return false;
  }
  in_addr bind_addr{};
  if (!resolve_host(options_.host, bind_addr)) {
    error_ = "bad listen host '" + options_.host + "' (IPv4 or 'localhost')";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = bind_addr;
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error_ = "bind " + options_.host + ":" + std::to_string(options_.port) +
             ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  char ip[INET_ADDRSTRLEN] = "0.0.0.0";
  ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
  address_ = std::string(ip) + ":" + std::to_string(port_);
  if (!loop_.add(listen_fd_, &listen_tag_)) {
    error_ = "epoll add listener failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  listening_.store(true, std::memory_order_relaxed);
  set_listener_supplier([this] { return snapshot_info(); });
  return true;
}

ListenerInfo Server::snapshot_info() const {
  ListenerInfo info;
  info.listening = listening_.load(std::memory_order_relaxed);
  info.draining = draining_flag_.load(std::memory_order_relaxed);
  info.address = address_;  // immutable after start()
  info.conns_active = active_.load(std::memory_order_relaxed);
  info.conns_accepted = accepted_.load(std::memory_order_relaxed);
  info.frames = frames_.load(std::memory_order_relaxed);
  info.bytes_in = bytes_.in.load(std::memory_order_relaxed);
  info.bytes_out = bytes_.out.load(std::memory_order_relaxed);
  return info;
}

void Server::request_drain() {
  // Async-signal-safe: one relaxed store and one eventfd write. The loop
  // thread observes the flag at the top of its next iteration.
  drain_requested_.store(true, std::memory_order_relaxed);
  loop_.notify();
}

void Server::run() {
  // Serving implies instrumentation, exactly as the stdio loop: the
  // `metrics` op reports the live registry.
  obs::ScopedEnable metrics_on(/*reset=*/false);
  std::vector<LoopEvent> events;
  for (;;) {
    if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
      begin_drain();
    }
    drain_completions();
    reap_doomed();
    reap(std::chrono::steady_clock::now());
    if (draining_ && conns_.empty()) break;
    if (!loop_.wait(events, wait_timeout_ms())) break;
    for (const LoopEvent& event : events) {
      if (event.tag == &listen_tag_) {
        accept_ready();
        continue;
      }
      auto* conn = static_cast<Connection*>(event.tag);
      if (is_doomed(conn->id())) continue;
      handle_event(conn, event);
    }
    reap_doomed();
  }
  listening_.store(false, std::memory_order_relaxed);
}

int Server::wait_timeout_ms() const {
  // Completions and drain requests arrive via notify(), so blocking forever
  // is safe; the periodic tick only exists to police idle timeouts (and as
  // a belt-and-braces bound while draining).
  if (draining_ || options_.idle_timeout_ms != 0) return 100;
  return -1;
}

void Server::accept_ready() {
  for (;;) {
    if (listen_fd_ < 0) return;
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      c_accept_errors.add();
      return;
    }
    if (CIPNET_FAULT_FIRES(f_accept)) {
      c_accept_errors.add();
      ::close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      c_rejected.add();
      ::close(fd);
      continue;
    }
    // Responses are small lines written as jobs finish. With Nagle on, one
    // sent while an earlier one is unacknowledged waits for the client's
    // delayed ACK, which dominated request latency.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(fd, id, peer_name(addr), &bytes_);
    if (!loop_.add(fd, conn.get())) {
      c_accept_errors.add();
      continue;  // ~Connection closes fd
    }
    conns_.emplace(id, std::move(conn));
    c_accepted.add();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.store(conns_.size(), std::memory_order_relaxed);
    g_active.set(conns_.size());
  }
}

void Server::handle_event(Connection* conn, const LoopEvent& event) {
  if (event.error) {
    doom(conn->id());
    return;
  }
  if (event.readable && !conn->read_closed()) {
    if (CIPNET_FAULT_FIRES(f_read)) {
      c_read_errors.add();
      doom(conn->id());
      return;
    }
    std::vector<Frame> frames;
    const ReadResult result =
        conn->read_frames(options_.service.max_line_bytes, frames);
    if (result == ReadResult::kError) {
      // The socket is gone; frames already extracted would only produce
      // responses nobody can receive.
      c_read_errors.add();
      doom(conn->id());
      return;
    }
    process_frames(conn, frames);
    if (result == ReadResult::kEof || conn->read_closed()) {
      update_interest(conn);
    }
  }
  if (event.writable) {
    if (!conn->flush()) {
      doom(conn->id());
      return;
    }
    update_interest(conn);
  }
}

void Server::process_frames(Connection* conn, std::vector<Frame>& frames) {
  for (Frame& frame : frames) {
    if (frame.oversized) {
      // Same contract as the stdio loop: the frame was discarded unread
      // (no id to echo), but the client gets a structured rejection.
      conn->queue_response(service_.error_line(
          "", "bad_request",
          "request line exceeds " +
              std::to_string(options_.service.max_line_bytes) + " bytes"));
      continue;
    }
    if (conn->inflight() >= options_.quota.max_inflight_jobs ||
        conn->pending_bytes() > options_.quota.max_pending_bytes) {
      c_quota_rejected.add();
      conn->queue_response(service_.error_line(
          frame.line, "overloaded",
          "per-connection quota exceeded (" +
              std::to_string(options_.quota.max_inflight_jobs) +
              " in-flight); retry later",
          service_.scheduler().retry_hint_ms()));
      continue;
    }
    frames_.fetch_add(1, std::memory_order_relaxed);
    conn->add_inflight();
    const std::uint64_t conn_id = conn->id();
    // The completion may run inline (introspection, malformed, overloaded)
    // or on a worker thread; both routes go through the completion queue,
    // so the Connection is only ever touched by the loop thread.
    service_.submit_line(
        frame.line,
        [this, conn_id](const std::string& response) {
          complete(conn_id, response);
        },
        conn->peer());
  }
  after_output_queued(conn);
}

void Server::complete(std::uint64_t conn_id, const std::string& response) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(Completion{conn_id, response});
  }
  loop_.notify();
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      // The connection died while its job ran; the response has nowhere
      // to go. The job itself completed normally (cache, metrics, job
      // table all updated) — only delivery is lost.
      c_orphaned.add();
      continue;
    }
    Connection* conn = it->second.get();
    conn->queue_response(completion.response);
    conn->sub_inflight();
    after_output_queued(conn);
  }
}

void Server::after_output_queued(Connection* conn) {
  // Opportunistic flush: most responses fit the socket buffer, so the
  // common case never waits for an EPOLLOUT round-trip.
  if (!conn->flush()) {
    doom(conn->id());
    return;
  }
  update_interest(conn);
}

void Server::update_interest(Connection* conn) {
  loop_.modify(conn->fd(), conn, /*want_read=*/!conn->read_closed(),
               /*want_write=*/conn->wants_write());
}

void Server::doom(std::uint64_t conn_id) {
  if (!is_doomed(conn_id)) doomed_.push_back(conn_id);
}

bool Server::is_doomed(std::uint64_t conn_id) const {
  return std::find(doomed_.begin(), doomed_.end(), conn_id) != doomed_.end();
}

void Server::reap_doomed() {
  for (const std::uint64_t id : doomed_) {
    close_connection(id);
  }
  doomed_.clear();
}

void Server::close_connection(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_.remove(it->second->fd());
  conns_.erase(it);
  c_closed.add();
  closed_.fetch_add(1, std::memory_order_relaxed);
  active_.store(conns_.size(), std::memory_order_relaxed);
  g_active.set(conns_.size());
}

void Server::begin_drain() {
  draining_ = true;
  draining_flag_.store(true, std::memory_order_relaxed);
  listening_.store(false, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Half-close every connection: nothing more is read, every accepted
  // frame still gets its response, and `reap` closes each connection once
  // it is fully answered and flushed.
  for (auto& [id, conn] : conns_) {
    conn->close_read();
    update_interest(conn.get());
  }
}

void Server::reap(std::chrono::steady_clock::time_point now) {
  std::vector<std::uint64_t> done;
  for (auto& [id, conn] : conns_) {
    if (conn->drained()) {
      done.push_back(id);
      continue;
    }
    if (options_.idle_timeout_ms != 0 && conn->inflight() == 0 &&
        !conn->wants_write()) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - conn->last_activity())
                            .count();
      if (idle >= 0 &&
          static_cast<std::uint64_t>(idle) >= options_.idle_timeout_ms) {
        c_idle_closed.add();
        done.push_back(id);
      }
    }
  }
  for (const std::uint64_t id : done) {
    close_connection(id);
  }
}

}  // namespace cipnet::net
