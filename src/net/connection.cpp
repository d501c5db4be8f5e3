#include "net/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace cipnet::net {

namespace {

const obs::Counter c_bytes_in("net.bytes.in");
const obs::Counter c_bytes_out("net.bytes.out");
const obs::Counter c_frames_in("net.frames.in");
const obs::Counter c_oversized("net.frames.oversized");
const obs::Histogram h_frame_bytes("net.frame.bytes");

}  // namespace

Connection::Connection(int fd, std::uint64_t id, std::string peer,
                       ByteTotals* totals)
    : fd_(fd), id_(id), peer_(std::move(peer)), totals_(totals) {
  touch();
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::ingest(const char* data, std::size_t n,
                        std::size_t max_line_bytes, std::vector<Frame>& out) {
  const char* const end = data + n;
  while (data < end) {
    const auto* newline = static_cast<const char*>(
        std::memchr(data, '\n', static_cast<std::size_t>(end - data)));
    const char* const stop = newline != nullptr ? newline : end;
    const auto span = static_cast<std::size_t>(stop - data);
    if (!discarding_) {
      if (rbuf_.size() + span <= max_line_bytes) {
        rbuf_.append(data, span);
      } else {
        // Over the bound: drop what we buffered and everything until the
        // newline — the stream stays line-synced without holding the bytes.
        rbuf_.clear();
        discarding_ = true;
      }
    }
    if (newline == nullptr) return;
    data = newline + 1;
    if (discarding_) {
      discarding_ = false;
      c_oversized.add();
      out.push_back(Frame{std::string(), /*oversized=*/true});
    } else if (!rbuf_.empty()) {  // empty lines vanish, as in stdio serve
      c_frames_in.add();
      h_frame_bytes.record(rbuf_.size());
      out.push_back(Frame{std::move(rbuf_), /*oversized=*/false});
      rbuf_.clear();
    }
  }
}

ReadResult Connection::read_frames(std::size_t max_line_bytes,
                                   std::vector<Frame>& out) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      touch();
      c_bytes_in.add(static_cast<std::uint64_t>(n));
      if (totals_ != nullptr) {
        totals_->in.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
      }
      ingest(buf, static_cast<std::size_t>(n), max_line_bytes, out);
      if (static_cast<std::size_t>(n) < sizeof(buf)) return ReadResult::kOk;
      continue;  // kernel buffer may hold more
    }
    if (n == 0) {
      // Orderly EOF: the peer finished sending. In-flight work still
      // completes and flushes before the server reaps the connection.
      close_read();
      return ReadResult::kEof;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kOk;
    if (errno == EINTR) continue;
    close_read();
    return ReadResult::kError;
  }
}

void Connection::queue_response(const std::string& response) {
  // Compact the flushed prefix before growing, so a long-lived connection
  // does not accrete every response it ever sent.
  if (woff_ > 0 && (woff_ >= wbuf_.size() || woff_ > 65536)) {
    wbuf_.erase(0, woff_);
    woff_ = 0;
  }
  wbuf_.append(response);
  wbuf_.push_back('\n');
}

bool Connection::flush() {
  while (woff_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      touch();
      c_bytes_out.add(static_cast<std::uint64_t>(n));
      if (totals_ != nullptr) {
        totals_->out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
      }
      woff_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer reset; nothing more to deliver
  }
  wbuf_.clear();
  woff_ = 0;
  return true;
}

}  // namespace cipnet::net
