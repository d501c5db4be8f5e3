// `serve_mix`: `cipnet serve --listen 127.0.0.1:0` driven open loop by one
// single-threaded client over a few TCP connections. The seeded schedule
// runs at one fixed rate; every request is timed from when it was due.
//
// The mix, per block of 20 arrivals (order shuffled by the seed):
//   10 repeats   synth/reach/cover/hide on the paper nets, warmed at set-up,
//                so they are cache hits;
//    6 fresh     seeded family instances with distinct canonical hashes,
//                so they are misses (reach x2, cover, hide, synth x2);
//    2 repeats of two of the fresh requests, sent right behind them, so a
//                duplicate can arrive while its original is still in flight;
//    2 introspection calls (health, metrics).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "circuit/circuit.h"
#include "common.h"
#include "families.h"
#include "io/files.h"
#include "io/net_format.h"
#include "models/translator.h"
#include "util/json_writer.h"

namespace cipbench {

namespace {

// Fixed load shape: 2 workers and 4 connections (fewer on a machine with
// fewer than 4 CPUs: workers <= nproc-1, connections <= nproc). The rate is
// about a third of the throughput the server saturates at on this mix (see
// README.md, "serve_mix capacity").
constexpr std::size_t kMaxWorkers = 2;
constexpr std::size_t kMaxConnections = 4;
constexpr double kRatePerSecond = 500;
constexpr double kLatencyLimitMs = 100;
constexpr int kSetups = 5;
// Unmeasured traffic before and after the measured window, so that the
// window sees a server in steady state at both ends (no cold start, and no
// final responses left waiting for a delayed ACK with nothing behind them).
constexpr double kLeadMs = 500;
constexpr std::size_t kBlock = 20;

enum class Check {
  kSynthPaper,
  kSynthCelement,
  kReachPaper,
  kCoverPaper,
  kHideChains,
  kReachChains,
  kReachRing,
  kCoverChains,
  kIntrospect,
};

/// One distinct request body (everything but the id) and its known answer.
struct Payload {
  std::string op;
  std::string body;  // `"op":...` members, no braces
  Check check;
  KnownAnswers::Vars vars;  // family parameters, or the paper key
  std::string paper_key;    // e.g. "sender_translator"
};

struct Scheduled {
  std::size_t payload;
  double due_ms;
};

struct Sample {
  double due_ms = 0;
  double sent_ms = -1;
  double recv_ms = -1;
  bool answered = false;
  bool ok = false;
  bool rejected = false;
  bool correct = false;
  bool cached = false;
  bool dup_in_flight = false;  // an earlier request for its key was open
  double queue_us = 0, lookup_us = 0, exec_us = 0, serialize_us = 0;
};

// ---------------------------------------------------------------------------
// The server process.

class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& log_path,
                std::size_t workers) {
    std::remove(log_path.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      const std::string n = std::to_string(workers);
      ::execl(binary.c_str(), binary.c_str(), "serve", "--listen",
              "127.0.0.1:0", "--workers", n.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    // The server prints "listening on HOST:PORT" once it accepts.
    const auto start = Clock::now();
    while (ms_since(start) < 20000) {
      const std::string log = read_log(log_path);
      const std::size_t at = log.find("listening on ");
      const std::size_t eol = at == std::string::npos ? at : log.find('\n', at);
      if (eol != std::string::npos) {
        const std::string addr = log.substr(at + 13, eol - at - 13);
        port_ = std::stoi(addr.substr(addr.rfind(':') + 1));
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("server exited during start-up: " + log);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop();
    throw std::runtime_error("server did not report its port");
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM (the server drains), then SIGKILL after 10 s; always reaped.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(start) > 10000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  static std::string read_log(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// The client: a few non-blocking sockets served by one poll loop.

class Client {
 public:
  using OnLine = std::function<void(std::string_view)>;

  Client(int port, std::size_t connections) {
    for (std::size_t i = 0; i < connections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect failed");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(Conn{fd, {}, 0, {}});
    }
  }
  ~Client() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] std::size_t size() const { return conns_.size(); }

  void send(std::size_t conn, const std::string& frame) {
    Conn& c = conns_[conn];
    c.out += frame;
    flush(c);
  }

  /// Waits up to `timeout_ms` for traffic and hands every complete
  /// response line to `on_line`.
  void poll_once(double timeout_ms, const OnLine& on_line) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    timespec ts{};
    if (timeout_ms > 0) {
      const auto ns = static_cast<long long>(timeout_ms * 1e6);
      ts.tv_sec = ns / 1000000000LL;
      ts.tv_nsec = ns % 1000000000LL;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        for (;;) {
          const ssize_t n = ::read(c.fd, buf, sizeof buf);
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) throw std::runtime_error("server closed a connection");
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw std::runtime_error(std::string("read: ") +
                                   std::strerror(errno));
        }
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          on_line(std::string_view(c.in).substr(start, nl - start));
        }
        c.in.erase(0, start);
      }
    }
  }

 private:
  struct Conn {
    int fd;
    std::string out;
    std::size_t out_off;
    std::string in;
  };

  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::write(c.fd, c.out.data() + c.out_off,
                                c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        throw std::runtime_error(std::string("write: ") + std::strerror(errno));
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  std::vector<Conn> conns_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::vector<Payload> payloads;
  std::vector<std::size_t> repeats;  // payload indices of the repeat menu
  std::vector<std::size_t> warm_up;  // sent at set-up: repeats + fresh kinds
  std::vector<Scheduled> schedule;   // due times include the lead-in
};

Payload net_payload(const std::string& op, const cipnet::PetriNet& net,
                    const std::string& name, Check check,
                    const std::string& extra = "") {
  Payload p;
  p.op = op;
  p.check = check;
  p.body = "\"op\":\"" + op + "\",\"net\":\"" +
           cipnet::json::escape(cipnet::write_net(net, name)) + "\"" + extra;
  return p;
}

Payload synth_payload(const std::string& g_text, Check check) {
  Payload p;
  p.op = "synth";
  p.check = check;
  p.body = "\"op\":\"synth\",\"stg\":\"" + cipnet::json::escape(g_text) + "\"";
  return p;
}

Payload hide_chains_payload(std::size_t k1, std::size_t k2, std::size_t h1,
                            std::size_t h2, const std::string& prefix) {
  // Hide interior steps 1..h of each chain: never the first step (it holds
  // the token) nor the last (nothing consumes its output place).
  std::string labels;
  const std::size_t hs[2] = {h1, h2};
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t s = 1; s <= hs[c]; ++s) {
      labels += labels.empty() ? "\"" : ",\"";
      labels += chain_label(prefix, c, s) + "\"";
    }
  }
  Payload p = net_payload("hide", one_shot_chains({k1, k2}, prefix),
                          prefix + "net", Check::kHideChains,
                          ",\"labels\":[" + labels + "]");
  p.vars = {{"k1", static_cast<std::int64_t>(k1)},
            {"k2", static_cast<std::int64_t>(k2)},
            {"h1", static_cast<std::int64_t>(h1)},
            {"h2", static_cast<std::int64_t>(h2)}};
  return p;
}

Inputs build_inputs(const Args& args, const KnownAnswers& known,
                    double seconds) {
  Inputs in;
  Rng rng(args.seed);
  auto add = [&](Payload p) {
    in.payloads.push_back(std::move(p));
    return in.payloads.size() - 1;
  };

  // Repeats: the paper's nets.
  for (const auto& v : known.at("paper.stg_files.files").items()) {
    const std::string g =
        cipnet::read_text_file(args.root + "/data/" + v.as_string());
    in.repeats.push_back(add(synth_payload(g, Check::kSynthPaper)));
  }
  {
    Payload p = synth_payload(celement_g(5, ""), Check::kSynthCelement);
    p.vars = {{"n", 5}};
    p.paper_key = "c";
    in.repeats.push_back(add(std::move(p)));
  }
  const cipnet::ComposeResult st =
      cipnet::compose(cipnet::models::sender(), cipnet::models::translator());
  const cipnet::ComposeResult full =
      cipnet::compose(st.circuit, cipnet::models::receiver());
  for (const auto& [key, circuit] :
       {std::pair<std::string, const cipnet::Circuit*>{"sender_translator",
                                                       &st.circuit},
        {"full_stack", &full.circuit}}) {
    Payload r = net_payload("reach", circuit->net(), key, Check::kReachPaper);
    r.paper_key = key;
    in.repeats.push_back(add(std::move(r)));
    Payload c = net_payload("cover", circuit->net(), key, Check::kCoverPaper);
    c.paper_key = key;
    in.repeats.push_back(add(std::move(c)));
  }
  in.repeats.push_back(add(hide_chains_payload(8, 8, 3, 3, "h")));

  const std::size_t health =
      add(Payload{"health", "\"op\":\"health\"", Check::kIntrospect, {}, ""});
  const std::size_t metrics = add(
      Payload{"metrics", "\"op\":\"metrics\"", Check::kIntrospect, {}, ""});

  // Fresh instances; the per-instance name prefix makes every canonical
  // hash distinct even when two draws share their sizes.
  std::size_t fresh_id = 0;
  bool warming = false;  // warm-up instances take the smallest sizes
  auto draw = [&](std::size_t lo, std::size_t hi) {
    return warming ? lo : uniform(rng, lo, hi);
  };
  auto fresh = [&](Check check) {
    const std::string prefix = "f" + std::to_string(++fresh_id) + "_";
    Payload p;
    switch (check) {
      case Check::kReachChains:
      case Check::kCoverChains: {
        const std::size_t lo = check == Check::kReachChains ? 8 : 5;
        const std::size_t hi = check == Check::kReachChains ? 13 : 9;
        const std::size_t k1 = draw(lo, hi), k2 = draw(lo, hi),
                          k3 = draw(lo, hi);
        p = net_payload(check == Check::kReachChains ? "reach" : "cover",
                        one_shot_chains({k1, k2, k3}, prefix), prefix + "net",
                        check);
        p.vars = {{"k1", static_cast<std::int64_t>(k1)},
                  {"k2", static_cast<std::int64_t>(k2)},
                  {"k3", static_cast<std::int64_t>(k3)}};
        break;
      }
      case Check::kReachRing: {
        const std::size_t k = draw(60, 100);
        cipnet::PetriNet ring = two_token_ring(k);
        p = net_payload("reach", ring, prefix + "ring" + std::to_string(k),
                        check);
        p.vars = {{"k", static_cast<std::int64_t>(k)}};
        break;
      }
      case Check::kHideChains: {
        const std::size_t k1 = draw(6, 12), k2 = draw(6, 12);
        p = hide_chains_payload(k1, k2, draw(1, k1 - 2), draw(1, k2 - 2),
                                prefix);
        break;
      }
      case Check::kSynthCelement: {
        const std::size_t n = draw(4, 7);
        p = synth_payload(celement_g(n, prefix), check);
        p.vars = {{"n", static_cast<std::int64_t>(n)}};
        p.paper_key = prefix + "c";
        break;
      }
      default:
        break;
    }
    return add(std::move(p));
  };

  // Warm-up: every repeat (so they hit from then on), one instance of each
  // fresh kind (so no code path is cold), and the introspection calls.
  in.warm_up = in.repeats;
  warming = true;
  for (Check c : {Check::kReachChains, Check::kReachRing, Check::kCoverChains,
                  Check::kHideChains, Check::kSynthCelement}) {
    in.warm_up.push_back(fresh(c));
  }
  warming = false;
  in.warm_up.push_back(health);
  in.warm_up.push_back(metrics);

  // The schedule: blocks of kBlock arrivals at kRatePerSecond, each
  // interarrival gap jittered uniformly within +-50% of its mean.
  const double gap_ms = 1000.0 / kRatePerSecond;
  const double end_ms = seconds * 1000.0 + 2 * kLeadMs;
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  double t = 0;
  while (t < end_ms) {
    std::vector<std::size_t> block;
    for (int i = 0; i < 10; ++i) {
      block.push_back(in.repeats[uniform(rng, 0, in.repeats.size() - 1)]);
    }
    const std::vector<std::size_t> fresh_ids = {
        fresh(Check::kReachChains), fresh(Check::kReachRing),
        fresh(Check::kCoverChains), fresh(Check::kHideChains),
        fresh(Check::kSynthCelement), fresh(Check::kSynthCelement)};
    block.insert(block.end(), fresh_ids.begin(), fresh_ids.end());
    block.push_back(health);
    block.push_back(metrics);
    shuffle(block, rng);
    // Two of the fresh requests are sent twice, back to back.
    const std::size_t dup_a = fresh_ids[uniform(rng, 0, 2)];
    const std::size_t dup_b = fresh_ids[uniform(rng, 3, 5)];
    for (std::size_t p : block) {
      in.schedule.push_back(Scheduled{p, t});
      t += gap_ms * jitter(rng);
      if (p == dup_a || p == dup_b) {
        in.schedule.push_back(Scheduled{p, t});
        t += gap_ms * jitter(rng);
      }
    }
  }
  while (!in.schedule.empty() && in.schedule.back().due_ms >= end_ms) {
    in.schedule.pop_back();
  }
  return in;
}

// ---------------------------------------------------------------------------
// Verdicts on responses.

bool check_response(const Payload& p, const cipnet::json::Value& result,
                    const KnownAnswers& known, Verdicts& v) {
  auto num = [&](const char* key) {
    return static_cast<std::int64_t>(result.get_number(key, -1));
  };
  auto flag = [&](const char* key) {
    const cipnet::json::Value* f = result.find(key);
    return f != nullptr && f->type() == cipnet::json::Value::Type::kBool &&
           f->as_bool();
  };
  // The `bounds` array: its length, and whether every bound is finite and
  // within [lo, hi].
  auto bounds_within = [&](double lo, double hi, std::int64_t& count) {
    const cipnet::json::Value* bounds = result.find("bounds");
    if (bounds == nullptr || !bounds->is_array()) return false;
    count = static_cast<std::int64_t>(bounds->items().size());
    for (const auto& b : bounds->items()) {
      const cipnet::json::Value* bound = b.find("bound");
      if (bound == nullptr || bound->is_null() || bound->as_number() < lo ||
          bound->as_number() > hi) {
        return false;
      }
    }
    return true;
  };
  const std::string what =
      p.op + (p.paper_key.empty() ? "" : " " + p.paper_key);
  auto family = [&](const char* name) {
    return Expect(v, known, std::string("families.") + name + ".", what,
                  p.vars);
  };
  switch (p.check) {
    case Check::kSynthPaper: {
      const bool csc = known.flag("paper.stg_files.csc_violation");
      bool ok = v.check(flag("initial_encoding"), what + " initial encoding");
      ok &= v.check((num("csc_conflicts") > 0) == csc, what + " CSC verdict");
      ok &= v.check(flag("synthesizable") == !csc, what + " synthesizable");
      return ok;
    }
    case Check::kSynthCelement: {
      const Expect expect = family("celement");
      bool ok = v.check(flag("synthesizable"), what + " synthesizable");
      ok &= expect.eq(num("states"), "states");
      ok &= expect.eq(num("csc_conflicts"), "csc_conflicts");
      ok &= expect.eq(num("literals"), "literals");
      const cipnet::json::Value* fs = result.find("functions");
      ok &= v.check(fs != nullptr && fs->is_array() &&
                        fs->items().size() == 1 &&
                        fs->items()[0].get_string("signal") == p.paper_key,
                    what + " one function, for " + p.paper_key);
      return ok;
    }
    case Check::kReachPaper: {
      const Expect expect(v, known, "paper.e5." + p.paper_key + ".", what);
      bool ok = expect.eq(num("states"), "states");
      ok &= expect.is(flag("safe"), "safe");
      return ok;
    }
    case Check::kCoverPaper: {
      // A safe net is bounded, with every place bound at most 1.
      const Expect expect(v, known, "paper.e5." + p.paper_key + ".", what);
      std::int64_t places = 0;
      bool ok = expect.is(flag("bounded"), "safe");
      ok &= expect.is(bounds_within(0, 1, places) && places > 0, "safe");
      return ok;
    }
    case Check::kHideChains: {
      const Expect expect = family("chain_hide");
      bool ok = expect.eq(num("places"), "places");
      ok &= expect.eq(num("transitions"), "transitions");
      return ok;
    }
    case Check::kReachChains: {
      const Expect expect = family("three_chains");
      bool ok = expect.eq(num("states"), "states");
      ok &= expect.eq(num("edges"), "edges");
      ok &= expect.eq(num("deadlock_states"), "deadlock_states");
      ok &= expect.eq(num("max_tokens"), "max_tokens");
      ok &= expect.is(flag("safe"), "safe");
      ok &= expect.is(flag("live"), "live");
      return ok;
    }
    case Check::kReachRing: {
      const Expect expect = family("two_token_ring");
      bool ok = expect.eq(num("states"), "states");
      ok &= expect.eq(num("edges"), "edges");
      ok &= expect.eq(num("deadlock_states"), "deadlock_states");
      ok &= expect.eq(num("max_tokens"), "max_tokens");
      ok &= expect.is(flag("safe"), "safe");
      ok &= expect.is(flag("live"), "live");
      return ok;
    }
    case Check::kCoverChains: {
      // Every place of a one-shot chain holds its token at some point, so
      // each bound is exactly max_tokens (1).
      const Expect expect = family("three_chains");
      const double max_tokens = static_cast<double>(
          known.value("families.three_chains.max_tokens", p.vars));
      std::int64_t places = 0;
      bool ok = v.check(flag("bounded"), what + " bounded");
      ok &= v.check(bounds_within(max_tokens, max_tokens, places),
                    what + " bounds");
      ok &= expect.eq(places, "places");
      return ok;
    }
    case Check::kIntrospect:
      return v.check(result.is_object(), what + " result object");
  }
  return false;
}

/// Sends `indices` (payload ids) with fresh request ids and waits until all
/// are answered; used for the warm-up.
void run_closed_batch(Client& client, const Inputs& in,
                      const std::vector<std::size_t>& indices,
                      const KnownAnswers& known, Verdicts& v,
                      std::uint64_t& next_id) {
  std::map<std::uint64_t, std::size_t> open;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::uint64_t id = ++next_id;
    open[id] = indices[i];
    client.send(i % client.size(), "{\"id\":" + std::to_string(id) + "," +
                                       in.payloads[indices[i]].body + "}\n");
  }
  const auto start = Clock::now();
  while (!open.empty()) {
    if (ms_since(start) > 60000) throw std::runtime_error("warm-up timed out");
    client.poll_once(50, [&](std::string_view line) {
      const cipnet::json::Value doc = cipnet::json::parse(line);
      const auto id = static_cast<std::uint64_t>(doc.get_number("id", 0));
      auto it = open.find(id);
      if (it == open.end()) return;
      const Payload& p = in.payloads[it->second];
      const cipnet::json::Value* ok = doc.find("ok");
      const cipnet::json::Value* result = doc.find("result");
      if (v.check(ok != nullptr && ok->as_bool() && result != nullptr,
                  "warm-up " + p.op + " answered ok")) {
        check_response(p, *result, known, v);
      }
      open.erase(it);
    });
  }
}

}  // namespace

Outcome run_serve_mix(const Args& args, const KnownAnswers& known) {
  Verdicts verdicts;
  Outcome out;
  const std::string bin_dir = exe_dir();
  const std::string binary = bin_dir + "/cipnet";
  const std::string log_path = bin_dir + "/../serve_mix.server.log";
  const std::size_t cpus =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::clamp<std::size_t>(cpus - 1, 1, kMaxWorkers);
  const std::size_t connections = std::min(cpus, kMaxConnections);

  // Set-up, kSetups times: build the inputs and schedule, start a server,
  // wait for `listening`, connect, and warm the cache with every repeat.
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Client> client;
  std::uint64_t next_id = 0;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    server.reset();
    const auto start = Clock::now();
    in = build_inputs(args, known, args.seconds);
    server = std::make_unique<ServerProcess>(binary, log_path, workers);
    client = std::make_unique<Client>(server->port(), connections);
    run_closed_batch(*client, in, in.warm_up, known, verdicts, next_id);
    setups.push_back(ms_since(start) / 1000.0);
  }

  // The open loop.
  const std::size_t total = in.schedule.size();
  std::vector<Sample> samples(total);
  std::map<std::uint64_t, std::size_t> by_id;  // request id -> schedule index
  std::map<std::size_t, std::size_t> open_per_payload;
  const std::uint64_t first_id = next_id + 1;
  const double window_end_ms = kLeadMs + args.seconds * 1000.0;
  const double traced_from_ms =
      args.trace ? kLeadMs + args.seconds * 1000.0 / 3 : 1e300;
  auto measured = [&](std::size_t i) {
    return in.schedule[i].due_ms >= kLeadMs &&
           in.schedule[i].due_ms < window_end_ms;
  };
  SpanLog log;
  std::size_t next = 0, answered = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  auto on_line = [&](std::string_view line) {
    const double recv = now_ms();
    const cipnet::json::Value doc = cipnet::json::parse(line);
    const auto id = static_cast<std::uint64_t>(doc.get_number("id", 0));
    auto it = by_id.find(id);
    if (it == by_id.end()) return;
    const std::size_t idx = it->second;
    by_id.erase(it);
    Sample& s = samples[idx];
    const Payload& p = in.payloads[in.schedule[idx].payload];
    --open_per_payload[in.schedule[idx].payload];
    s.answered = true;
    s.recv_ms = recv;
    ++answered;
    const cipnet::json::Value* ok = doc.find("ok");
    s.ok = ok != nullptr && ok->as_bool();
    if (const cipnet::json::Value* cached = doc.find("cached")) {
      s.cached = cached->as_bool();
    }
    if (const cipnet::json::Value* t = doc.find("timings")) {
      s.queue_us = t->get_number("queue_wait_us");
      s.lookup_us = t->get_number("cache_lookup_us");
      s.exec_us = t->get_number("exec_us");
      s.serialize_us = t->get_number("serialize_us");
    }
    if (!s.ok) {
      const cipnet::json::Value* err = doc.find("error");
      s.rejected = err != nullptr && err->get_string("code") == "overloaded";
      if (!s.rejected) {
        verdicts.check(false, p.op + " failed: " +
                                  std::string(line.substr(0, 200)));
      }
      return;
    }
    const cipnet::json::Value* result = doc.find("result");
    s.correct =
        result != nullptr && check_response(p, *result, known, verdicts);
  };

  while (answered < total) {
    const double now = now_ms();
    while (next < total && in.schedule[next].due_ms <= now) {
      const Scheduled& sch = in.schedule[next];
      Sample& s = samples[next];
      s.due_ms = sch.due_ms;
      s.dup_in_flight = open_per_payload[sch.payload] > 0;
      ++open_per_payload[sch.payload];
      const std::uint64_t id = first_id + next;
      by_id[id] = next;
      s.sent_ms = now_ms();
      client->send(next % client->size(),
                   "{\"id\":" + std::to_string(id) + "," +
                       in.payloads[sch.payload].body + "}\n");
      ++next;
    }
    if (now > window_end_ms + kLeadMs + 60000) break;  // lost answers
    const double wait =
        next < total ? in.schedule[next].due_ms - now_ms() : 5.0;
    client->poll_once(std::max(0.0, std::min(wait, 5.0)), on_line);
  }
  // The measured window runs from the first due time in it to the last
  // answer to a request due in it.
  double first_due_ms = 1e300, last_recv_ms = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (!measured(i)) continue;
    first_due_ms = std::min(first_due_ms, in.schedule[i].due_ms);
    last_recv_ms = std::max(last_recv_ms, samples[i].recv_ms);
  }
  const double window_s =
      std::max(1e-3, (last_recv_ms - first_due_ms) / 1000.0);
  out.report.add("peak_rss_mb", peak_rss_mb(std::to_string(server->pid())),
                 "MiB", "VmHWM of the server");
  client.reset();
  server->stop();

  // Fold the samples.
  std::vector<double> lat, lat_plain, lat_traced, hit, miss, late;
  std::vector<double> queue, lookup, serialize, transport;
  std::map<std::string, std::vector<double>> exec;
  std::size_t good = 0, rejected = 0, failed = 0, analysis = 0, hits = 0,
              dup_misses = 0;
  std::size_t attempted = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (!measured(i)) continue;
    ++attempted;
    const Sample& s = samples[i];
    const Payload& p = in.payloads[in.schedule[i].payload];
    if (s.sent_ms >= 0) late.push_back(s.sent_ms - s.due_ms);
    if (!s.answered) {
      ++failed;
      continue;
    }
    if (s.rejected) {
      ++rejected;
      continue;
    }
    if (!s.ok || !s.correct) {
      ++failed;
      continue;
    }
    const double l = s.recv_ms - s.due_ms;
    lat.push_back(l);
    (s.due_ms < traced_from_ms ? lat_plain : lat_traced).push_back(l);
    if (l <= kLatencyLimitMs) ++good;
    const bool traced = s.due_ms >= traced_from_ms;
    if (p.check != Check::kIntrospect) {
      ++analysis;
      (s.cached ? hit : miss).push_back(l);
      hits += s.cached ? 1 : 0;
      if (!s.cached && s.dup_in_flight) ++dup_misses;
      if (traced) {
        queue.push_back(s.queue_us);
        lookup.push_back(s.lookup_us);
        serialize.push_back(s.serialize_us);
        if (!s.cached) exec[p.op].push_back(s.exec_us);
      }
    }
    const double phases_us =
        s.queue_us + s.lookup_us + s.exec_us + s.serialize_us;
    const double transport_us = (s.recv_ms - s.sent_ms) * 1000.0 - phases_us;
    if (traced) {
      transport.push_back(transport_us);
      // The request span and its children, rebuilt from `timings`.
      log.set_job(first_id + i);
      const auto start_ns = static_cast<std::uint64_t>(s.sent_ms * 1e6);
      const auto req = static_cast<std::int64_t>(log.add_closed(
          "svc." + p.op, start_ns,
          static_cast<std::uint64_t>((s.recv_ms - s.sent_ms) * 1e6), -1));
      std::uint64_t at = start_ns;
      auto child = [&](const std::string& name, double us) {
        const auto ns = static_cast<std::uint64_t>(std::max(0.0, us) * 1e3);
        log.add_closed(name, at, ns, req);
        at += ns;
      };
      child("svc.queue_wait", s.queue_us);
      child("svc.cache_lookup", s.lookup_us);
      child("svc.exec." + p.op, s.exec_us);
      child("svc.serialize", s.serialize_us);
      child("net.transport", transport_us);
    }
  }
  double busy_us = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (measured(i)) busy_us += samples[i].exec_us;
  }
  out.attempted = attempted;
  out.failed = failed + rejected;
  out.correct = verdicts.wrong() == 0;

  Report& r = out.report;
  r.add("setup_s", median(setups), "s",
        "median of " + std::to_string(kSetups) + " set-ups");
  r.add("jobs_per_s", static_cast<double>(lat.size()) / window_s, "1/s",
        "answered ok, n=" + std::to_string(lat.size()));
  char note[64];
  std::snprintf(note, sizeof note, "limit %.0f ms, rate %.0f/s",
                kLatencyLimitMs, kRatePerSecond);
  r.add("goodput_rps", static_cast<double>(good) / window_s, "1/s", note);
  r.add("job_p50_ms", median(lat), "ms", "n=" + std::to_string(lat.size()));
  r.add_tail("job_p99_ms", tail(lat), "ms");
  r.add_tail("hit_p99_ms", tail(hit), "ms");
  r.add_tail("miss_p99_ms", tail(miss), "ms");
  r.add("error_ratio", static_cast<double>(out.failed) / attempted, "ratio",
        std::to_string(out.failed) + " of " + std::to_string(attempted));
  r.add("rejected_ratio", static_cast<double>(rejected) / attempted, "ratio",
        std::to_string(rejected) + " overloaded");
  r.add("loadgen.sent", static_cast<double>(attempted), "count",
        "in the window; " + std::to_string(connections) + " connections, " +
            std::to_string(workers) + " workers");
  r.add_tail("loadgen.late.p99_ms", tail(late), "ms");
  r.add("svc.worker_busy",
        busy_us / 1e6 / window_s / static_cast<double>(workers), "ratio",
        "summed exec time over workers x window");
  if (args.trace) {
    auto p50 = [](const std::vector<double>& v) { return median(v); };
    r.add("svc.queue_wait.p50_us", p50(queue), "us");
    r.add_tail("svc.queue_wait.p99_us", tail(queue), "us");
    r.add("svc.cache_lookup.p50_us", p50(lookup), "us");
    for (const char* op : {"reach", "cover", "hide", "synth"}) {
      r.add(std::string("svc.exec.") + op + ".p50_us", p50(exec[op]), "us",
            "misses, n=" + std::to_string(exec[op].size()));
    }
    r.add("svc.serialize.p50_us", p50(serialize), "us");
    r.add("svc.cache_hit_ratio",
          analysis == 0 ? 0.0 : static_cast<double>(hits) / analysis, "ratio",
          std::to_string(hits) + " of " + std::to_string(analysis));
    r.add("svc.inflight_dup_misses", static_cast<double>(dup_misses), "count",
          "misses sent while the same request was open");
    r.add("net.transport.p50_us", p50(transport), "us",
          "round trip minus timings");
    r.add_tail("net.transport.p99_us", tail(transport), "us");
    r.add("trace.overhead_ms", median(lat_traced) - median(lat_plain), "ms",
          "traced minus untraced request p50");
    log.print_breakdown(transport.size());
    log.write_jsonl(spans_path(args));
    std::printf("spans: %s\n", spans_path(args).c_str());
  }
  std::printf(
      "serve_mix: %zu requests scheduled, %zu verdicts checked, %zu wrong\n",
      total, verdicts.checked(), verdicts.wrong());
  return out;
}

}  // namespace cipbench
