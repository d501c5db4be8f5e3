#pragma once

// Throttled progress heartbeats for long explorations. A `ProgressReporter`
// sits inside a search loop (`reach::explore`, `coverability`, hide
// contraction) and calls `update(items, frontier)` per step; at most once
// per `ProgressBus` interval it publishes a `ProgressEvent` (items, frontier
// size, rate, elapsed, peak RSS) to every registered listener. On
// destruction — including exception unwind, so aborted runs still report —
// it publishes one final event.
//
// Listener registration is independent of the metrics enable flag: the CLI
// `--progress` flag installs a stderr renderer, `--trace-out <file.jsonl>`
// mirrors events into the trace file. With no listeners, `update` is a
// single relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cipnet::obs {

/// One heartbeat. `items` is whatever the phase counts (states, tree nodes,
/// contractions); `final_event` marks the close-out published when the
/// reporter leaves scope (also on exception unwind).
struct ProgressEvent {
  std::string phase;
  /// Owning service job (obs/trace_context.h), 0 outside any request.
  std::uint64_t job_id = 0;
  std::uint64_t items = 0;
  std::uint64_t frontier = 0;
  double items_per_sec = 0.0;
  std::uint64_t elapsed_ms = 0;
  std::uint64_t peak_rss_bytes = 0;
  /// Item budget of the phase (`--max-states` for explorations), 0 when
  /// unbounded. When set, `eta_ms` extrapolates time-to-target from the
  /// current rate.
  std::uint64_t target = 0;
  std::uint64_t eta_ms = 0;
  bool final_event = false;
};

/// Process-wide listener registry and heartbeat interval. Thread-safe;
/// `active()` is a relaxed atomic read so idle call sites stay free.
class ProgressBus {
 public:
  using Listener = std::function<void(const ProgressEvent&)>;

  static ProgressBus& instance();

  /// Returns an id for `remove_listener`.
  int add_listener(Listener listener);
  void remove_listener(int id);

  /// Minimum milliseconds between heartbeats per reporter (default 500).
  /// 0 publishes on every update.
  void set_interval_ms(std::uint64_t ms) {
    interval_ms_.store(ms, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Dispatch to every listener (copied out of the lock).
  void publish(const ProgressEvent& event);

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<int, Listener>> listeners_;
  int next_id_ = 1;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> interval_ms_{500};
};

/// RAII heartbeat source for one phase. Construct around the loop, call
/// `update` per step; throttling and the final close-out are handled here.
///
/// Thread-safe: concurrent workers may call `update` on one reporter. The
/// state words are relaxed atomics and the interval gate is a CAS on the
/// last-emit time, so exactly one racing worker publishes per interval;
/// construction, destruction, and `set_target` must still be
/// single-threaded (before/after the workers).
class ProgressReporter {
 public:
  explicit ProgressReporter(std::string_view phase);
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Item budget for ETA extrapolation (0 = unbounded, no ETA).
  void set_target(std::uint64_t target) {
    target_.store(target, std::memory_order_relaxed);
  }

  void update(std::uint64_t items, std::uint64_t frontier = 0) {
    if (!ProgressBus::instance().active()) return;
    update_throttled(items, frontier);
  }

 private:
  void update_throttled(std::uint64_t items, std::uint64_t frontier);
  void publish(bool final_event);

  std::string phase_;
  std::uint64_t start_ns_ = 0;
  std::atomic<std::uint64_t> last_emit_ns_{0};
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> frontier_{0};
  std::atomic<std::uint64_t> target_{0};
  std::atomic<bool> any_update_{false};
};

}  // namespace cipnet::obs
