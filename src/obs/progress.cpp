#include "obs/progress.h"

#include <algorithm>
#include <chrono>

#include "obs/memory.h"
#include "obs/trace_context.h"

namespace cipnet::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ProgressBus& ProgressBus::instance() {
  static ProgressBus bus;
  return bus;
}

int ProgressBus::add_listener(Listener listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = next_id_++;
  listeners_.emplace_back(id, std::move(listener));
  active_.store(true, std::memory_order_relaxed);
  return id;
}

void ProgressBus::remove_listener(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      listeners_.end());
  active_.store(!listeners_.empty(), std::memory_order_relaxed);
}

void ProgressBus::publish(const ProgressEvent& event) {
  std::vector<std::pair<int, Listener>> listeners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listeners = listeners_;
  }
  for (const auto& [id, listener] : listeners) listener(event);
}

ProgressReporter::ProgressReporter(std::string_view phase)
    : phase_(phase), start_ns_(steady_now_ns()), last_emit_ns_(start_ns_) {}

ProgressReporter::~ProgressReporter() {
  if (any_update_.load(std::memory_order_relaxed) &&
      ProgressBus::instance().active()) {
    publish(true);
  }
}

void ProgressReporter::update_throttled(std::uint64_t items,
                                        std::uint64_t frontier) {
  items_.store(items, std::memory_order_relaxed);
  frontier_.store(frontier, std::memory_order_relaxed);
  any_update_.store(true, std::memory_order_relaxed);
  const std::uint64_t interval_ns =
      ProgressBus::instance().interval_ms() * 1'000'000;
  // CAS gate: among racing workers, exactly one advances the emit clock
  // and publishes this interval's heartbeat; the rest return. A racing
  // worker may already have moved the clock past our `now`; the unsigned
  // `now - last` would then wrap, pass the gate and move the clock
  // backwards, so such a stale sample is rejected.
  std::uint64_t last = last_emit_ns_.load(std::memory_order_relaxed);
  const std::uint64_t now = steady_now_ns();
  if (now < last || now - last < interval_ns) return;
  if (!last_emit_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;
  }
  publish(false);
}

void ProgressReporter::publish(bool final_event) {
  const std::uint64_t now = steady_now_ns();
  const std::uint64_t elapsed_ns = now > start_ns_ ? now - start_ns_ : 0;
  ProgressEvent event;
  event.phase = phase_;
  event.job_id = current_job_id();
  event.items = items_.load(std::memory_order_relaxed);
  event.frontier = frontier_.load(std::memory_order_relaxed);
  event.elapsed_ms = elapsed_ns / 1'000'000;
  event.items_per_sec =
      elapsed_ns == 0 ? 0.0
                      : static_cast<double>(event.items) * 1e9 /
                            static_cast<double>(elapsed_ns);
  event.peak_rss_bytes = peak_rss_bytes();
  event.target = target_.load(std::memory_order_relaxed);
  if (event.target > event.items && event.items_per_sec > 0.0) {
    event.eta_ms = static_cast<std::uint64_t>(
        static_cast<double>(event.target - event.items) * 1000.0 /
        event.items_per_sec);
  }
  event.final_event = final_event;
  ProgressBus::instance().publish(event);
}

}  // namespace cipnet::obs
