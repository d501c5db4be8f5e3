#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/histogram.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/sink_chrome.h"
#include "obs/sink_jsonl.h"
#include "obs/sink_text.h"
#include "obs/trace.h"
#include "reach/reachability.h"
#include "util/error.h"
#include "util/json.h"

namespace cipnet {
namespace {

PetriNet two_independent_cycles() {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0});
  PlaceId q0 = net.add_place("q0", 1);
  PlaceId q1 = net.add_place("q1", 0);
  net.add_transition({q0}, "c", {q1});
  net.add_transition({q1}, "d", {q0});
  return net;
}

/// Records every completed root span for inspection.
class RecordingSink : public obs::Sink {
 public:
  void on_span(const obs::SpanRecord& root) override {
    roots.push_back(root);
  }
  std::vector<obs::SpanRecord> roots;
};

TEST(Metrics, CounterAddsWhenEnabled) {
  obs::ScopedEnable enable;
  obs::Counter c("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.counter"),
            42u);
}

TEST(Metrics, CounterIgnoredWhenDisabled) {
  {
    obs::ScopedEnable enable;  // reset, then enable...
  }                            // ...and restore (disabled again)
  obs::Counter c("test.counter");
  c.add(7);
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.counter"), 0u);
}

TEST(Metrics, GaugeTracksPeak) {
  obs::ScopedEnable enable;
  obs::Gauge g("test.gauge");
  g.set_max(5);
  g.set_max(3);  // lower: ignored
  g.set_max(9);
  EXPECT_EQ(obs::Registry::instance().snapshot().gauge("test.gauge"), 9u);
  g.set(2);  // plain set overwrites
  EXPECT_EQ(obs::Registry::instance().snapshot().gauge("test.gauge"), 2u);
}

TEST(Metrics, ResetZeroesButKeepsRegistration) {
  obs::ScopedEnable enable;
  obs::Counter c("test.counter");
  c.add(3);
  obs::Registry::instance().reset();
  auto snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter("test.counter"), 0u);
  bool found = false;
  for (const auto& [name, value] : snapshot.counters) {
    found = found || name == "test.counter";
  }
  EXPECT_TRUE(found);
}

TEST(Metrics, ScopedEnableRestoresPreviousState) {
  EXPECT_FALSE(obs::enabled());
  {
    obs::ScopedEnable outer;
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedEnable inner(/*reset=*/false);
      EXPECT_TRUE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

TEST(Metrics, ConcurrentIncrementsDontLose) {
  obs::ScopedEnable enable;
  obs::Counter c("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ExploreFillsReachCounters) {
  obs::ScopedEnable enable;
  auto rg = explore(two_independent_cycles());
  auto snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter("reach.states"), rg.state_count());
  EXPECT_EQ(snapshot.counter("reach.edges"), rg.edge_count());
  EXPECT_GE(snapshot.gauge("reach.frontier_peak"), 1u);
}

TEST(Metrics, DisabledExploreLeavesSnapshotUnchanged) {
  obs::Registry::instance().reset();
  ASSERT_FALSE(obs::enabled());
  auto before = obs::Registry::instance().snapshot();
  (void)explore(two_independent_cycles());
  auto after = obs::Registry::instance().snapshot();
  EXPECT_EQ(before.counters, after.counters);
  EXPECT_EQ(before.gauges, after.gauges);
}

TEST(Trace, SpansNestIntoATree) {
  obs::ScopedEnable enable;
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("outer");
    { obs::Span a("first"); }
    {
      obs::Span b("second");
      { obs::Span c("second.child"); }
    }
  }
  obs::Tracer::instance().remove_sink(sink);

  ASSERT_EQ(sink->roots.size(), 1u);
  const obs::SpanRecord& root = sink->roots[0];
  EXPECT_EQ(root.name, "outer");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "first");
  EXPECT_EQ(root.children[1].name, "second");
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "second.child");
  // Ordering and containment of the clocks.
  EXPECT_LE(root.start_ns, root.children[0].start_ns);
  EXPECT_LE(root.children[0].start_ns, root.children[1].start_ns);
  EXPECT_LE(root.children[1].duration_ns, root.duration_ns);
}

TEST(Trace, SpanCapturesCounterDeltas) {
  obs::ScopedEnable enable;
  obs::Counter c("test.delta");
  c.add(100);  // before the span: must not show up as a delta
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span span("delta.test");
    c.add(5);
  }
  obs::Tracer::instance().remove_sink(sink);

  ASSERT_EQ(sink->roots.size(), 1u);
  std::uint64_t delta = 0;
  for (const auto& [name, value] : sink->roots[0].counter_deltas) {
    if (name == "test.delta") delta = value;
  }
  EXPECT_EQ(delta, 5u);
}

TEST(Trace, DisabledSpanEmitsNothing) {
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  ASSERT_FALSE(obs::enabled());
  { obs::Span span("invisible"); }
  obs::Tracer::instance().remove_sink(sink);
  EXPECT_TRUE(sink->roots.empty());
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage. Good enough to catch malformed sink output.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char ch : line) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    if (depth == 0 && ch != line.back()) return false;
  }
  return depth == 0 && !in_string && line.back() == '}';
}

TEST(Sinks, JsonlIsParseableLineByLine) {
  obs::ScopedEnable enable;
  std::ostringstream out;
  auto sink = std::make_shared<obs::JsonlSink>(out);
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("jsonl.root");
    obs::Counter("test.jsonl").add(3);
    { obs::Span child("jsonl.child"); }
  }
  obs::Tracer::instance().remove_sink(sink);
  sink->write_counters(obs::Registry::instance().snapshot());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t spans = 0, counters = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(looks_like_json_object(line)) << "bad line: " << line;
    if (line.find("\"event\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"event\":\"counters\"") != std::string::npos) ++counters;
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(counters, 1u);
  // Parent path prefixes the child's.
  EXPECT_NE(out.str().find("\"path\":\"jsonl.root\""), std::string::npos);
  EXPECT_NE(out.str().find("\"path\":\"jsonl.root/jsonl.child\""),
            std::string::npos);
}

TEST(Sinks, TextSinkIndentsChildren) {
  obs::ScopedEnable enable;
  std::ostringstream out;
  auto sink = std::make_shared<obs::TextSink>(out);
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("text.root");
    { obs::Span child("text.child"); }
  }
  obs::Tracer::instance().remove_sink(sink);
  const std::string report = out.str();
  EXPECT_NE(report.find("\n  text.root"), std::string::npos);
  EXPECT_NE(report.find("\n    text.child"), std::string::npos);
}

TEST(Sinks, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
}

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::histogram_bucket_index(v), v);
    EXPECT_EQ(obs::histogram_bucket_value(v), v);
  }
}

TEST(Histogram, BucketsAreMonotoneWithBoundedError) {
  std::size_t prev_index = 0;
  for (std::uint64_t v :
       {std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{65535}, std::uint64_t{1} << 20,
        std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t index = obs::histogram_bucket_index(v);
    EXPECT_LT(index, obs::kHistogramBuckets);
    EXPECT_GE(index, prev_index);
    prev_index = index;
    // The midpoint representative stays within one sub-bucket of the value.
    const std::uint64_t rep = obs::histogram_bucket_value(index);
    const std::uint64_t error = rep > v ? rep - v : v - rep;
    EXPECT_LE(error, v / 16 + 1) << "value " << v << " rep " << rep;
  }
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.oracle");
  std::vector<std::uint64_t> values;
  std::uint64_t state = 12345;  // deterministic LCG
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (state >> 33) % 100000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist = snapshot.histogram("test.hist.oracle");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 5000u);
  for (double p : {50.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::uint64_t oracle = values[rank - 1];
    const std::uint64_t got = hist->percentile(p);
    const std::uint64_t error = got > oracle ? got - oracle : oracle - got;
    // Bucket quantization bounds the error to ~1/16 relative.
    EXPECT_LE(error, oracle / 8 + 2) << "p" << p << ": " << got << " vs "
                                     << oracle;
  }
  EXPECT_EQ(hist->percentile(100.0), values.back());
  EXPECT_EQ(hist->max, values.back());
  EXPECT_EQ(hist->percentile(0.0), hist->percentile(1e-9));
}

TEST(Histogram, ConcurrentRecordingKeepsTotals) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) {
        h.record(static_cast<std::uint64_t>(j % 1000) + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist =
      snapshot.histogram("test.hist.concurrent");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Per thread: 10 full passes over 1..1000, summing to 10 * 500500.
  EXPECT_EQ(hist->sum, static_cast<std::uint64_t>(kThreads) * 10 * 500500);
  EXPECT_EQ(hist->max, 1000u);
}

TEST(Histogram, TextReportListsPercentiles) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.report");
  for (std::uint64_t i = 1; i <= 100; ++i) h.record(i);
  const std::string report =
      obs::render_text_report(obs::Registry::instance().snapshot());
  EXPECT_NE(report.find("test.hist.report"), std::string::npos);
  EXPECT_NE(report.find("p50="), std::string::npos);
  EXPECT_NE(report.find("p99="), std::string::npos);
}

TEST(Histogram, SpanDurationsFeedHistograms) {
  obs::ScopedEnable enable;
  { obs::Span span("hist.span"); }
  { obs::Span span("hist.span"); }
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist = snapshot.histogram("span.hist.span");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
}

TEST(Histogram, ExploreRecordsDistributions) {
  obs::ScopedEnable enable;
  (void)explore(two_independent_cycles());
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* frontier =
      snapshot.histogram("reach.frontier_size");
  ASSERT_NE(frontier, nullptr);
  EXPECT_EQ(frontier->count, 4u);  // one sample per popped state
  const obs::HistogramSnapshot* enabled =
      snapshot.histogram("reach.enabled_per_state");
  ASSERT_NE(enabled, nullptr);
  EXPECT_EQ(enabled->count, 4u);
  EXPECT_EQ(enabled->max, 2u);  // two independent cycles
  EXPECT_GT(snapshot.gauge("reach.graph_bytes"), 0u);
  EXPECT_GT(snapshot.gauge("reach.index_bytes"), 0u);
}

TEST(Sinks, ChromeTraceIsLoadableJson) {
  obs::ScopedEnable enable;
  std::ostringstream out;
  auto sink = std::make_shared<obs::ChromeSink>(out);
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("chrome.root");
    obs::Counter("test.chrome").add(2);
    { obs::Span child("chrome.child"); }
  }
  obs::Tracer::instance().remove_sink(sink);
  sink->finish();
  const std::string first = out.str();
  sink->finish();  // idempotent
  EXPECT_EQ(out.str(), first);

  const json::Value doc = json::parse(first);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const json::Value* root = nullptr;
  const json::Value* child = nullptr;
  const json::Value* counter = nullptr;
  for (const json::Value& ev : events->items()) {
    const std::string ph = ev.get_string("ph");
    const std::string name = ev.get_string("name");
    if (ph == "X" && name == "chrome.root") root = &ev;
    if (ph == "X" && name == "chrome.child") child = &ev;
    if (ph == "C" && name == "test.chrome") counter = &ev;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(counter, nullptr);
  // The child's [ts, ts+dur) interval nests inside the root's (timestamps
  // are µs with 3 decimals, so allow one rounding step of slack).
  const double root_ts = root->get_number("ts");
  const double root_end = root_ts + root->get_number("dur");
  const double child_ts = child->get_number("ts");
  const double child_end = child_ts + child->get_number("dur");
  EXPECT_GE(child_ts + 0.002, root_ts);
  EXPECT_LE(child_end, root_end + 0.002);
  // Root and child share a thread track; the counter carries its total.
  EXPECT_EQ(root->get_number("tid"), child->get_number("tid"));
  const json::Value* args = counter->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->get_number("value"), 2.0);
}

/// Collects progress events; registers on construction, removes on
/// destruction so the bus deactivates between tests.
class ProgressProbe {
 public:
  ProgressProbe()
      : id_(obs::ProgressBus::instance().add_listener(
            [this](const obs::ProgressEvent& ev) { events.push_back(ev); })) {}
  ~ProgressProbe() { obs::ProgressBus::instance().remove_listener(id_); }
  std::vector<obs::ProgressEvent> events;

 private:
  int id_;
};

TEST(Progress, InactiveWithoutListeners) {
  EXPECT_FALSE(obs::ProgressBus::instance().active());
  {
    ProgressProbe probe;
    EXPECT_TRUE(obs::ProgressBus::instance().active());
  }
  EXPECT_FALSE(obs::ProgressBus::instance().active());
  // With no listeners, updates publish nothing (and cost one atomic load).
  obs::ProgressReporter reporter("test.inactive");
  reporter.update(1, 1);
}

TEST(Progress, FinalEventOnlyUnderLongInterval) {
  ProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(3'600'000);
  {
    obs::ProgressReporter reporter("test.throttled");
    reporter.update(1, 9);
    reporter.update(5, 2);
  }
  obs::ProgressBus::instance().set_interval_ms(500);
  ASSERT_EQ(probe.events.size(), 1u);
  EXPECT_TRUE(probe.events[0].final_event);
  EXPECT_EQ(probe.events[0].phase, "test.throttled");
  EXPECT_EQ(probe.events[0].items, 5u);
  EXPECT_EQ(probe.events[0].frontier, 2u);
}

TEST(Progress, IntervalZeroPublishesEveryUpdate) {
  ProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(0);
  {
    obs::ProgressReporter reporter("test.every");
    reporter.update(1);
    reporter.update(2);
    reporter.update(3);
  }
  obs::ProgressBus::instance().set_interval_ms(500);
  ASSERT_EQ(probe.events.size(), 4u);  // three heartbeats + final
  EXPECT_FALSE(probe.events[0].final_event);
  EXPECT_TRUE(probe.events[3].final_event);
  EXPECT_EQ(probe.events[3].items, 3u);
}

TEST(Progress, ThrottleBoundsHeartbeatRate) {
  ProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(10);
  const auto start = std::chrono::steady_clock::now();
  {
    obs::ProgressReporter reporter("test.rate");
    for (std::uint64_t i = 0; i < 200000; ++i) reporter.update(i);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::ProgressBus::instance().set_interval_ms(500);
  // At most one heartbeat per 10ms window, plus the final event.
  EXPECT_LE(probe.events.size(),
            static_cast<std::size_t>(elapsed_ms / 10) + 2);
  EXPECT_TRUE(probe.events.back().final_event);
}

TEST(Progress, NoUpdatesMeansNoFinalEvent) {
  ProgressProbe probe;
  { obs::ProgressReporter reporter("test.silent"); }
  EXPECT_TRUE(probe.events.empty());
}

/// Listener that tolerates publishes from concurrent worker threads.
class LockedProgressProbe {
 public:
  LockedProgressProbe()
      : id_(obs::ProgressBus::instance().add_listener(
            [this](const obs::ProgressEvent& ev) {
              std::lock_guard<std::mutex> lock(mutex_);
              events_.push_back(ev);
            })) {}
  ~LockedProgressProbe() { obs::ProgressBus::instance().remove_listener(id_); }

  std::vector<obs::ProgressEvent> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<obs::ProgressEvent> events_;
  int id_;
};

TEST(Progress, ConcurrentWorkersOnOneReporterPublishOncePerInterval) {
  LockedProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(10);
  const auto start = std::chrono::steady_clock::now();
  {
    // Many workers heartbeat one reporter.
    obs::ProgressReporter reporter("test.mt.shared");
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&reporter, w] {
        for (std::uint64_t i = 0; i < 50000; ++i) {
          reporter.update(i * 4 + static_cast<std::uint64_t>(w), i);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::ProgressBus::instance().set_interval_ms(500);
  const auto events = probe.events();
  ASSERT_FALSE(events.empty());
  // The CAS gate admits at most one publisher per 10ms window (+ final).
  EXPECT_LE(events.size(), static_cast<std::size_t>(elapsed_ms / 10) + 2);
  EXPECT_TRUE(events.back().final_event);
  for (const obs::ProgressEvent& ev : events) {
    EXPECT_EQ(ev.phase, "test.mt.shared");
  }
}

TEST(Progress, ConcurrentReportersThrottleIndependently) {
  LockedProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(3'600'000);
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back([r] {
        obs::ProgressReporter reporter("test.mt." + std::to_string(r));
        for (std::uint64_t i = 1; i <= 1000; ++i) reporter.update(i);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  obs::ProgressBus::instance().set_interval_ms(500);
  // Under the huge interval each reporter publishes exactly its final event,
  // unperturbed by its two concurrent siblings.
  const auto events = probe.events();
  ASSERT_EQ(events.size(), 3u);
  std::vector<std::string> phases;
  for (const obs::ProgressEvent& ev : events) {
    EXPECT_TRUE(ev.final_event);
    EXPECT_EQ(ev.items, 1000u);
    phases.push_back(ev.phase);
  }
  std::sort(phases.begin(), phases.end());
  EXPECT_EQ(phases, (std::vector<std::string>{"test.mt.0", "test.mt.1",
                                              "test.mt.2"}));
}

TEST(Progress, TargetReachesTheEvent) {
  ProgressProbe probe;
  obs::ProgressBus::instance().set_interval_ms(0);
  {
    obs::ProgressReporter reporter("test.target");
    reporter.set_target(100);
    reporter.update(50);
  }
  obs::ProgressBus::instance().set_interval_ms(500);
  ASSERT_EQ(probe.events.size(), 2u);
  EXPECT_EQ(probe.events[0].target, 100u);
  EXPECT_TRUE(probe.events[1].final_event);
}

TEST(Progress, LimitErrorStillFlushesSpanAndFinalEvent) {
  obs::ScopedEnable enable;
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  ProgressProbe probe;
  ReachOptions options;
  options.max_states = 2;
  EXPECT_THROW((void)explore(two_independent_cycles(), options), LimitError);
  obs::Tracer::instance().remove_sink(sink);
  // The reach.explore span completed during unwind...
  ASSERT_FALSE(sink->roots.empty());
  EXPECT_TRUE(std::any_of(
      sink->roots.begin(), sink->roots.end(),
      [](const auto& span) { return span.name == "reach.explore"; }));
  // ...as did the reporter's final heartbeat and the byte-estimate gauges.
  ASSERT_FALSE(probe.events.empty());
  EXPECT_TRUE(probe.events.back().final_event);
  EXPECT_EQ(probe.events.back().phase, "reach.explore");
  EXPECT_GT(
      obs::Registry::instance().snapshot().gauge("reach.graph_bytes"), 0u);
}

TEST(Sinks, JsonlWritesProgressEvents) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::ProgressEvent ev;
  ev.phase = "test.phase";
  ev.items = 42;
  ev.frontier = 7;
  ev.items_per_sec = 123.5;
  ev.elapsed_ms = 900;
  ev.peak_rss_bytes = 1 << 20;
  ev.final_event = true;
  sink.write_progress(ev);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.get_string("event"), "progress");
  EXPECT_EQ(doc.get_string("phase"), "test.phase");
  EXPECT_EQ(doc.get_number("items"), 42.0);
  EXPECT_EQ(doc.get_number("frontier"), 7.0);
  EXPECT_NEAR(doc.get_number("items_per_sec"), 123.5, 0.01);
  const json::Value* final_flag = doc.find("final");
  ASSERT_NE(final_flag, nullptr);
  EXPECT_TRUE(final_flag->as_bool());
  // No target set: the optional fields stay absent.
  EXPECT_EQ(doc.find("target"), nullptr);
  EXPECT_EQ(doc.find("eta_ms"), nullptr);
}

TEST(Sinks, JsonlProgressCarriesTargetAndEta) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::ProgressEvent ev;
  ev.phase = "test.eta";
  ev.items = 40;
  ev.target = 100;
  ev.eta_ms = 1500;
  sink.write_progress(ev);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.get_number("target"), 100.0);
  EXPECT_EQ(doc.get_number("eta_ms"), 1500.0);
}

TEST(Sinks, JsonlCountersIncludeHistograms) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.jsonl");
  for (std::uint64_t i = 1; i <= 10; ++i) h.record(i);
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.write_counters(obs::Registry::instance().snapshot());
  const json::Value doc = json::parse(out.str());
  const json::Value* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* hist = histograms->find("test.hist.jsonl");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get_number("count"), 10.0);
  EXPECT_EQ(hist->get_number("max"), 10.0);
}

TEST(Memory, RssReadingsArePlausible) {
  // Current before peak: the peak read later bounds any earlier RSS sample
  // (the other order races against allocation between the two reads).
  const std::uint64_t current = obs::current_rss_bytes();
  const std::uint64_t peak = obs::peak_rss_bytes();
#if defined(__linux__) || defined(__APPLE__)
  ASSERT_GT(peak, 0u);
  ASSERT_GT(current, 0u);
  // A test binary occupies at least a megabyte and peak bounds current.
  EXPECT_GT(peak, 1u << 20);
  EXPECT_GE(peak, current);
#else
  (void)peak;
  (void)current;
#endif
}

TEST(LimitErrors, ExploreAttachesContext) {
  ReachOptions options;
  options.max_states = 2;
  try {
    (void)explore(two_independent_cycles(), options);
    FAIL() << "expected LimitError";
  } catch (const LimitError& e) {
    ASSERT_TRUE(e.context().has_value());
    EXPECT_EQ(e.context()->reached, 2u);
    EXPECT_EQ(e.context()->limit, 2u);
    EXPECT_NE(std::string(e.what()).find("limit=2"), std::string::npos);
  }
}

}  // namespace
}  // namespace cipnet
