#include "obs/sink_jsonl.h"

#include "util/json_writer.h"

namespace cipnet::obs {

std::string json_escape(const std::string& text) {
  // Kept as the historical obs-layer entry point; the implementation moved
  // to util/json_writer.h when the sinks switched to the shared writer.
  return json::escape(text);
}

namespace {

void write_pairs(
    json::Writer& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs) {
  w.begin_object();
  for (const auto& [name, value] : pairs) w.member(name, value);
  w.end_object();
}

}  // namespace

void JsonlSink::write_span(const SpanRecord& span,
                           const std::string& parent_path, int depth) {
  const std::string path =
      parent_path.empty() ? span.name : parent_path + "/" + span.name;
  json::Writer w;
  w.begin_object();
  w.member("event", "span");
  w.member("name", span.name);
  w.member("path", path);
  w.member("depth", depth);
  w.member("start_ns", span.start_ns);
  w.member("dur_ns", span.duration_ns);
  if (span.job_id != 0) w.member("job", span.job_id);
  w.key("counters");
  write_pairs(w, span.counter_deltas);
  w.end_object();
  out_ << w.str() << '\n';
  for (const SpanRecord& child : span.children) {
    write_span(child, path, depth + 1);
  }
}

void JsonlSink::on_span(const SpanRecord& root) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_span(root, "", 0);
  out_.flush();
}

void JsonlSink::write_counters(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Writer w;
  w.begin_object();
  w.member("event", "counters");
  w.key("counters");
  write_pairs(w, snapshot.counters);
  w.key("gauges");
  write_pairs(w, snapshot.gauges);
  w.key("histograms").begin_object();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.count == 0) continue;
    w.key(h.name).begin_object();
    w.member("count", h.count);
    w.member("sum", h.sum);
    w.member("p50", h.percentile(50));
    w.member("p90", h.percentile(90));
    w.member("p99", h.percentile(99));
    w.member("max", h.max);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out_ << w.str() << '\n';
  out_.flush();
}

void JsonlSink::write_progress(const ProgressEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Writer w;
  w.begin_object();
  w.member("event", "progress");
  w.member("phase", event.phase);
  if (event.job_id != 0) w.member("job", event.job_id);
  w.member("items", event.items);
  w.member("frontier", event.frontier);
  w.member("items_per_sec", event.items_per_sec);
  w.member("elapsed_ms", event.elapsed_ms);
  w.member("peak_rss_bytes", event.peak_rss_bytes);
  if (event.target != 0) {
    w.member("target", event.target);
    w.member("eta_ms", event.eta_ms);
  }
  w.member("final", event.final_event);
  w.end_object();
  out_ << w.str() << '\n';
  out_.flush();
}

}  // namespace cipnet::obs
