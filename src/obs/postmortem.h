#pragma once

// Post-mortem analysis of one run's observability artifacts — the engine
// behind `cipnet report`. A run can leave up to four kinds of evidence:
//
//   * a span trace (`--trace-out run.jsonl`, `{"event":"span",...}` lines
//     with a final `{"event":"counters",...}` snapshot),
//   * a Chrome trace (`--trace-out run.json`, `{"traceEvents":[...]}`),
//   * a flight-recorder dump (`--flight-dump`, watchdog/crash/exit dumps:
//     a `{"event":"flight_dump",...}` header followed by bare
//     `{"seq":...,"kind":...}` event lines),
//   * a sample stream (`--samples-out`, `{"event":"sample",...}` lines
//     from the time-series sampler).
//
// `PostMortemBuilder` ingests any mix of these (format auto-detected per
// file, unknown lines counted and skipped, never fatal) and distills one
// `PostMortem`: phase breakdown, slowest spans, throughput and RSS curves,
// fault-site and flight-event summaries. The renderers emit it as aligned
// text, markdown tables, or a JSON document that round-trips through the
// strict parser.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cipnet::obs {

struct PostMortem {
  /// Spans aggregated by name across every ingested trace.
  struct PhaseAgg {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  /// The slowest individual spans (path = root/.../name when known).
  struct TopSpan {
    std::string path;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t job = 0;
  };

  /// One progress heartbeat: the states/sec curve.
  struct RatePoint {
    std::string phase;
    std::uint64_t elapsed_ms = 0;
    std::uint64_t items = 0;
    double items_per_sec = 0.0;
    std::uint64_t rss_bytes = 0;
  };

  /// One sampler reading: the RSS (and cumulative-states) curve.
  struct SamplePoint {
    std::uint64_t seq = 0;
    std::uint64_t ns = 0;
    std::uint64_t rss_bytes = 0;
    std::uint64_t states = 0;  ///< reach.states counter, 0 when absent
  };

  struct FaultSite {
    std::string site;
    std::uint64_t fired = 0;
  };

  std::vector<PhaseAgg> phases;      ///< sorted by total_ns, descending
  std::vector<TopSpan> top_spans;    ///< sorted by dur_ns, descending
  std::vector<RatePoint> progress;   ///< chronological
  std::vector<SamplePoint> samples;  ///< chronological (by seq)
  std::vector<FaultSite> fault_sites;  ///< from flight `fault_fired` events
  /// Flight events by kind name, sorted by count descending.
  std::vector<std::pair<std::string, std::uint64_t>> flight_kinds;
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_discarded = 0;
  /// Nonzero counters of the final `{"event":"counters"}` snapshot.
  std::vector<std::pair<std::string, std::uint64_t>> final_counters;

  std::size_t files = 0;          ///< files ingested
  std::size_t lines = 0;          ///< JSONL lines (or Chrome events) read
  std::size_t skipped = 0;        ///< unrecognized/unparseable lines
  bool saw_spans = false;
  bool saw_progress = false;
  bool saw_samples = false;
  bool saw_flight = false;
};

/// Streaming accumulator: `ingest` each artifact, then `finish` once.
class PostMortemBuilder {
 public:
  /// Parse one artifact. `name` is used only for diagnostics; the format
  /// is detected from the content. Returns the number of lines (or Chrome
  /// events) recognized; malformed lines are skipped, not fatal.
  std::size_t ingest(const std::string& name, const std::string& text);

  /// Sort, cap, and return the accumulated report. `top_limit` bounds the
  /// slowest-spans table.
  [[nodiscard]] PostMortem finish(std::size_t top_limit = 10);

 private:
  void ingest_chrome(const std::string& text);
  void ingest_jsonl(const std::string& text);
  void add_span(const std::string& name, const std::string& path,
                std::uint64_t start_ns, std::uint64_t dur_ns,
                std::uint64_t job);

  PostMortem pm_;
};

/// Render `pm` in the requested format: "text" (aligned console report),
/// "md"/"markdown" (tables), or "json" (round-trips through json::parse).
/// Throws `Error` on an unknown format.
[[nodiscard]] std::string render_postmortem(const PostMortem& pm,
                                            std::string_view format);

}  // namespace cipnet::obs
