#include "obs/postmortem.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet::obs {

namespace {

std::uint64_t u64(const json::Value& doc, std::string_view key) {
  return static_cast<std::uint64_t>(doc.get_number(key, 0));
}

/// First non-whitespace character, or '\0' for blank text.
char first_char(const std::string& text) {
  for (char c : text) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
  }
  return '\0';
}

std::string format_ms(double ms) {
  char buf[32];
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  }
  return buf;
}

std::string format_mib(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

std::size_t PostMortemBuilder::ingest(const std::string& name,
                                      const std::string& text) {
  (void)name;
  ++pm_.files;
  const std::size_t before = pm_.lines;
  // A Chrome trace is one whole-file JSON document with a `traceEvents`
  // array; everything else this tool accepts is line-oriented JSONL.
  if (first_char(text) == '{' &&
      text.find("\"traceEvents\"") != std::string::npos) {
    try {
      ingest_chrome(text);
      return pm_.lines - before;
    } catch (const ParseError&) {
      // Fall through: it was JSONL whose text merely mentions traceEvents.
    }
  }
  ingest_jsonl(text);
  return pm_.lines - before;
}

void PostMortemBuilder::ingest_chrome(const std::string& text) {
  const json::Value doc = json::parse(text);
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw ParseError("no traceEvents array");
  }
  for (const json::Value& ev : events->items()) {
    ++pm_.lines;
    if (!ev.is_object() || ev.get_string("ph") != "X") {
      ++pm_.skipped;  // metadata (M) and counter (C) tracks
      continue;
    }
    // Chrome timestamps are microseconds (possibly fractional).
    const auto start_ns =
        static_cast<std::uint64_t>(ev.get_number("ts", 0) * 1000.0);
    const auto dur_ns =
        static_cast<std::uint64_t>(ev.get_number("dur", 0) * 1000.0);
    add_span(ev.get_string("name"), ev.get_string("name"), start_ns, dur_ns,
             0);
  }
}

void PostMortemBuilder::ingest_jsonl(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++pm_.lines;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const ParseError&) {
      ++pm_.skipped;
      continue;
    }
    if (!doc.is_object()) {
      ++pm_.skipped;
      continue;
    }
    const std::string event = doc.get_string("event");
    if (event == "span") {
      add_span(doc.get_string("name"), doc.get_string("path"),
               u64(doc, "start_ns"), u64(doc, "dur_ns"), u64(doc, "job"));
    } else if (event == "progress") {
      pm_.saw_progress = true;
      PostMortem::RatePoint point;
      point.phase = doc.get_string("phase");
      point.elapsed_ms = u64(doc, "elapsed_ms");
      point.items = u64(doc, "items");
      point.items_per_sec = doc.get_number("items_per_sec", 0);
      point.rss_bytes = u64(doc, "peak_rss_bytes");
      pm_.progress.push_back(std::move(point));
    } else if (event == "sample") {
      pm_.saw_samples = true;
      PostMortem::SamplePoint point;
      point.seq = u64(doc, "seq");
      point.ns = u64(doc, "ns");
      point.rss_bytes = u64(doc, "rss_bytes");
      if (const json::Value* counters = doc.find("counters")) {
        point.states = static_cast<std::uint64_t>(
            counters->get_number("reach.states", 0));
      }
      pm_.samples.push_back(point);
    } else if (event == "counters") {
      if (const json::Value* counters = doc.find("counters")) {
        if (counters->is_object()) {
          pm_.final_counters.clear();
          for (const auto& [cname, value] : counters->members()) {
            const auto v = static_cast<std::uint64_t>(value.as_number());
            if (v != 0) pm_.final_counters.emplace_back(cname, v);
          }
        }
      }
    } else if (event == "flight_dump") {
      pm_.saw_flight = true;
      pm_.flight_recorded =
          std::max(pm_.flight_recorded, u64(doc, "recorded"));
      pm_.flight_discarded =
          std::max(pm_.flight_discarded, u64(doc, "discarded"));
    } else if (event.empty() && doc.find("kind") != nullptr &&
               doc.find("seq") != nullptr) {
      // Bare flight-recorder event line (the body of a dump).
      pm_.saw_flight = true;
      const std::string kind = doc.get_string("kind");
      auto it = std::find_if(
          pm_.flight_kinds.begin(), pm_.flight_kinds.end(),
          [&](const auto& entry) { return entry.first == kind; });
      if (it == pm_.flight_kinds.end()) {
        pm_.flight_kinds.emplace_back(kind, 1);
      } else {
        ++it->second;
      }
      if (kind == "fault_fired") {
        const std::string site = doc.get_string("detail");
        auto site_it = std::find_if(
            pm_.fault_sites.begin(), pm_.fault_sites.end(),
            [&](const PostMortem::FaultSite& f) { return f.site == site; });
        if (site_it == pm_.fault_sites.end()) {
          pm_.fault_sites.push_back(PostMortem::FaultSite{site, 1});
        } else {
          ++site_it->fired;
        }
      }
    } else {
      ++pm_.skipped;
    }
  }
}

void PostMortemBuilder::add_span(const std::string& name,
                                 const std::string& path,
                                 std::uint64_t start_ns, std::uint64_t dur_ns,
                                 std::uint64_t job) {
  pm_.saw_spans = true;
  auto it = std::find_if(
      pm_.phases.begin(), pm_.phases.end(),
      [&](const PostMortem::PhaseAgg& agg) { return agg.name == name; });
  if (it == pm_.phases.end()) {
    pm_.phases.push_back(PostMortem::PhaseAgg{name, 1, dur_ns, dur_ns});
  } else {
    ++it->count;
    it->total_ns += dur_ns;
    it->max_ns = std::max(it->max_ns, dur_ns);
  }
  pm_.top_spans.push_back(
      PostMortem::TopSpan{path.empty() ? name : path, start_ns, dur_ns, job});
}

PostMortem PostMortemBuilder::finish(std::size_t top_limit) {
  std::sort(pm_.phases.begin(), pm_.phases.end(),
            [](const PostMortem::PhaseAgg& a, const PostMortem::PhaseAgg& b) {
              return a.total_ns > b.total_ns;
            });
  std::sort(pm_.top_spans.begin(), pm_.top_spans.end(),
            [](const PostMortem::TopSpan& a, const PostMortem::TopSpan& b) {
              return a.dur_ns > b.dur_ns;
            });
  if (pm_.top_spans.size() > top_limit) pm_.top_spans.resize(top_limit);
  std::sort(pm_.samples.begin(), pm_.samples.end(),
            [](const PostMortem::SamplePoint& a,
               const PostMortem::SamplePoint& b) { return a.seq < b.seq; });
  std::sort(pm_.flight_kinds.begin(), pm_.flight_kinds.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::sort(pm_.fault_sites.begin(), pm_.fault_sites.end(),
            [](const PostMortem::FaultSite& a, const PostMortem::FaultSite& b) {
              return a.fired > b.fired;
            });
  return std::move(pm_);
}

namespace {

/// Down-sample a curve to at most `limit` evenly spaced points (first and
/// last always kept) so huge sample streams stay readable.
template <typename T>
std::vector<const T*> thin_curve(const std::vector<T>& points,
                                 std::size_t limit) {
  std::vector<const T*> out;
  if (points.empty()) return out;
  if (points.size() <= limit) {
    for (const T& p : points) out.push_back(&p);
    return out;
  }
  for (std::size_t i = 0; i < limit; ++i) {
    const std::size_t idx = i * (points.size() - 1) / (limit - 1);
    if (!out.empty() && out.back() == &points[idx]) continue;
    out.push_back(&points[idx]);
  }
  return out;
}

void render_human(const PostMortem& pm, bool markdown, std::string& out) {
  const char* h2 = markdown ? "## " : "== ";
  const char* h2e = markdown ? "" : " ==";
  auto section = [&](const char* title) {
    out += h2;
    out += title;
    out += h2e;
    out += '\n';
  };
  char buf[256];

  if (markdown) out += "# Post-mortem report\n\n";
  std::snprintf(buf, sizeof(buf),
                "%singested %zu file(s): %zu line(s), %zu skipped\n\n",
                markdown ? "" : "post-mortem: ", pm.files, pm.lines,
                pm.skipped);
  out += buf;

  if (!pm.phases.empty()) {
    section("Phase breakdown");
    if (markdown) {
      out += "| phase | count | total | mean | max |\n";
      out += "|---|---:|---:|---:|---:|\n";
    }
    for (const PostMortem::PhaseAgg& agg : pm.phases) {
      const double total_ms = static_cast<double>(agg.total_ns) / 1e6;
      const double mean_ms =
          agg.count == 0 ? 0.0
                         : total_ms / static_cast<double>(agg.count);
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu | %s | %s | %s |\n",
                      agg.name.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      format_ms(total_ms).c_str(), format_ms(mean_ms).c_str(),
                      format_ms(static_cast<double>(agg.max_ns) / 1e6)
                          .c_str());
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  %-28s x%-6llu total %-10s mean %-10s max %s\n",
                      agg.name.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      format_ms(total_ms).c_str(), format_ms(mean_ms).c_str(),
                      format_ms(static_cast<double>(agg.max_ns) / 1e6)
                          .c_str());
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.top_spans.empty()) {
    section("Top spans");
    if (markdown) {
      out += "| span | duration | job |\n|---|---:|---:|\n";
    }
    for (const PostMortem::TopSpan& span : pm.top_spans) {
      const double ms = static_cast<double>(span.dur_ns) / 1e6;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %s | %llu |\n",
                      span.path.c_str(), format_ms(ms).c_str(),
                      static_cast<unsigned long long>(span.job));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-48s %-10s job %llu\n",
                      span.path.c_str(), format_ms(ms).c_str(),
                      static_cast<unsigned long long>(span.job));
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.progress.empty()) {
    section("Throughput (progress heartbeats)");
    if (markdown) {
      out += "| t | phase | items | items/s | peak rss |\n";
      out += "|---:|---|---:|---:|---:|\n";
    }
    for (const PostMortem::RatePoint* p : thin_curve(pm.progress, 20)) {
      if (markdown) {
        std::snprintf(buf, sizeof(buf),
                      "| %s | %s | %llu | %.0f | %s |\n",
                      format_ms(static_cast<double>(p->elapsed_ms)).c_str(),
                      p->phase.c_str(),
                      static_cast<unsigned long long>(p->items),
                      p->items_per_sec,
                      format_mib(static_cast<double>(p->rss_bytes)).c_str());
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  %-10s %-20s %-12llu %9.0f/s rss %s\n",
                      format_ms(static_cast<double>(p->elapsed_ms)).c_str(),
                      p->phase.c_str(),
                      static_cast<unsigned long long>(p->items),
                      p->items_per_sec,
                      format_mib(static_cast<double>(p->rss_bytes)).c_str());
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.samples.empty()) {
    section("RSS curve (sampler)");
    std::uint64_t peak = 0;
    for (const PostMortem::SamplePoint& p : pm.samples) {
      peak = std::max(peak, p.rss_bytes);
    }
    if (markdown) {
      out += "| seq | t | rss | states |\n|---:|---:|---:|---:|\n";
    }
    const std::uint64_t t0 = pm.samples.front().ns;
    for (const PostMortem::SamplePoint* p : thin_curve(pm.samples, 20)) {
      const double t_ms = static_cast<double>(p->ns - t0) / 1e6;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %llu | %s | %s | %llu |\n",
                      static_cast<unsigned long long>(p->seq),
                      format_ms(t_ms).c_str(),
                      format_mib(static_cast<double>(p->rss_bytes)).c_str(),
                      static_cast<unsigned long long>(p->states));
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  #%-6llu %-10s rss %-12s states %llu\n",
                      static_cast<unsigned long long>(p->seq),
                      format_ms(t_ms).c_str(),
                      format_mib(static_cast<double>(p->rss_bytes)).c_str(),
                      static_cast<unsigned long long>(p->states));
      }
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s%zu sample(s), peak rss %s\n\n",
                  markdown ? "\n" : "  ", pm.samples.size(),
                  format_mib(static_cast<double>(peak)).c_str());
    out += buf;
  }

  if (pm.saw_flight) {
    section("Flight recorder");
    std::snprintf(buf, sizeof(buf),
                  "%srecorded %llu event(s), %llu discarded by ring wrap\n",
                  markdown ? "" : "  ",
                  static_cast<unsigned long long>(pm.flight_recorded),
                  static_cast<unsigned long long>(pm.flight_discarded));
    out += buf;
    if (markdown && !pm.flight_kinds.empty()) {
      out += "\n| kind | count |\n|---|---:|\n";
    }
    for (const auto& [kind, count] : pm.flight_kinds) {
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", kind.c_str(),
                      static_cast<unsigned long long>(count));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-20s %llu\n", kind.c_str(),
                      static_cast<unsigned long long>(count));
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.final_counters.empty()) {
    section("Final counters");
    // Highlight the health-of-the-run counters — engine selection
    // (`reach.packed.*`), durability (`store.*`), cache effectiveness
    // (`svc.cache.*`) — and fold the rest into one summary line.
    auto highlighted = [](const std::string& name) {
      return name.rfind("reach.packed.", 0) == 0 ||
             name.rfind("store.", 0) == 0 || name.rfind("svc.cache.", 0) == 0;
    };
    if (markdown) out += "| counter | value |\n|---|---:|\n";
    for (const auto& [name, value] : pm.final_counters) {
      if (!highlighted(name)) continue;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", name.c_str(),
                      static_cast<unsigned long long>(value));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-28s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
      }
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s%zu nonzero counter(s) total (full set in the json "
                  "format)\n",
                  markdown ? "\n" : "  ", pm.final_counters.size());
    out += buf;
    out += '\n';
  }

  if (!pm.fault_sites.empty()) {
    section("Fault sites");
    if (markdown) out += "| site | fired |\n|---|---:|\n";
    for (const PostMortem::FaultSite& site : pm.fault_sites) {
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", site.site.c_str(),
                      static_cast<unsigned long long>(site.fired));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-28s fired %llu\n",
                      site.site.c_str(),
                      static_cast<unsigned long long>(site.fired));
      }
      out += buf;
    }
    out += '\n';
  }
}

std::string render_json(const PostMortem& pm) {
  json::Writer w;
  w.begin_object();
  w.key("ingested").begin_object();
  w.member("files", static_cast<std::uint64_t>(pm.files));
  w.member("lines", static_cast<std::uint64_t>(pm.lines));
  w.member("skipped", static_cast<std::uint64_t>(pm.skipped));
  w.member("spans", pm.saw_spans);
  w.member("progress", pm.saw_progress);
  w.member("samples", pm.saw_samples);
  w.member("flight", pm.saw_flight);
  w.end_object();
  w.key("phases").begin_array();
  for (const PostMortem::PhaseAgg& agg : pm.phases) {
    w.begin_object();
    w.member("name", agg.name);
    w.member("count", agg.count);
    w.member("total_ns", agg.total_ns);
    w.member("max_ns", agg.max_ns);
    w.end_object();
  }
  w.end_array();
  w.key("top_spans").begin_array();
  for (const PostMortem::TopSpan& span : pm.top_spans) {
    w.begin_object();
    w.member("path", span.path);
    w.member("start_ns", span.start_ns);
    w.member("dur_ns", span.dur_ns);
    if (span.job != 0) w.member("job", span.job);
    w.end_object();
  }
  w.end_array();
  w.key("progress").begin_array();
  for (const PostMortem::RatePoint& p : pm.progress) {
    w.begin_object();
    w.member("phase", p.phase);
    w.member("elapsed_ms", p.elapsed_ms);
    w.member("items", p.items);
    w.member("items_per_sec", p.items_per_sec);
    w.member("rss_bytes", p.rss_bytes);
    w.end_object();
  }
  w.end_array();
  w.key("samples").begin_array();
  for (const PostMortem::SamplePoint& p : pm.samples) {
    w.begin_object();
    w.member("seq", p.seq);
    w.member("ns", p.ns);
    w.member("rss_bytes", p.rss_bytes);
    if (p.states != 0) w.member("states", p.states);
    w.end_object();
  }
  w.end_array();
  w.key("flight").begin_object();
  w.member("recorded", pm.flight_recorded);
  w.member("discarded", pm.flight_discarded);
  w.key("kinds").begin_object();
  for (const auto& [kind, count] : pm.flight_kinds) w.member(kind, count);
  w.end_object();
  w.end_object();
  w.key("fault_sites").begin_array();
  for (const PostMortem::FaultSite& site : pm.fault_sites) {
    w.begin_object();
    w.member("site", site.site);
    w.member("fired", site.fired);
    w.end_object();
  }
  w.end_array();
  w.key("final_counters").begin_object();
  for (const auto& [name, value] : pm.final_counters) w.member(name, value);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

std::string render_postmortem(const PostMortem& pm, std::string_view format) {
  if (format == "json") return render_json(pm);
  std::string out;
  if (format == "text") {
    render_human(pm, /*markdown=*/false, out);
  } else if (format == "md" || format == "markdown") {
    render_human(pm, /*markdown=*/true, out);
  } else {
    throw Error("unknown report format: " + std::string(format) +
                " (expected text, md, or json)");
  }
  return out;
}

}  // namespace cipnet::obs
