#include "svc/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

#include "algebra/hide.h"
#include "io/astg.h"
#include "io/net_format.h"
#include "net/info.h"
#include "obs/buildinfo.h"
#include "obs/flight_recorder.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/sink_prom.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "petri/canonical.h"
#include "reach/coverability.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "stg/coding.h"
#include "stg/state_graph.h"
#include "svc/cache_persist.h"
#include "synth/synthesize.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet::svc {

namespace {

CIPNET_FAULT_SITE(f_parse, "svc.parse");
const obs::Counter c_requests("svc.requests");
const obs::Counter c_ok("svc.responses.ok");
const obs::Counter c_errors("svc.responses.error");
const obs::Counter c_cancelled("svc.cancelled");
const obs::Counter c_overloaded("svc.overloaded");
const obs::Counter c_faults("svc.faults");
const obs::Counter c_shed("svc.shed.rss");
const obs::Counter c_truncated("svc.truncated");
const obs::Counter c_oversized("svc.frames.oversized");
const obs::Counter c_dropped("svc.responses.dropped");
const obs::Counter c_introspect("svc.introspect");
const obs::Histogram h_phase_queue_wait("svc.phase.queue_wait_us");
const obs::Histogram h_phase_cache_lookup("svc.phase.cache_lookup_us");
const obs::Histogram h_phase_exec("svc.phase.exec_us");
const obs::Histogram h_phase_serialize("svc.phase.serialize_us");

std::uint64_t now_ms_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Per-phase latency breakdown of one request, echoed in the response's
/// `timings` object and mirrored into the `svc.phase.*` histograms. All
/// microseconds; a phase the request never entered stays 0.
struct Timings {
  std::uint64_t queue_wait_us = 0;
  std::uint64_t cache_lookup_us = 0;
  std::uint64_t exec_us = 0;
  std::uint64_t serialize_us = 0;
};

/// Ops answered inline on the submitting thread: introspection must work
/// exactly when the queue is full or the process is shedding load.
bool is_introspection_op(std::string_view op) {
  return op == "metrics" || op == "jobs" || op == "health" ||
         op == "dump" || op == "history";
}

}  // namespace

/// One parsed request. `valid == false` carries a prebuilt error code and
/// message instead of op fields.
struct AnalysisService::Request {
  bool valid = false;
  std::string error_code;
  std::string error_message;

  std::string id_json;  // pre-serialized `id` echo; empty = absent
  std::string op;
  std::string net_text;
  std::string stg_text;
  std::vector<std::string> labels;
  bool has_labels = false;
  std::size_t max_states = 0;       // 0 = service default
  std::string engine;               // `reach` op: auto|dense
  std::string resume;               // `reach` op: checkpoint to continue from
  std::string checkpoint;           // `reach` op: checkpoint file to write
  std::size_t checkpoint_every = 0;  // `reach` op: cadence in states
  std::uint64_t deadline_ms = 0;    // 0 = service default
  bool no_cache = false;
  Priority priority = Priority::kNormal;
  CancelToken cancel;

  std::string client;  // optional client tag, echoed into the TraceContext
  std::string format;  // `metrics` op: "json" (default) or "prom"
  std::uint64_t cursor = 0;       // `history` op: highest seq already seen
  std::size_t max_samples = 0;    // `history` op: page size (0 = all)
  std::uint64_t job_id = 0;  // minted TraceContext id (0 = not yet minted)
  std::chrono::steady_clock::time_point enqueued{};  // set on the async path
};

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(options), cache_(options.cache), scheduler_(options.scheduler) {
  if (!options_.cache_dir.empty()) {
    // Load survivors before attaching the write-through hooks — loading
    // through them would rewrite every file just read.
    persister_ = std::make_unique<CachePersister>(
        options_.cache_dir, options_.cache.ttl);
    persister_->load_into(cache_);
    persister_->attach(cache_);
  }
  if (!options_.checkpoint_dir.empty()) {
    // Best effort, like the cache dir: a missing directory surfaces as
    // counted store.persist.errors on the first checkpoint write.
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
  }
  // Progress heartbeats double as job liveness: any event attributed to a
  // job (via its TraceContext) refreshes that row's heartbeat age in the
  // `jobs` table.
  progress_listener_ = obs::ProgressBus::instance().add_listener(
      [this](const obs::ProgressEvent& event) {
        jobs_.heartbeat(event.job_id);
      });
}

AnalysisService::~AnalysisService() {
  // Workers are still running (scheduler_ is destroyed after this body);
  // they may publish into the bus until the listener is gone, and the
  // table outlives the scheduler by declaration order, so this is the
  // only ordering that needs care.
  obs::ProgressBus::instance().remove_listener(progress_listener_);
}

AnalysisService::Request AnalysisService::parse_request(
    const std::string& line) const {
  Request req;
  if (CIPNET_FAULT_FIRES(f_parse)) {
    req.error_code = "parse";
    req.error_message = "injected fault at svc.parse";
    return req;
  }
  if (line.size() > options_.max_line_bytes) {
    c_oversized.add();
    req.error_code = "bad_request";
    req.error_message = "request line exceeds " +
                        std::to_string(options_.max_line_bytes) + " bytes";
    return req;
  }
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const ParseError& e) {
    req.error_code = "parse";
    req.error_message = e.what();
    return req;
  }
  if (!doc.is_object()) {
    req.error_code = "bad_request";
    req.error_message = "request must be a JSON object";
    return req;
  }
  // Echo `id` (string or number) before anything else can fail, so even a
  // bad_request response stays correlatable.
  if (const json::Value* id = doc.find("id")) {
    if (id->type() == json::Value::Type::kString) {
      req.id_json = "\"" + json::escape(id->as_string()) + "\"";
    } else if (id->type() == json::Value::Type::kNumber) {
      req.id_json = json::number_to_string(id->as_number());
    }
  }
  const json::Value* op = doc.find("op");
  if (!op || op->type() != json::Value::Type::kString) {
    req.error_code = "bad_request";
    req.error_message = "missing string member 'op'";
    return req;
  }
  req.op = op->as_string();
  req.net_text = doc.get_string("net");
  req.stg_text = doc.get_string("stg");
  if (const json::Value* labels = doc.find("labels")) {
    if (!labels->is_array()) {
      req.error_code = "bad_request";
      req.error_message = "'labels' must be an array of strings";
      return req;
    }
    req.has_labels = true;
    for (const json::Value& item : labels->items()) {
      if (item.type() != json::Value::Type::kString) {
        req.error_code = "bad_request";
        req.error_message = "'labels' must be an array of strings";
        return req;
      }
      req.labels.push_back(item.as_string());
    }
  }
  req.client = doc.get_string("client");
  req.format = doc.get_string("format", "json");
  req.cursor = static_cast<std::uint64_t>(doc.get_number("cursor", 0));
  req.max_samples = static_cast<std::size_t>(doc.get_number("max", 0));
  req.max_states = static_cast<std::size_t>(doc.get_number("max_states", 0));
  req.engine = doc.get_string("engine", "auto");
  req.resume = doc.get_string("resume");
  req.checkpoint = doc.get_string("checkpoint");
  req.checkpoint_every =
      static_cast<std::size_t>(doc.get_number("checkpoint_every", 0));
  if (!req.resume.empty() || !req.checkpoint.empty()) {
    // These strings reach rename() and the atomic-write protocol on the
    // server's filesystem, and the TCP frontend feeds this parser — so a
    // verbatim path would hand any remote client arbitrary-file writes
    // (checkpoint) and quarantine renames to `<path>.bad` (resume).
    // Requests name bare files inside the operator-chosen directory.
    if (options_.checkpoint_dir.empty()) {
      req.error_code = "bad_request";
      req.error_message =
          "'checkpoint'/'resume' need the server started with "
          "--checkpoint-dir";
      return req;
    }
    auto confine = [this](std::string& name) {
      if (name.empty()) return true;
      if (name == "." || name == ".." ||
          name.find('/') != std::string::npos ||
          name.find('\\') != std::string::npos) {
        return false;
      }
      name = options_.checkpoint_dir + "/" + name;
      return true;
    };
    if (!confine(req.resume) || !confine(req.checkpoint)) {
      req.error_code = "bad_request";
      req.error_message =
          "'checkpoint'/'resume' must be bare file names (no path "
          "separators or '..'); they resolve inside the server's "
          "--checkpoint-dir";
      return req;
    }
  }
  req.deadline_ms =
      static_cast<std::uint64_t>(doc.get_number("deadline_ms", 0));
  if (const json::Value* no_cache = doc.find("no_cache")) {
    req.no_cache =
        no_cache->type() == json::Value::Type::kBool && no_cache->as_bool();
  }
  // Durable exploration implies no_cache in both directions: a request
  // that writes or resumes a checkpoint must actually run, and its result
  // (reported from a resumed prefix) must not be memoized as the answer
  // for plain requests (docs/SERVICE.md).
  if (!req.resume.empty() || !req.checkpoint.empty()) req.no_cache = true;
  const std::string priority = doc.get_string("priority", "normal");
  if (priority == "high") {
    req.priority = Priority::kHigh;
  } else if (priority == "low") {
    req.priority = Priority::kLow;
  } else if (priority != "normal") {
    req.error_code = "bad_request";
    req.error_message = "unknown priority: " + priority;
    return req;
  }
  req.valid = true;
  return req;
}

namespace {

/// Append the `timings` member. Called last so `serialize_us` — measured
/// by the response builders over envelope assembly — is already final.
void write_timings(json::Writer& w, const Timings& timings) {
  w.key("timings").begin_object();
  w.member("queue_wait_us", timings.queue_wait_us);
  w.member("cache_lookup_us", timings.cache_lookup_us);
  w.member("exec_us", timings.exec_us);
  w.member("serialize_us", timings.serialize_us);
  w.end_object();
}

/// `{"id":...,"op":...,"ok":false,"error":{...},"timings":{...}}`
/// Callers that never touched the queue or cache (parse rejections, shed
/// and queue-full turnaways, the ResponseGuard rescue) pass no Timings;
/// the zero-phase fallback keeps the every-response contract: the object
/// is always present and serialize_us is always measured.
std::string error_response(const std::string& id_json, const std::string& op,
                           std::string_view code, std::string_view message,
                           std::uint64_t retry_after_ms = 0,
                           std::uint64_t elapsed_ms = 0,
                           Timings* timings = nullptr) {
  const auto serialize_start = std::chrono::steady_clock::now();
  Timings inline_timings;
  if (timings == nullptr) timings = &inline_timings;
  json::Writer w;
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  if (!op.empty()) w.member("op", op);
  w.member("ok", false);
  w.key("error").begin_object();
  w.member("code", code);
  w.member("message", message);
  if (retry_after_ms != 0) w.member("retry_after_ms", retry_after_ms);
  if (elapsed_ms != 0) w.member("elapsed_ms", elapsed_ms);
  w.end_object();
  timings->serialize_us = us_since(serialize_start);
  h_phase_serialize.record(timings->serialize_us);
  write_timings(w, *timings);
  w.end_object();
  c_errors.add();
  return w.take();
}

/// `{"id":...,"op":...,"ok":true,"cached":...,"elapsed_ms":...,
///   "result":{...},"timings":{...}}`
std::string ok_response(const std::string& id_json, const std::string& op,
                        const std::string& payload, bool cached,
                        std::uint64_t elapsed_ms,
                        Timings* timings = nullptr) {
  const auto serialize_start = std::chrono::steady_clock::now();
  json::Writer w;
  w.begin_object();
  if (!id_json.empty()) w.key("id").raw(id_json);
  w.member("op", op);
  w.member("ok", true);
  w.member("cached", cached);
  w.member("elapsed_ms", elapsed_ms);
  w.key("result").raw(payload);
  if (timings != nullptr) {
    timings->serialize_us = us_since(serialize_start);
    h_phase_serialize.record(timings->serialize_us);
    write_timings(w, *timings);
  }
  w.end_object();
  c_ok.add();
  return w.take();
}

std::string run_ping() { return "{}"; }

std::string run_version() {
  const net::ListenerInfo listener = net::listener_info();
  json::Writer w;
  w.begin_object();
  w.member("git_sha", obs::build_git_sha());
  w.member("compiler", obs::build_compiler());
  w.member("build_type", obs::build_type());
  w.member("features", obs::build_features());
  w.member("sanitizer", obs::build_sanitizer());
  w.member("flight_active", obs::FlightRecorder::instance().active());
  w.key("net").begin_object();
  w.member("listening", listener.listening);
  if (!listener.address.empty()) w.member("address", listener.address);
  w.member("active_connections", listener.conns_active);
  w.end_object();
  w.end_object();
  return w.take();
}

/// `history` op payload: the sampler ring windowed by `cursor` (highest
/// `seq` the client has already seen; 0 = from the oldest surviving
/// sample) and `max` (page size, 0 = the rest). `next_cursor` echoes the
/// last returned seq — feed it back to poll incrementally; `dropped`
/// rising between polls means the ring evicted samples the client never
/// saw (poll faster or enlarge the interval).
std::string run_history(std::uint64_t cursor, std::size_t max) {
  auto& sampler = obs::TimeSeriesSampler::instance();
  const std::vector<obs::TimeSample> samples = sampler.since(cursor, max);
  json::Writer w;
  w.begin_object();
  w.member("running", sampler.running());
  w.member("interval_ms", sampler.interval_ms());
  w.member("dropped", sampler.dropped());
  w.member("next_cursor", samples.empty() ? cursor : samples.back().seq);
  w.key("samples").begin_array();
  for (const obs::TimeSample& sample : samples) {
    obs::write_sample_json(w, sample);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string run_reach(const PetriNet& net, std::size_t max_states,
                      std::size_t max_graph_bytes, ReachEngine engine,
                      const std::string& checkpoint,
                      std::size_t checkpoint_every, const std::string& resume,
                      const CancelToken& cancel, bool& truncated) {
  ReachOptions options;
  options.max_states = max_states;
  options.max_graph_bytes = max_graph_bytes;
  options.engine = engine;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every_states = checkpoint_every;
  options.resume_path = resume;
  // Graceful degradation: a limit/memory trip yields the statistics of the
  // explored prefix, marked `"truncated": true`, instead of a bare error.
  options.truncate_on_limit = true;
  options.cancel = cancel;
  ReachabilityGraph rg = explore(net, options);
  truncated = rg.truncated();
  json::Writer w;
  w.begin_object();
  if (truncated) w.member("truncated", true);
  // The representation that actually built the graph ("dense"/"packed").
  w.member("engine", to_string(rg.engine()));
  w.member("states", rg.state_count());
  w.member("edges", rg.edge_count());
  w.member("deadlock_states", deadlock_states(rg).size());
  w.member("safe", is_safe(rg));
  w.member("max_tokens", static_cast<std::uint64_t>(
                             max_tokens_in_any_place(rg)));
  w.member("dead_transitions", dead_transitions(net, rg).size());
  w.member("live", is_live(net, rg));
  w.end_object();
  return w.take();
}

std::string run_cover(const PetriNet& net, std::size_t max_nodes,
                      const CancelToken& cancel, bool& truncated) {
  CoverabilityOptions options;
  options.max_nodes = max_nodes;
  options.truncate_on_limit = true;
  options.cancel = cancel;
  CoverabilityResult result = coverability(net, options);
  truncated = result.truncated;
  json::Writer w;
  w.begin_object();
  if (truncated) w.member("truncated", true);
  w.member("bounded", result.bounded());
  w.member("tree_nodes", result.tree_nodes);
  w.key("bounds").begin_array();
  for (PlaceId p : net.all_places()) {
    w.begin_object();
    w.member("place", net.place(p).name);
    const auto& bound = result.bounds[p.index()];
    w.key("bound");
    if (bound) {
      w.value(static_cast<std::uint64_t>(*bound));
    } else {
      w.null();  // ω: unbounded place
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string run_hide(const PetriNet& net,
                     const std::vector<std::string>& labels,
                     const CancelToken& cancel) {
  HideOptions options;
  options.epsilon_fallback = true;
  options.simplify_places_between_contractions = true;
  options.cancel = cancel;
  PetriNet result = hide_actions(net, labels, options);
  json::Writer w;
  w.begin_object();
  w.member("places", result.place_count());
  w.member("transitions", result.transition_count());
  w.member("net", write_net(result, "hidden"));
  w.end_object();
  return w.take();
}

std::string run_synth(const Stg& stg, std::size_t max_states,
                      const CancelToken& cancel) {
  StateGraphOptions sg_options;
  sg_options.max_states = max_states;
  sg_options.cancel = cancel;
  json::Writer w;
  w.begin_object();
  auto initial = infer_initial_encoding(stg, sg_options);
  if (!initial) {
    w.member("initial_encoding", false);
    w.member("synthesizable", false);
    w.end_object();
    return w.take();
  }
  StateGraph sg = build_state_graph(stg, *initial, sg_options);
  std::vector<std::string> outputs = stg.signal_names(SignalKind::kOutput);
  for (const auto& s : stg.signal_names(SignalKind::kInternal)) {
    outputs.push_back(s);
  }
  auto coding = check_coding(sg, outputs);
  w.member("initial_encoding", true);
  w.member("states", sg.state_count());
  w.member("consistent", sg.is_consistent());
  w.member("usc_conflicts", coding.conflicts.size());
  w.member("csc_conflicts", coding.csc_count());
  if (coding.has_csc_violation()) {
    w.member("synthesizable", false);
    w.end_object();
    return w.take();
  }
  SynthesizeOptions synth_options;
  synth_options.cancel = cancel;
  SynthesisResult result = synthesize(sg, outputs, synth_options);
  w.member("synthesizable", true);
  w.member("literals", result.total_literals());
  w.key("functions").begin_array();
  for (const SignalFunction& f : result.functions) {
    w.begin_object();
    w.member("signal", f.signal);
    w.member("expr", sop_to_string(f.sop, result.variables));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string joined_sorted(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

/// `metrics` op payload. format=json inlines the registry snapshot plus
/// the per-site fault breakdown and flight-recorder state; format=prom
/// wraps the Prometheus text exposition (obs/sink_prom.h) in `body`, with
/// the fault sites appended as labeled `cipnet_fault_site_*` series.
std::string run_metrics(const std::string& format) {
  const obs::Snapshot snapshot = obs::Registry::instance().snapshot();
  const std::vector<fault::SiteStats> sites = fault::stats();
  auto& recorder = obs::FlightRecorder::instance();
  if (format == "prom") {
    std::string body = obs::render_prometheus(snapshot);
    if (!sites.empty()) {
      body += "# TYPE cipnet_fault_site_hits_total counter\n";
      for (const auto& site : sites) {
        body += obs::prom_labeled_line("cipnet_fault_site_hits_total",
                                       "site", site.name, site.hits);
        body += '\n';
      }
      body += "# TYPE cipnet_fault_site_fired_total counter\n";
      for (const auto& site : sites) {
        body += obs::prom_labeled_line("cipnet_fault_site_fired_total",
                                       "site", site.name, site.fired);
        body += '\n';
      }
    }
    json::Writer w;
    w.begin_object();
    w.member("format", "prom");
    w.member("body", body);
    w.end_object();
    return w.take();
  }
  json::Writer w;
  w.begin_object();
  w.member("format", "json");
  w.member("enabled", obs::enabled());
  w.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) w.member(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.member(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : snapshot.histograms) {
    w.key(h.name).begin_object();
    w.member("count", h.count);
    w.member("sum", h.sum);
    w.member("max", h.max);
    w.member("p50", h.percentile(50));
    w.member("p90", h.percentile(90));
    w.member("p99", h.percentile(99));
    w.end_object();
  }
  w.end_object();
  w.key("fault_sites").begin_array();
  for (const auto& site : sites) {
    w.begin_object();
    w.member("site", site.name);
    w.member("hits", site.hits);
    w.member("fired", site.fired);
    w.end_object();
  }
  w.end_array();
  w.key("flight").begin_object();
  w.member("active", recorder.active());
  w.member("recorded", recorder.recorded());
  w.member("capacity", static_cast<std::uint64_t>(obs::kFlightCapacity));
  w.end_object();
  w.end_object();
  return w.take();
}

void write_job_rows(json::Writer& w, const std::vector<JobInfo>& rows,
                    std::chrono::steady_clock::time_point now) {
  w.begin_array();
  for (const JobInfo& job : rows) {
    w.begin_object();
    w.member("job", job.job_id);
    if (!job.id_json.empty()) w.key("id").raw(job.id_json);
    w.member("op", job.op);
    if (!job.client.empty()) w.member("client", job.client);
    w.member("state", job_state_name(job.state));
    w.member("phase", job.phase);
    if (!job.outcome.empty()) w.member("outcome", job.outcome);
    if (job.cached) w.member("cached", true);
    w.member("elapsed_ms", job.elapsed_ms(now));
    w.member("heartbeat_age_ms", job.heartbeat_age_ms(now));
    w.end_object();
  }
  w.end_array();
}

/// `jobs` op payload: the in-flight table plus the recently-completed ring.
std::string run_jobs(const JobTable& table) {
  const auto now = std::chrono::steady_clock::now();
  json::Writer w;
  w.begin_object();
  w.key("in_flight");
  write_job_rows(w, table.in_flight(), now);
  w.key("recent");
  write_job_rows(w, table.recent(), now);
  w.end_object();
  return w.take();
}

/// `dump` op payload: the decoded flight-recorder ring, oldest surviving
/// event first. The dump itself is recorded (kind `dump`), so repeated
/// dumps are visible in each other's timelines.
std::string run_dump() {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.record(obs::FlightKind::kDump, 0, "op");
  const std::vector<obs::FlightEvent> events = recorder.snapshot();
  const std::uint64_t recorded = recorder.recorded();
  json::Writer w;
  w.begin_object();
  w.member("active", recorder.active());
  w.member("recorded", recorded);
  w.member("returned", events.size());
  w.member("discarded",
           recorded > events.size() ? recorded - events.size() : 0);
  w.key("events").begin_array();
  for (const obs::FlightEvent& event : events) {
    w.begin_object();
    w.member("t", event.ticket);
    w.member("ns", event.ns);
    if (event.job_id != 0) w.member("job", event.job_id);
    w.member("kind", flight_kind_name(event.kind));
    if (!event.detail.empty()) w.member("detail", event.detail);
    if (event.a != 0) w.member("a", event.a);
    if (event.b != 0) w.member("b", event.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

/// Exactly-once response delivery for the asynchronous path. The shared
/// handle travels inside the job closure; whoever responds first wins, and
/// if nobody does — the worker threw before running the job, or the
/// scheduler dropped the closure at shutdown — the destructor still owes
/// the client a well-formed `internal` error instead of silence.
class ResponseGuard {
 public:
  ResponseGuard(std::string id_json, std::string op,
                std::function<void(const std::string&)> done)
      : id_json_(std::move(id_json)),
        op_(std::move(op)),
        done_(std::move(done)) {}

  ResponseGuard(const ResponseGuard&) = delete;
  ResponseGuard& operator=(const ResponseGuard&) = delete;

  ~ResponseGuard() {
    if (responded_.load(std::memory_order_relaxed)) return;
    c_dropped.add();
    try {
      done_(error_response(id_json_, op_, "internal",
                           "job dropped before producing a response"));
    } catch (...) {
      // Destructors must not throw; a sink that fails here loses only
      // this one response.
    }
  }

  void respond(const std::string& response) {
    bool expected = false;
    if (!responded_.compare_exchange_strong(expected, true)) return;
    done_(response);
  }

 private:
  std::string id_json_;
  std::string op_;
  std::function<void(const std::string&)> done_;
  std::atomic<bool> responded_{false};
};

}  // namespace

/// `health` op payload: one glance at everything that decides whether the
/// next request gets in — RSS vs the shed watermark, queue depth vs
/// capacity, and each worker's current job.
std::string AnalysisService::run_health() const {
  const std::uint64_t rss = obs::current_rss_bytes();
  json::Writer w;
  w.begin_object();
  w.member("rss_bytes", rss);
  w.member("max_rss_bytes",
           static_cast<std::uint64_t>(options_.max_rss_bytes));
  w.member("shedding",
           options_.max_rss_bytes != 0 && rss > options_.max_rss_bytes);
  w.key("queue").begin_object();
  w.member("depth", scheduler_.queue_depth());
  w.member("max", scheduler_.max_queue());
  w.member("active", scheduler_.active_count());
  w.member("retry_hint_ms", scheduler_.retry_hint_ms());
  w.end_object();
  w.key("workers").begin_array();
  for (const JobScheduler::WorkerState& worker :
       scheduler_.worker_states()) {
    w.begin_object();
    w.member("busy", worker.busy);
    if (worker.stalled) w.member("stalled", true);
    if (worker.job_id != 0) w.member("job", worker.job_id);
    if (!worker.label.empty()) w.member("label", worker.label);
    if (worker.busy) w.member("running_ms", worker.running_ms);
    w.end_object();
  }
  w.end_array();
  w.key("cache").begin_object();
  w.member("entries", cache_.entries());
  w.member("bytes", cache_.bytes());
  w.end_object();
  w.member("jobs_in_flight", jobs_.in_flight_count());
  auto& recorder = obs::FlightRecorder::instance();
  w.key("flight").begin_object();
  w.member("active", recorder.active());
  w.member("recorded", recorder.recorded());
  w.end_object();
  const net::ListenerInfo listener = net::listener_info();
  w.key("net").begin_object();
  w.member("listening", listener.listening);
  w.member("draining", listener.draining);
  if (!listener.address.empty()) w.member("address", listener.address);
  w.member("active_connections", listener.conns_active);
  w.member("accepted_connections", listener.conns_accepted);
  w.member("frames", listener.frames);
  w.member("bytes_in", listener.bytes_in);
  w.member("bytes_out", listener.bytes_out);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string AnalysisService::execute(const Request& req) {
  c_requests.add();
  if (!req.valid) {
    return error_response(req.id_json, req.op, req.error_code,
                          req.error_message);
  }
  const auto started = std::chrono::steady_clock::now();
  Timings timings;
  if (req.enqueued != std::chrono::steady_clock::time_point{}) {
    timings.queue_wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            started - req.enqueued)
            .count());
    h_phase_queue_wait.record(timings.queue_wait_us);
  }
  // Install (or, on the async path where the worker already installed it,
  // re-install) the request's trace context: the spans, heartbeats, and
  // flight events below all stamp this job id.
  obs::ScopedTraceContext trace_scope(
      obs::TraceContext{req.job_id, req.op, 0, req.client});
  const bool tracked = req.job_id != 0 && !is_introspection_op(req.op);
  auto& recorder = obs::FlightRecorder::instance();
  if (tracked) {
    recorder.record(obs::FlightKind::kJobStarted, req.job_id, req.op);
    jobs_.on_started(req.job_id);
  }
  // Terminal bookkeeping shared by every return path: the flight recorder
  // and the job table both see exactly one completion per tracked job.
  auto succeed = [&](const std::string& payload, bool cached) {
    std::string response = ok_response(req.id_json, req.op, payload, cached,
                                       now_ms_since(started), &timings);
    if (tracked) {
      recorder.record(obs::FlightKind::kJobCompleted, req.job_id, req.op,
                      cached ? 1 : 0, trace_scope.context().net_hash);
      jobs_.on_finished(req.job_id, JobState::kDone, "ok", cached,
                        req.id_json, req.op, req.client);
    }
    return response;
  };
  auto fail = [&](std::string_view code, std::string_view message,
                  std::uint64_t elapsed_ms = 0) {
    std::string response = error_response(req.id_json, req.op, code, message,
                                          0, elapsed_ms, &timings);
    if (tracked) {
      recorder.record(code == "cancelled" ? obs::FlightKind::kJobCancelled
                                          : obs::FlightKind::kJobErrored,
                      req.job_id, code);
      jobs_.on_finished(req.job_id, JobState::kErrored, code, false,
                        req.id_json, req.op, req.client);
    }
    return response;
  };
  const std::size_t max_states =
      req.max_states != 0 ? req.max_states : options_.max_states;
  obs::Span span("svc." + req.op);
  // Declared outside the try so the failure paths can quarantine the key:
  // a job that ends in Cancelled/LimitError/fault must leave nothing (and
  // conservatively, no stale prior entry) cached under it.
  CacheKey key;
  key.op = req.op;
  try {
    // Introspection — answered from live state, never cached.
    if (req.op == "metrics") {
      c_introspect.add();
      if (req.format != "json" && req.format != "prom") {
        return fail("bad_request", "unknown format: " + req.format);
      }
      return succeed(run_metrics(req.format), false);
    }
    if (req.op == "jobs") {
      c_introspect.add();
      return succeed(run_jobs(jobs_), false);
    }
    if (req.op == "health") {
      c_introspect.add();
      return succeed(run_health(), false);
    }
    if (req.op == "dump") {
      c_introspect.add();
      return succeed(run_dump(), false);
    }
    if (req.op == "history") {
      c_introspect.add();
      return succeed(run_history(req.cursor, req.max_samples), false);
    }
    // Uncached, netless ops.
    if (req.op == "ping") {
      return succeed(run_ping(), false);
    }
    if (req.op == "version") {
      return succeed(run_version(), false);
    }

    // Parse the input and key the request, then one cache-lookup/exec path
    // for every cached op.
    std::optional<PetriNet> net;
    std::optional<Stg> stg;
    if (req.op == "reach" || req.op == "cover" || req.op == "hide") {
      if (req.net_text.empty()) {
        return fail("bad_request",
                    "op '" + req.op + "' needs a 'net' member (.cpn text)");
      }
      net = read_net(req.net_text);
      key.net_hash = canonical_hash(*net);
      trace_scope.context().net_hash = key.net_hash;
      if (req.op == "reach") {
        if (!parse_reach_engine(req.engine)) {
          return fail("bad_request", "unknown engine: " + req.engine);
        }
        // Part of the key: engine choice changes the response's `engine`
        // member, so a forced-dense result must not answer an auto request.
        key.params = "max_states=" + std::to_string(max_states) +
                     ";engine=" + req.engine;
      } else if (req.op == "cover") {
        key.params = "max_nodes=" + std::to_string(max_states);
      } else {
        if (!req.has_labels) {
          return fail("bad_request", "op 'hide' needs a 'labels' array");
        }
        key.params = "labels=" + joined_sorted(req.labels);
      }
    } else if (req.op == "synth") {
      if (req.stg_text.empty()) {
        return fail("bad_request",
                    "op 'synth' needs an 'stg' member (.g text)");
      }
      stg = read_astg(req.stg_text);
      key.net_hash = canonical_hash(stg->net());
      trace_scope.context().net_hash = key.net_hash;
      key.params =
          "outputs=" + joined_sorted(stg->signal_names(SignalKind::kOutput)) +
          ";internal=" +
          joined_sorted(stg->signal_names(SignalKind::kInternal)) +
          ";max_states=" + std::to_string(max_states);
    } else {
      return fail("bad_request", "unknown op: " + req.op);
    }
    if (!req.no_cache) {
      if (tracked) jobs_.on_phase(req.job_id, "cache_lookup");
      const auto lookup_start = std::chrono::steady_clock::now();
      auto hit = cache_.lookup(key);
      timings.cache_lookup_us = us_since(lookup_start);
      h_phase_cache_lookup.record(timings.cache_lookup_us);
      if (hit) {
        return succeed(*hit, true);
      }
    }
    if (tracked) jobs_.on_phase(req.job_id, "exec");
    const auto exec_start = std::chrono::steady_clock::now();
    std::string payload;
    bool truncated = false;
    if (req.op == "reach") {
      payload = run_reach(*net, max_states, options_.max_graph_bytes,
                          *parse_reach_engine(req.engine), req.checkpoint,
                          req.checkpoint_every, req.resume, req.cancel,
                          truncated);
    } else if (req.op == "cover") {
      payload = run_cover(*net, max_states, req.cancel, truncated);
    } else if (req.op == "hide") {
      payload = run_hide(*net, req.labels, req.cancel);
    } else {
      payload = run_synth(*stg, max_states, req.cancel);
    }
    timings.exec_us = us_since(exec_start);
    h_phase_exec.record(timings.exec_us);
    // Truncated results are never memoized — they describe how far *this*
    // run got, not a property of the net.
    if (tracked) jobs_.on_phase(req.job_id, "serialize");
    if (!req.no_cache && !truncated) cache_.insert(key, payload);
    if (truncated) c_truncated.add();
    return succeed(payload, false);
  } catch (const FaultInjected& e) {
    c_faults.add();
    cache_.erase(key);
    recorder.record(obs::FlightKind::kFaultFired, req.job_id, e.site());
    return fail("fault", e.what());
  } catch (const Cancelled& e) {
    c_cancelled.add();
    cache_.erase(key);
    return fail("cancelled", e.what(), e.elapsed_ms());
  } catch (const LimitError& e) {
    cache_.erase(key);
    return fail("limit", e.what(), now_ms_since(started));
  } catch (const ParseError& e) {
    return fail("parse", e.what());
  } catch (const SemanticError& e) {
    return fail("semantic", e.what());
  } catch (const Error& e) {
    cache_.erase(key);
    return fail("internal", e.what());
  } catch (const std::exception& e) {
    cache_.erase(key);
    return fail("internal", e.what());
  }
}

std::string AnalysisService::error_line(const std::string& line,
                                        std::string_view code,
                                        std::string_view message,
                                        std::uint64_t retry_after_ms) const {
  std::string id_json;
  std::string op;
  if (!line.empty() && line.size() <= options_.max_line_bytes) {
    try {
      const json::Value doc = json::parse(line);
      if (doc.is_object()) {
        if (const json::Value* id = doc.find("id")) {
          if (id->type() == json::Value::Type::kString) {
            id_json = "\"" + json::escape(id->as_string()) + "\"";
          } else if (id->type() == json::Value::Type::kNumber) {
            id_json = json::number_to_string(id->as_number());
          }
        }
        op = doc.get_string("op");
      }
    } catch (const ParseError&) {
      // Best-effort echo only: an unparseable line is still rejected with
      // the caller's code, just without id/op correlation.
    }
  }
  return error_response(id_json, op, code, message, retry_after_ms);
}

std::string AnalysisService::handle_line(const std::string& line) {
  Request req = parse_request(line);
  if (req.valid) {
    req.job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t deadline =
      req.deadline_ms != 0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline != 0) {
    req.cancel = CancelToken::with_deadline(std::chrono::milliseconds(deadline));
  }
  return execute(req);
}

SubmitStatus AnalysisService::submit_line(
    const std::string& line, std::function<void(const std::string&)> done,
    const std::string& default_client) {
  Request req = parse_request(line);
  if (req.client.empty()) req.client = default_client;
  if (!req.valid) {
    done(execute(req));
    return SubmitStatus{};
  }
  req.job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  // Introspection bypasses shedding and the queue: `metrics`, `jobs`,
  // `health`, and `dump` exist precisely to diagnose an overloaded
  // service, so they must answer while everything else is rejected.
  if (is_introspection_op(req.op)) {
    req.enqueued = std::chrono::steady_clock::now();
    done(execute(req));
    SubmitStatus status;
    status.accepted = true;
    status.queue_depth = scheduler_.queue_depth();
    return status;
  }
  // Load shedding: above the RSS high watermark, reject before queuing —
  // finishing the jobs already in flight is the only way back under it,
  // and accepting more work just marches the process toward the OOM
  // killer. The retry hint tells clients when to come back.
  if (options_.max_rss_bytes != 0) {
    const std::uint64_t rss = obs::current_rss_bytes();
    if (rss > options_.max_rss_bytes) {
      c_shed.add();
      c_overloaded.add();
      SubmitStatus status;
      status.queue_depth = scheduler_.queue_depth();
      status.retry_after_ms = scheduler_.retry_hint_ms();
      obs::FlightRecorder::instance().record(
          obs::FlightKind::kJobShed, req.job_id, req.op, rss,
          options_.max_rss_bytes);
      jobs_.on_finished(req.job_id, JobState::kShed, "overloaded", false,
                        req.id_json, req.op, req.client);
      done(error_response(req.id_json, req.op, "overloaded",
                          "resident set " + std::to_string(rss) +
                              " bytes over the high watermark; shedding load",
                          status.retry_after_ms));
      return status;
    }
  }
  // The deadline clock starts now, before the queue: a request that waits
  // out its whole budget in a full queue is cancelled, not run late.
  const std::uint64_t deadline =
      req.deadline_ms != 0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline != 0) {
    req.cancel = CancelToken::with_deadline(std::chrono::milliseconds(deadline));
  } else if (options_.scheduler.stall_timeout_ms != 0) {
    // No client deadline, but a watchdog: the job still needs a trippable
    // token or a stalled worker could never be recovered.
    req.cancel = CancelToken::manual();
  }
  req.enqueued = std::chrono::steady_clock::now();
  const Priority priority = req.priority;
  const CancelToken cancel = req.cancel;
  const std::string id_json = req.id_json;  // survive the move below
  const std::string op = req.op;
  const std::uint64_t job_id = req.job_id;
  obs::TraceContext ctx;
  ctx.job_id = job_id;
  ctx.op = op;
  ctx.client = req.client;
  obs::FlightRecorder::instance().record(obs::FlightKind::kJobSubmitted,
                                         job_id, op);
  jobs_.on_submitted(job_id, id_json, op, req.client);
  auto guard = std::make_shared<ResponseGuard>(id_json, op, std::move(done));
  SubmitStatus status = scheduler_.submit(
      [this, req = std::move(req), guard]() { guard->respond(execute(req)); },
      priority, cancel, "svc.job." + op, std::move(ctx));
  if (!status.accepted) {
    c_overloaded.add();
    obs::FlightRecorder::instance().record(obs::FlightKind::kJobRejected,
                                           job_id, op, status.queue_depth);
    jobs_.on_finished(job_id, JobState::kRejected, "overloaded", false);
    guard->respond(error_response(
        id_json, op, "overloaded",
        "queue full (" + std::to_string(status.queue_depth) +
            " pending); retry later",
        status.retry_after_ms));
  }
  return status;
}

namespace {

/// Reads one newline-terminated frame without ever buffering more than
/// `max_bytes`: the over-limit remainder of the line is consumed and
/// discarded, reported through `overflow`. Returns false only at EOF with
/// nothing read.
bool bounded_getline(std::istream& in, std::string& line,
                     std::size_t max_bytes, bool& overflow) {
  line.clear();
  overflow = false;
  std::streambuf* sb = in.rdbuf();
  bool any = false;
  for (;;) {
    const int ch = sb->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return any;
    }
    any = true;
    if (ch == '\n') return true;
    if (line.size() < max_bytes) {
      line.push_back(static_cast<char>(ch));
    } else {
      overflow = true;
    }
  }
}

}  // namespace

std::size_t serve(std::istream& in, std::ostream& out,
                  const ServiceOptions& options) {
  // The `metrics` op reports the live registry, so serving implies
  // instrumentation — enabled without resetting (the CLI may have turned
  // it on already), restored when the loop exits.
  obs::ScopedEnable metrics_on(/*reset=*/false);
  AnalysisService service(options);
  obs::ProgressReporter progress("svc.serve");
  std::mutex out_mutex;
  std::atomic<std::uint64_t> served{0};
  auto emit = [&](const std::string& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response << '\n';
    out.flush();
    served.fetch_add(1, std::memory_order_relaxed);
  };

  std::size_t accepted = 0;
  std::string line;
  bool overflow = false;
  while (bounded_getline(in, line, options.max_line_bytes, overflow)) {
    if (overflow) {
      // The frame was discarded unread, so there is no `id` to echo — but
      // the client still gets a structured rejection, not silence or an
      // unbounded buffer.
      ++accepted;
      c_oversized.add();
      emit(error_response("", "", "bad_request",
                          "request line exceeds " +
                              std::to_string(options.max_line_bytes) +
                              " bytes"));
      continue;
    }
    if (line.empty()) continue;
    ++accepted;
    service.submit_line(line, emit);
    progress.update(served.load(std::memory_order_relaxed),
                    service.scheduler().queue_depth());
  }
  service.drain();
  progress.update(served.load(std::memory_order_relaxed), 0);
  return accepted;
}

}  // namespace cipnet::svc
