#include "common.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>

#include <unistd.h>

#include "io/files.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cipbench {

std::size_t uniform(Rng& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t idx = n - 1;
  if (n >= 11) {
    const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * n)) - 1;
    idx = std::min(p99, n - 11);
  }
  t.value = values[idx];
  t.percentile = static_cast<double>(idx + 1) / static_cast<double>(n);
  t.beyond = n - 1 - idx;
  return t;
}

// ---------------------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  for (Row& row : rows_) {
    if (row.name == name) {
      row = Row{name, value, unit, note};
      return;
    }
  }
  rows_.push_back(Row{name, value, unit, note});
}

void Report::add_tail(const std::string& name, const Tail& t,
                      const std::string& unit) {
  char note[96];
  std::snprintf(note, sizeof note, "p%.2f of n=%zu, %zu beyond",
                100.0 * t.percentile, t.samples, t.beyond);
  add(name, t.value, unit, note);
}

bool Report::has(const std::string& name) const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [&](const Row& r) { return r.name == name; });
}

void Report::print_text() const {
  for (const Row& row : rows_) {
    std::printf("  %-28s %14.6g %-8s %s\n", row.name.c_str(), row.value,
                row.unit.c_str(), row.note.c_str());
  }
}

namespace {

std::string number_text(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::json_metrics(const std::vector<std::string>& keep) const {
  std::string out = "{";
  for (const std::string& name : keep) {
    auto it = std::find_if(rows_.begin(), rows_.end(),
                           [&](const Row& r) { return r.name == name; });
    if (it == rows_.end()) {
      throw std::runtime_error("metric not measured: " + name);
    }
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + number_text(it->value) +
           ",\"unit\":\"" + it->unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------

SpanLog* g_spans = nullptr;

namespace {

/// Spans the program itself emits (obs/trace.h) that the fold keeps as
/// layers of their own when they run inside a benchmark span: the safety
/// prover inside `reach.explore`, explorations inside receptiveness checks
/// and simplification, and so on. Every other program span folds into its
/// nearest kept ancestor.
const std::set<std::string> kProgramLayers = {
    "reach.explore",   "petri.safety_check", "synth.synthesize",
    "circuit.receptiveness", "algebra.hide", "algebra.parallel",
};

}  // namespace

struct SpanLog::ProgramSpans : cipnet::obs::Sink {
  std::mutex mutex;
  std::vector<cipnet::obs::SpanRecord> roots;  // guarded by mutex
  void on_span(const cipnet::obs::SpanRecord& root) override {
    std::lock_guard<std::mutex> lock(mutex);
    roots.push_back(root);
  }
};

SpanLog::SpanLog()
    : epoch_(Clock::now()), program_(std::make_shared<ProgramSpans>()) {
  records_.reserve(1 << 16);
  cipnet::obs::Tracer::instance().add_sink(program_);
}

SpanLog::~SpanLog() { cipnet::obs::Tracer::instance().remove_sink(program_); }

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::size_t SpanLog::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now_ns();
  rec.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  rec.job = job_;
  records_.push_back(std::move(rec));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  records_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  graft_program_spans(index);
}

std::size_t SpanLog::add_closed(const std::string& name, std::uint64_t start_ns,
                                std::uint64_t duration_ns,
                                std::int64_t parent) {
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = start_ns + duration_ns;
  rec.parent = parent;
  rec.job = job_;
  records_.push_back(std::move(rec));
  return records_.size() - 1;
}

void SpanLog::graft_program_spans(std::size_t parent) {
  std::vector<cipnet::obs::SpanRecord> roots;
  {
    std::lock_guard<std::mutex> lock(program_->mutex);
    roots.swap(program_->roots);
  }
  // Program spans that closed while `parent` was the innermost open
  // benchmark span belong under it.
  std::function<void(const cipnet::obs::SpanRecord&, std::size_t)> graft =
      [&](const cipnet::obs::SpanRecord& node, std::size_t under) {
        std::size_t target = under;
        if (kProgramLayers.count(node.name) != 0 &&
            node.name != records_[under].name) {
          target = add_closed(node.name, records_[under].start_ns,
                              node.duration_ns,
                              static_cast<std::int64_t>(under));
        }
        for (const auto& child : node.children) graft(child, target);
      };
  for (const auto& root : roots) graft(root, parent);
}

namespace {

std::map<std::string, double> fold_self_ms(
    const std::vector<SpanRecord>& records, bool by_path) {
  std::vector<std::uint64_t> child_ns(records.size(), 0);
  for (const SpanRecord& rec : records) {
    if (rec.parent >= 0) {
      child_ns[static_cast<std::size_t>(rec.parent)] +=
          rec.end_ns - rec.start_ns;
    }
  }
  // Parents precede their children in the log, so paths build in one pass.
  std::vector<std::string> path(by_path ? records.size() : 0);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& rec = records[i];
    const std::uint64_t dur = rec.end_ns - rec.start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    std::string key = rec.name;
    if (by_path) {
      if (rec.parent >= 0) {
        key = path[static_cast<std::size_t>(rec.parent)] + "/" + rec.name;
      }
      path[i] = key;
    }
    out[key] += static_cast<double>(self) / 1e6;
  }
  return out;
}

}  // namespace

std::map<std::string, double> SpanLog::self_ms() const {
  return fold_self_ms(records_, false);
}

std::map<std::string, double> SpanLog::self_ms_by_path() const {
  return fold_self_ms(records_, true);
}

void SpanLog::print_breakdown(std::size_t jobs, std::size_t top) const {
  const std::map<std::string, double> by_path = self_ms_by_path();
  std::vector<std::pair<double, std::string>> rows;
  double total = 0;
  for (const auto& [path, ms] : by_path) {
    rows.emplace_back(ms, path);
    total += ms;
  }
  std::sort(rows.rbegin(), rows.rend());
  const double n = jobs == 0 ? 1.0 : static_cast<double>(jobs);
  std::printf("self time per job by span path (top %zu of %zu, traced):\n",
              std::min(top, rows.size()), rows.size());
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %10.3f ms %5.1f%%  %s\n", rows[i].first / n,
                total > 0 ? 100.0 * rows[i].first / total : 0.0,
                rows[i].second.c_str());
  }
}

// ---------------------------------------------------------------------------

namespace {

class FormulaParser {
 public:
  FormulaParser(const std::string& text, const KnownAnswers::Vars& vars,
                const KnownAnswers::VecVars& vecs)
      : s_(text), vars_(vars), vecs_(vecs) {}

  std::int64_t parse() {
    std::int64_t v = parse_or();
    skip();
    if (pos_ != s_.size()) fail("trailing text");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("formula '" + s_ + "': " + why);
  }
  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(const char* op) {
    skip();
    const std::string_view o(op);
    if (s_.compare(pos_, o.size(), o) == 0) {
      pos_ += o.size();
      return true;
    }
    return false;
  }
  std::int64_t parse_or() {
    std::int64_t v = parse_and();
    while (eat("||")) v = (parse_and() != 0 || v != 0) ? 1 : 0;
    return v;
  }
  std::int64_t parse_and() {
    std::int64_t v = parse_cmp();
    while (eat("&&")) v = (parse_cmp() != 0 && v != 0) ? 1 : 0;
    return v;
  }
  std::int64_t parse_cmp() {
    std::int64_t v = parse_add();
    if (eat("==")) return v == parse_add();
    if (eat("!=")) return v != parse_add();
    if (eat("<=")) return v <= parse_add();
    if (eat(">=")) return v >= parse_add();
    if (eat("<")) return v < parse_add();
    if (eat(">")) return v > parse_add();
    return v;
  }
  std::int64_t parse_add() {
    std::int64_t v = parse_mul();
    for (;;) {
      if (eat("+")) {
        v += parse_mul();
      } else if (eat("-")) {
        v -= parse_mul();
      } else {
        return v;
      }
    }
  }
  std::int64_t parse_mul() {
    std::int64_t v = parse_unary();
    for (;;) {
      if (eat("*")) {
        v *= parse_unary();
      } else if (eat("/")) {
        const std::int64_t d = parse_unary();
        if (d == 0) fail("division by zero");
        v /= d;
      } else {
        return v;
      }
    }
  }
  std::int64_t parse_unary() {
    if (eat("-")) return -parse_unary();
    if (eat("!")) return parse_unary() == 0;
    std::int64_t base = parse_primary();
    if (eat("^")) {
      const std::int64_t exp = parse_unary();
      if (exp < 0 || exp > 62) fail("exponent out of range");
      std::int64_t v = 1;
      for (std::int64_t i = 0; i < exp; ++i) v *= base;
      return v;
    }
    return base;
  }
  std::int64_t parse_primary() {
    skip();
    if (pos_ >= s_.size()) fail("unexpected end");
    if (eat("(")) {
      std::int64_t v = parse_or();
      if (!eat(")")) fail("missing )");
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      std::int64_t v = 0;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        v = v * 10 + (s_[pos_++] - '0');
      }
      return v;
    }
    const std::string name = ident();
    if (eat("(")) {
      const std::string vec = ident();
      if (!eat(")")) fail("missing )");
      auto it = vecs_.find(vec);
      if (it == vecs_.end()) fail("unknown vector " + vec);
      if (name == "all") {
        return std::all_of(it->second.begin(), it->second.end(),
                           [](std::int64_t x) { return x != 0; });
      }
      if (name == "any") {
        return std::any_of(it->second.begin(), it->second.end(),
                           [](std::int64_t x) { return x != 0; });
      }
      fail("unknown function " + name);
    }
    auto it = vars_.find(name);
    if (it == vars_.end()) fail("unknown variable " + name);
    return it->second;
  }
  std::string ident() {
    skip();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_) fail("expected a name at " + std::to_string(pos_));
    return s_.substr(start, pos_ - start);
  }

  const std::string& s_;
  const KnownAnswers::Vars& vars_;
  const KnownAnswers::VecVars& vecs_;
  std::size_t pos_ = 0;
};

}  // namespace

std::int64_t eval_formula(const std::string& formula,
                          const KnownAnswers::Vars& vars,
                          const KnownAnswers::VecVars& vecs) {
  return FormulaParser(formula, vars, vecs).parse();
}

KnownAnswers::KnownAnswers(const std::string& path)
    : doc_(cipnet::json::parse(cipnet::read_text_file(path))) {}

const cipnet::json::Value& KnownAnswers::at(const std::string& dotted) const {
  const cipnet::json::Value* v = &doc_;
  std::size_t start = 0;
  while (start <= dotted.size()) {
    const std::size_t dot = dotted.find('.', start);
    const std::string key = dotted.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    v = v->find(key);
    if (v == nullptr) {
      throw std::runtime_error("known answer missing: " + dotted);
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return *v;
}


bool KnownAnswers::flag(const std::string& dotted) const {
  return at(dotted).as_bool();
}

std::int64_t KnownAnswers::value(const std::string& dotted,
                                 const Vars& vars) const {
  const cipnet::json::Value& v = at(dotted);
  if (v.type() == cipnet::json::Value::Type::kNumber) {
    return static_cast<std::int64_t>(v.as_number());
  }
  return eval_formula(v.as_string(), vars, {});
}

bool Verdicts::check(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) {
    if (++wrong_ <= 20) {
      std::fprintf(stderr, "cipbench: WRONG %s\n", what.c_str());
    }
  }
  return ok;
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  const std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

std::string spans_path(const Args& args) {
  return exe_dir() + "/../spans-" + args.workload + "-" +
         std::to_string(args.seed) + ".jsonl";
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const SpanRecord& rec : records_) {
    out << "{\"name\":\"" << rec.name << "\",\"start_ns\":" << rec.start_ns
        << ",\"end_ns\":" << rec.end_ns << ",\"parent\":" << rec.parent
        << ",\"job\":" << rec.job << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------

namespace {

constexpr int kSetups = 5;

struct Window {
  std::vector<double> latency_ms;
  std::size_t rounds = 0;
  double wall_ms = 0;  // complete rounds only
  std::size_t good = 0;
  std::size_t failed = 0;
};

}  // namespace

Outcome run_closed_loop(const Args& args, ClosedLoop& loop,
                        Verdicts& verdicts) {
  Outcome out;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    Rng setup_rng(args.seed);
    const auto start = Clock::now();
    loop.setup(setup_rng);
    setups.push_back(ms_since(start) / 1000.0);
  }

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  std::uint64_t job_id = 0;
  auto measure = [&](double seconds) {
    Window w;
    const auto start = Clock::now();
    while (ms_since(start) < seconds * 1000.0) {
      const std::size_t jobs = loop.next_round(rng);
      const auto round_start = Clock::now();
      for (std::size_t i = 0; i < jobs; ++i) {
        if (g_spans != nullptr) g_spans->set_job(++job_id);
        const auto t0 = Clock::now();
        bool ok = false;
        try {
          ok = loop.job(i);
        } catch (const std::exception& e) {
          verdicts.check(false, std::string("job threw: ") + e.what());
        }
        const double lat = ms_since(t0);
        w.latency_ms.push_back(lat);
        if (!ok) {
          ++w.failed;
        } else if (lat <= loop.latency_limit_ms) {
          ++w.good;
        }
      }
      ++w.rounds;
      w.wall_ms += ms_since(round_start);
    }
    return w;
  };

  Report& r = out.report;
  r.add("setup_s", median(setups), "s",
        "median of " + std::to_string(kSetups) + " set-ups");
  Window main_window;
  if (!args.trace) {
    main_window = measure(args.seconds);
  } else {
    // Untraced third, then the traced remainder; the p50 difference is the
    // tracing overhead.
    Window plain = measure(args.seconds / 3);
    SpanLog log;
    g_spans = &log;
    {
      cipnet::obs::ScopedEnable enable;
      main_window = measure(args.seconds - args.seconds / 3);
    }
    g_spans = nullptr;
    const std::size_t jobs = main_window.latency_ms.size();
    loop.layers(r, log.self_ms(), jobs);
    log.print_breakdown(jobs);
    log.write_jsonl(spans_path(args));
    std::printf("spans: %s\n", spans_path(args).c_str());
    r.add("trace.overhead_ms",
          median(main_window.latency_ms) - median(plain.latency_ms), "ms",
          "traced minus untraced job p50");
    out.attempted += plain.latency_ms.size();
    out.failed += plain.failed;
  }
  const Window& w = main_window;
  const std::size_t n = w.latency_ms.size();
  const double secs = w.wall_ms / 1000.0;
  out.attempted += n;
  out.failed += w.failed;
  r.add("jobs_per_s", static_cast<double>(n) / secs, "1/s",
        "n=" + std::to_string(n) + " jobs in " + std::to_string(w.rounds) +
            " rounds");
  char note[64];
  std::snprintf(note, sizeof note, "limit %.0f ms, %zu of %zu jobs",
                loop.latency_limit_ms, w.good, n);
  r.add("goodput_rps", static_cast<double>(w.good) / secs, "1/s", note);
  r.add("job_p50_ms", median(w.latency_ms), "ms",
        "n=" + std::to_string(n));
  r.add_tail("job_p99_ms", tail(w.latency_ms), "ms");
  r.add("error_ratio",
        out.attempted == 0 ? 0.0
                           : static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted),
        "ratio", std::to_string(out.failed) + " of " +
                     std::to_string(out.attempted));
  r.add("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of the benchmark");
  out.correct = verdicts.wrong() == 0;
  return out;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"reach.explore.ms", "ms"},
      {"reach.is_live.ms", "ms"},
      {"reach.props.ms", "ms"},
      {"reach.states_per_s", "1/s"},
      {"reach.graph_bytes_per_state", "B"},
      {"reach.packed_share", "ratio"},
      {"reach.states", "count"},
      {"reach.edges", "count"},
      {"petri.safety_check.ms", "ms"},
      {"petri.canonical_hash.ms", "ms"},
      {"io.read_astg.ms", "ms"},
      {"io.read_net.ms", "ms"},
      {"io.write_net.ms", "ms"},
      {"algebra.parallel.ms", "ms"},
      {"algebra.hide.ms", "ms"},
      {"lang.language.ms", "ms"},
      {"lang.subset.ms", "ms"},
      {"stg.encoding.ms", "ms"},
      {"stg.state_graph.ms", "ms"},
      {"stg.coding.ms", "ms"},
      {"stg.states", "count"},
      {"synth.synthesize.ms", "ms"},
      {"synth.literals", "count"},
      {"circuit.compose.ms", "ms"},
      {"circuit.receptiveness.ms", "ms"},
      {"circuit.simplify.ms", "ms"},
      {"circuit.checks", "count"},
      {"svc.queue_wait.p50_us", "us"},
      {"svc.queue_wait.p99_us", "us"},
      {"svc.cache_lookup.p50_us", "us"},
      {"svc.exec.reach.p50_us", "us"},
      {"svc.exec.cover.p50_us", "us"},
      {"svc.exec.hide.p50_us", "us"},
      {"svc.exec.synth.p50_us", "us"},
      {"svc.serialize.p50_us", "us"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.inflight_dup_misses", "count"},
      {"net.transport.p50_us", "us"},
      {"net.transport.p99_us", "us"},
      {"loadgen.sent", "count"},
      {"loadgen.late.p99_ms", "ms"},
      {"hit_p99_ms", "ms"},
      {"miss_p99_ms", "ms"},
      {"rejected_ratio", "ratio"},
      {"error_ratio", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace cipbench
