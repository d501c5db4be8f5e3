// Shared pieces of the cipbench driver: command-line arguments, timing and
// percentile helpers, the metric report, the in-memory span log behind the
// traced run, and the hand-written known-answer file.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "util/json.h"

namespace cipbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;  // checkout root: data/, cipbench/, .bench_build/
};

/// Seeded generator; every input of a run derives from `Args::seed`.
using Rng = std::mt19937_64;

[[nodiscard]] std::size_t uniform(Rng& rng, std::size_t lo, std::size_t hi);

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  std::shuffle(items.begin(), items.end(), rng);
}

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it. `percentile` is in [0, 1]; with fewer than eleven
/// samples the maximum is reported and `beyond` is below ten.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// Metrics of one run, printed once as aligned text and once as the last
/// JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void add_tail(const std::string& name, const Tail& t,
                const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  void print_text() const;
  /// `{"name":{"value":v,"unit":u},...}` over the metrics named in `keep`,
  /// in that order; a name with no value is an error.
  [[nodiscard]] std::string json_metrics(
      const std::vector<std::string>& keep) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// Traced run: spans recorded by the benchmark around its calls into each
// layer, kept in memory and folded into self time per span name at the end.

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the log, -1 for a job root
  std::uint64_t job = 0;
};

class SpanLog {
 public:
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name);
  void close(std::size_t index);
  /// Adds a finished span with a known duration under `parent`.
  std::size_t add_closed(const std::string& name, std::uint64_t start_ns,
                         std::uint64_t duration_ns, std::int64_t parent);
  void set_job(std::uint64_t job) { job_ = job; }

  /// Self time per span name: each span's duration minus the part its
  /// children cover, summed over the log, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// The same fold keyed by the span's path from its job root
  /// (`circuit.receptiveness/reach.explore/petri.safety_check`).
  [[nodiscard]] std::map<std::string, double> self_ms_by_path() const;
  /// Prints the `top` largest self times by path, per job.
  void print_breakdown(std::size_t jobs, std::size_t top = 16) const;
  /// Writes every span as one JSON line, for tools that diff traces.
  void write_jsonl(const std::string& path) const;

 private:
  struct ProgramSpans;
  [[nodiscard]] std::uint64_t now_ns() const;
  void graft_program_spans(std::size_t parent);

  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
  std::uint64_t job_ = 0;
  Clock::time_point epoch_;
  std::shared_ptr<ProgramSpans> program_;
};

/// The active log, or null in an untraced run (spans are then inert).
extern SpanLog* g_spans;

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name)
      : index_(g_spans != nullptr ? g_spans->open(name) : kNone) {}
  ~Span() {
    if (index_ != kNone && g_spans != nullptr) g_spans->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t index_;
};

// ---------------------------------------------------------------------------
// Known answers.

/// The hand-written known-answer file (cipbench/known_answers.json). Family
/// answers are formulas over the family's parameters, evaluated by a small
/// integer/boolean expression evaluator: + - * / ^, comparisons, && || !,
/// parentheses, and all(v)/any(v) over a vector variable.
class KnownAnswers {
 public:
  explicit KnownAnswers(const std::string& path);

  using Vars = std::map<std::string, std::int64_t>;
  using VecVars = std::map<std::string, std::vector<std::int64_t>>;

  [[nodiscard]] const cipnet::json::Value& at(const std::string& dotted) const;
  [[nodiscard]] bool flag(const std::string& dotted) const;
  /// The number at `dotted`, or the formula there evaluated over `vars`.
  [[nodiscard]] std::int64_t value(const std::string& dotted,
                                   const Vars& vars = {}) const;

 private:
  cipnet::json::Value doc_;
};

[[nodiscard]] std::int64_t eval_formula(const std::string& formula,
                                        const KnownAnswers::Vars& vars,
                                        const KnownAnswers::VecVars& vecs);

/// Counts checked verdicts; the first mismatches are printed to stderr.
class Verdicts {
 public:
  /// Records one comparison; returns `ok`.
  bool check(bool ok, const std::string& what);
  template <typename A, typename B>
  bool expect_eq(const A& got, const B& want, const std::string& what) {
    return check(static_cast<std::int64_t>(got) ==
                     static_cast<std::int64_t>(want),
                 what + ": got " + std::to_string(static_cast<long long>(got)) +
                     ", want " + std::to_string(static_cast<long long>(want)));
  }
  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t wrong() const { return wrong_; }

 private:
  std::size_t checked_ = 0;
  std::size_t wrong_ = 0;
};

/// Compares one result's fields with the known answers under `prefix`
/// (e.g. "families.two_token_ring."), labelling mismatches with `what`.
class Expect {
 public:
  Expect(Verdicts& verdicts, const KnownAnswers& known, std::string prefix,
         std::string what, KnownAnswers::Vars vars = {})
      : verdicts_(verdicts),
        known_(known),
        prefix_(std::move(prefix)),
        what_(std::move(what)),
        vars_(std::move(vars)) {}

  /// `got` equals the number or formula at `key`.
  bool eq(std::int64_t got, const std::string& key) const {
    return verdicts_.expect_eq(got, known_.value(prefix_ + key, vars_),
                               what_ + " " + key);
  }
  /// `got` equals the boolean at `key`.
  bool is(bool got, const std::string& key) const {
    return verdicts_.check(got == known_.flag(prefix_ + key),
                           what_ + " " + key);
  }

 private:
  Verdicts& verdicts_;
  const KnownAnswers& known_;
  std::string prefix_;
  std::string what_;
  KnownAnswers::Vars vars_;
};

/// VmHWM of a process (`self` or a pid) in MiB, from /proc/<pid>/status.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

/// The directory holding this executable (the build's `bin/`).
[[nodiscard]] std::string exe_dir();

/// Where a traced run leaves its spans: next to the build, one file per
/// workload and seed.
[[nodiscard]] std::string spans_path(const Args& args);

// ---------------------------------------------------------------------------
// One workload run.

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // failed + rejected + wrong verdicts
  Report report;
};

/// The closed-loop shape shared by `state_space` and `design_flow`: set up
/// `kSetups` times (the median is `setup_s`), then run rounds of jobs
/// until the time is spent. A round is a seeded permutation of fixed strata;
/// only complete rounds are counted, so every run measures the same mix.
struct ClosedLoop {
  /// Builds the inputs; called once per set-up repetition.
  std::function<void(Rng&)> setup;
  /// The jobs of the next round (indices passed to `job`).
  std::function<std::size_t(Rng&)> next_round;
  /// Runs job `i` of the current round; returns false on a wrong verdict
  /// or failure (already recorded in `verdicts`).
  std::function<bool(std::size_t)> job;
  /// Per-layer metrics of the traced window.
  std::function<void(Report&, const std::map<std::string, double>& self_ms,
                     std::size_t jobs)>
      layers;
  double latency_limit_ms = 0;
};

[[nodiscard]] Outcome run_closed_loop(const Args& args, ClosedLoop& loop,
                                      Verdicts& verdicts);

[[nodiscard]] Outcome run_state_space(const Args& args,
                                      const KnownAnswers& known);
[[nodiscard]] Outcome run_design_flow(const Args& args,
                                      const KnownAnswers& known);
[[nodiscard]] Outcome run_serve_mix(const Args& args,
                                    const KnownAnswers& known);

/// Every per-layer metric the benchmark defines, in BENCHMARK.json order.
/// A traced run prints all of them; a layer a workload does not exercise
/// reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

}  // namespace cipbench
