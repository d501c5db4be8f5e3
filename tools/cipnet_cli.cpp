// cipnet — command-line front end to the library. Run `cipnet` with no
// arguments for the command table (generated from `kCommands` below).
//
// Files: `.g`/`.astg` are petrify-style STGs, everything else the native
// `.cpn` format.

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/hide.h"
#include "algebra/parallel.h"
#include "circuit/receptive.h"
#include "io/dot.h"
#include "io/files.h"
#include "net/server.h"
#include "obs/benchdata.h"
#include "obs/buildinfo.h"
#include "obs/flight_recorder.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/postmortem.h"
#include "obs/sink_chrome.h"
#include "obs/sink_jsonl.h"
#include "obs/sink_text.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "petri/invariants.h"
#include "petri/siphons.h"
#include "petri/structure.h"
#include "reach/checkpoint.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "sim/simulator.h"
#include "stg/coding.h"
#include "stg/persistency.h"
#include "stg/state_graph.h"
#include "svc/service.h"
#include "synth/synthesize.h"
#include "util/error.h"
#include "util/fault.h"

namespace cipnet::cli {
namespace {

int usage();

/// Split `args` at `-o out`: returns positional args, sets `out`.
std::vector<std::string> split_output(const std::vector<std::string>& args,
                                      std::string& out) {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      out = args[++i];
    } else {
      positional.push_back(args[i]);
    }
  }
  return positional;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  PetriNet net = load_net(args[0]);
  std::printf("net: %s\n", net.summary().c_str());
  StructureClass cls = classify(net);
  std::printf("marked graph: %s, state machine: %s, free choice: %s, "
              "extended free choice: %s\n",
              cls.marked_graph ? "yes" : "no",
              cls.state_machine ? "yes" : "no",
              cls.free_choice ? "yes" : "no",
              cls.extended_free_choice ? "yes" : "no");
  std::printf("strongly connected: %s\n",
              is_strongly_connected(net) ? "yes" : "no");
  try {
    std::printf("bounded: %s\n",
                check_boundedness(net, 200000) == Boundedness::kBounded
                    ? "yes"
                    : "no");
  } catch (const LimitError&) {
    std::printf("bounded: unknown (state limit)\n");
  }
  try {
    auto flows = place_semiflows(net);
    std::printf("place semiflows: %zu, covered: %s\n", flows.size(),
                covered_by_place_semiflows(net) ? "yes" : "no");
  } catch (const LimitError&) {
    std::printf("place semiflows: too many to enumerate\n");
  }
  try {
    auto commoner = check_commoner(net);
    std::printf("Commoner (every min. siphon holds a marked trap): %s\n",
                commoner.holds ? "yes" : "no");
  } catch (const LimitError&) {
    std::printf("Commoner: siphon enumeration too large\n");
  }
  return 0;
}

int cmd_reach(const std::vector<std::string>& args) {
  ReachOptions options;
  options.max_states = 200000;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto numeric = [&](std::size_t& out) {
      if (i + 1 >= args.size()) return false;
      out = static_cast<std::size_t>(
          std::strtoull(args[++i].c_str(), nullptr, 10));
      return true;
    };
    auto text = [&](std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[++i];
      return true;
    };
    if (args[i] == "--max-states" && numeric(options.max_states)) {
    } else if (args[i] == "--checkpoint" && text(options.checkpoint_path)) {
    } else if (args[i] == "--checkpoint-every" &&
               numeric(options.checkpoint_every_states)) {
    } else if (args[i] == "--resume" && text(options.resume_path)) {
    } else if (args[i] == "--crash-after-ckpts" &&
               numeric(options.crash_after_checkpoints)) {
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage();
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.empty() || positional.size() > 2) return usage();
  if (!options.checkpoint_path.empty() &&
      options.checkpoint_every_states == 0) {
    options.checkpoint_every_states = 4096;
  }
  PetriNet net = load_net(positional[0]);
  if (positional.size() == 2) {
    const auto engine = parse_reach_engine(positional[1]);
    if (!engine) {
      std::fprintf(stderr, "unknown engine '%s' (auto|dense)\n",
                   positional[1].c_str());
      return 1;
    }
    options.engine = *engine;
  }
  ReachabilityGraph rg = explore(net, options);
  std::printf("engine: %s\n", to_string(rg.engine()));
  std::printf("states: %zu, edges: %zu\n", rg.state_count(), rg.edge_count());
  // Content digest of the full graph (markings + edges): two runs built
  // the same graph iff these lines match — what resume_smoke.sh diffs
  // across kill/resume runs and engines.
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(graph_digest(rg)));
  std::printf("safe: %s, max tokens in a place: %u\n",
              is_safe(rg) ? "yes" : "no", max_tokens_in_any_place(rg));
  auto deadlocks = deadlock_states(rg);
  std::printf("deadlock states: %zu\n", deadlocks.size());
  std::printf("live (L4): %s, dead transitions: %zu\n",
              is_live(net, rg) ? "yes" : "no",
              dead_transitions(net, rg).size());
  return 0;
}

int cmd_lang(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  PetriNet net = load_net(args[0]);
  TraceEnumOptions options;
  if (args.size() == 2) options.max_length = std::strtoul(args[1].c_str(), nullptr, 10);
  for (const Trace& t : bounded_language(net, options)) {
    std::printf("%s\n", trace_to_string(t).c_str());
  }
  return 0;
}

int cmd_dot(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  std::printf("%s", to_dot(load_net(args[0]), args[0]).c_str());
  return 0;
}

int cmd_compose(const std::vector<std::string>& raw) {
  std::string out;
  auto args = split_output(raw, out);
  if (args.size() != 2 || out.empty()) return usage();
  PetriNet composed = parallel_net(load_net(args[0]), load_net(args[1]));
  save_net(out, composed, "composed");
  std::printf("wrote %s: %s\n", out.c_str(), composed.summary().c_str());
  return 0;
}

int run_hide(const std::vector<std::string>& raw, bool project_mode) {
  std::string out;
  auto args = split_output(raw, out);
  if (args.size() < 2 || out.empty()) return usage();
  PetriNet net = load_net(args[0]);
  std::vector<std::string> labels(args.begin() + 1, args.end());
  HideOptions options;
  options.epsilon_fallback = true;
  options.simplify_places_between_contractions = true;
  PetriNet result = project_mode ? project(net, labels, options)
                                 : hide_actions(net, labels, options);
  save_net(out, result, project_mode ? "projected" : "hidden");
  std::printf("wrote %s: %s\n", out.c_str(), result.summary().c_str());
  return 0;
}

int cmd_hide(const std::vector<std::string>& raw) {
  return run_hide(raw, /*project_mode=*/false);
}

int cmd_project(const std::vector<std::string>& raw) {
  return run_hide(raw, /*project_mode=*/true);
}

int cmd_expr(const std::vector<std::string>& raw) {
  std::string out;
  auto args = split_output(raw, out);
  if (args.size() != 1 || out.empty()) return usage();
  PetriNet net = net_from_expression(args[0]);
  save_net(out, net, "expr");
  std::printf("wrote %s: %s\n", out.c_str(), net.summary().c_str());
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  Circuit c1 = Circuit::from_stg(args[0], load_stg(args[0]));
  Circuit c2 = Circuit::from_stg(args[1], load_stg(args[1]));
  auto report = check_receptiveness(c1, c2, {200000});
  std::printf("sync transitions checked: %zu\n", report.checked_transitions);
  if (report.receptive()) {
    std::printf("receptive: the composition is consistent\n");
    return 0;
  }
  ComposeResult composed = compose(c1, c2);
  for (const auto& f : report.failures) {
    std::printf("FAILURE %s (output of %s)", f.label.c_str(),
                f.output_on_left ? args[0].c_str() : args[1].c_str());
    if (f.firing_sequence) {
      std::printf("  after:");
      for (TransitionId t : *f.firing_sequence) {
        std::printf(" %s", composed.circuit.net().transition_label(t).c_str());
      }
    }
    std::printf("\n");
  }
  return 1;
}

int cmd_synth(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  Stg stg = load_stg(args[0]);
  auto initial = infer_initial_encoding(stg);
  if (!initial) {
    std::printf("no consistent initial encoding\n");
    return 1;
  }
  StateGraph sg = build_state_graph(stg, *initial);
  std::printf("state graph: %zu states, consistent: %s\n", sg.state_count(),
              sg.is_consistent() ? "yes" : "no");
  std::vector<std::string> outputs = stg.signal_names(SignalKind::kOutput);
  for (const auto& s : stg.signal_names(SignalKind::kInternal)) {
    outputs.push_back(s);
  }
  auto coding = check_coding(sg, outputs);
  std::printf("USC conflicts: %zu, CSC conflicts: %zu\n",
              coding.conflicts.size(), coding.csc_count());
  auto persistency = check_output_persistency(sg, outputs);
  std::printf("output persistency violations: %zu\n",
              persistency.violations.size());
  if (coding.has_csc_violation()) {
    std::printf("not synthesizable without state encoding\n");
    return 1;
  }
  auto result = synthesize(sg, outputs);
  std::printf("%s", result.to_string().c_str());
  return 0;
}

int cmd_sim(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 3) return usage();
  PetriNet net = load_net(args[0]);
  std::size_t steps =
      args.size() > 1 ? std::strtoul(args[1].c_str(), nullptr, 10) : 20;
  std::uint64_t seed =
      args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 1;
  Simulator sim(net, seed);
  WalkResult walk = sim.random_walk(steps);
  std::printf("%s\n", trace_to_string(walk.trace).c_str());
  std::printf("final marking: %s%s\n", walk.final_marking.to_string().c_str(),
              walk.deadlocked ? " (deadlock)" : "");
  return 0;
}

int cmd_profile(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  PetriNet net = load_net(args[0]);

  // `profile` always instruments, independent of --stats/--trace-out (those
  // enabled earlier stay enabled; the counters restart for a clean run).
  obs::ScopedEnable enable(/*reset=*/true);
  auto tree_sink = std::make_shared<obs::TextSink>(std::cout);
  obs::Tracer::instance().add_sink(tree_sink);

  std::size_t states = 0, edges = 0, deadlocks = 0;
  {
    obs::Span root("profile");
    {
      // explore() opens the nested `reach.explore` span itself.
      ReachabilityGraph rg = explore(net, {200000});
      states = rg.state_count();
      edges = rg.edge_count();
      deadlocks = deadlock_states(rg).size();
    }
    {
      obs::Span structural("profile.structure");
      {
        obs::Span s("structure.classify");
        classify(net);
      }
      {
        obs::Span s("structure.scc");
        is_strongly_connected(net);
      }
      try {
        obs::Span s("structure.semiflows");
        place_semiflows(net);
      } catch (const LimitError&) {
      }
      try {
        obs::Span s("structure.siphons");
        check_commoner(net);
      } catch (const LimitError&) {
      }
    }
  }
  obs::Tracer::instance().remove_sink(tree_sink);

  std::printf("states: %zu, edges: %zu, deadlock states: %zu\n", states,
              edges, deadlocks);
  std::printf("%s",
              obs::render_text_report(obs::Registry::instance().snapshot())
                  .c_str());
  return 0;
}

int cmd_bench(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  PetriNet net = load_net(args[0]);
  const long reps =
      args.size() == 2 ? std::strtol(args[1].c_str(), nullptr, 10) : 5;
  if (reps <= 0) return usage();
  // Same BENCH_META/BENCH_ROW protocol as the bench binaries, so the output
  // pipes straight into `bench_report aggregate`.
  std::printf("BENCH_META %s\n",
              obs::bench_meta_json("cipnet-bench", args[0]).c_str());
  for (long rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ReachabilityGraph rg = explore(net, {200000});
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("BENCH_ROW %s\n",
                obs::bench_row_json("explore/" + args[0], rg.state_count(),
                                    wall_s)
                    .c_str());
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& raw) {
  std::string out_path;
  std::string format = "text";
  std::vector<std::string> files;
  const auto positional = split_output(raw, out_path);
  for (std::size_t i = 0; i < positional.size(); ++i) {
    if (positional[i] == "--format" && i + 1 < positional.size()) {
      format = positional[++i];
    } else {
      files.push_back(positional[i]);
    }
  }
  if (files.empty()) return usage();
  obs::PostMortemBuilder builder;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::size_t recognized = builder.ingest(path, text.str());
    std::fprintf(stderr, "report: %s: %zu line(s)\n", path.c_str(),
                 recognized);
  }
  const std::string rendered =
      obs::render_postmortem(builder.finish(), format);
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << rendered;
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}

/// The running TCP server, for the SIGTERM/SIGINT graceful-drain handler.
/// `request_drain` is async-signal-safe (atomic store + eventfd write).
std::atomic<net::Server*> g_serve_server{nullptr};

void serve_drain_signal(int) {
  if (net::Server* server = g_serve_server.load(std::memory_order_relaxed)) {
    server->request_drain();
  }
}

int cmd_serve(const std::vector<std::string>& args) {
  net::ServerOptions server_options;
  svc::ServiceOptions& options = server_options.service;
  options.scheduler.workers = 8;
  bool tcp = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto numeric = [&](std::uint64_t& out) {
      if (i + 1 >= args.size()) return false;
      out = std::strtoull(args[++i].c_str(), nullptr, 10);
      return true;
    };
    std::uint64_t v = 0;
    if (args[i] == "--flight-dump" && i + 1 < args.size()) {
      obs::FlightRecorder::instance().set_dump_path(args[++i]);
    } else if (args[i] == "--listen" && i + 1 < args.size()) {
      std::string error;
      if (!net::parse_hostport(args[++i], server_options.host,
                               server_options.port, error)) {
        std::fprintf(stderr, "error: --listen: %s\n", error.c_str());
        return 2;
      }
      tcp = true;
    } else if (args[i] == "--stdio") {
      tcp = false;
    } else if (args[i] == "--workers" && numeric(v)) {
      options.scheduler.workers = static_cast<std::size_t>(v);
    } else if (args[i] == "--queue" && numeric(v)) {
      options.scheduler.max_queue = static_cast<std::size_t>(v);
    } else if (args[i] == "--cache-mb" && numeric(v)) {
      options.cache.max_bytes = static_cast<std::size_t>(v) << 20;
    } else if (args[i] == "--ttl-ms" && numeric(v)) {
      options.cache.ttl = std::chrono::milliseconds(v);
    } else if (args[i] == "--cache-dir" && i + 1 < args.size()) {
      options.cache_dir = args[++i];
    } else if (args[i] == "--checkpoint-dir" && i + 1 < args.size()) {
      options.checkpoint_dir = args[++i];
    } else if (args[i] == "--deadline-ms" && numeric(v)) {
      options.default_deadline_ms = v;
    } else if (args[i] == "--max-states" && numeric(v)) {
      options.max_states = static_cast<std::size_t>(v);
    } else if (args[i] == "--max-graph-mb" && numeric(v)) {
      options.max_graph_bytes = static_cast<std::size_t>(v) << 20;
    } else if (args[i] == "--max-rss-mb" && numeric(v)) {
      options.max_rss_bytes = static_cast<std::size_t>(v) << 20;
    } else if (args[i] == "--stall-ms" && numeric(v)) {
      options.scheduler.stall_timeout_ms = v;
    } else if (args[i] == "--max-line-bytes" && numeric(v)) {
      options.max_line_bytes = static_cast<std::size_t>(v);
    } else if (args[i] == "--max-conn-jobs" && numeric(v)) {
      server_options.quota.max_inflight_jobs = static_cast<std::size_t>(v);
    } else if (args[i] == "--max-conn-bytes" && numeric(v)) {
      server_options.quota.max_pending_bytes = static_cast<std::size_t>(v);
    } else if (args[i] == "--idle-ms" && numeric(v)) {
      server_options.idle_timeout_ms = v;
    } else if (args[i] == "--max-conns" && numeric(v)) {
      server_options.max_connections = static_cast<std::size_t>(v);
    } else {
      return usage();
    }
  }
  if (tcp) {
    net::Server server(std::move(server_options));
    if (!server.start()) {
      std::fprintf(stderr, "error: %s\n", server.error().c_str());
      return 1;
    }
    // Line-buffered and flushed before run(): harnesses block on this line
    // to learn the ephemeral port.
    std::fprintf(stderr, "listening on %s\n", server.address().c_str());
    std::fflush(stderr);
    g_serve_server.store(&server, std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_handler = serve_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    server.run();
    g_serve_server.store(nullptr, std::memory_order_relaxed);
    std::fprintf(stderr, "drained: served %llu frames over %llu connections\n",
                 static_cast<unsigned long long>(server.frames_accepted()),
                 static_cast<unsigned long long>(server.conns_accepted()));
  } else {
    const std::size_t served = svc::serve(std::cin, std::cout, options);
    std::fprintf(stderr, "served %zu requests\n", served);
  }
  // With a dump path configured, leave the final timeline behind on clean
  // exit too — post-mortems shouldn't require a crash.
  if (!obs::FlightRecorder::instance().dump_path().empty()) {
    obs::FlightRecorder::instance().auto_dump("serve-exit");
  }
  return 0;
}

/// The single source of truth for commands: dispatch, usage text, and the
/// README table all derive from this.
struct Command {
  const char* name;
  const char* args;
  const char* help;
  int (*fn)(const std::vector<std::string>&);
};

constexpr Command kCommands[] = {
    {"info", "<file>", "net summary + structural analysis", cmd_info},
    {"reach", "<file> [auto|dense] [--checkpoint F] [--resume F]",
     "state space, deadlocks, safety", cmd_reach},
    {"lang", "<file> [maxlen]", "bounded trace language", cmd_lang},
    {"dot", "<file>", "GraphViz export to stdout", cmd_dot},
    {"compose", "<a> <b> -o <out>", "parallel composition (Def 4.7)",
     cmd_compose},
    {"hide", "<file> <label>... -o <out>", "hiding (Def 4.10)", cmd_hide},
    {"project", "<file> <label>... -o <out>", "keep only the given labels",
     cmd_project},
    {"expr", "\"<expression>\" -o <out>", "build a net from a process term",
     cmd_expr},
    {"check", "<a.g> <b.g>", "receptiveness (Props 5.5/5.6)", cmd_check},
    {"synth", "<file.g>", "consistency, CSC, next-state logic", cmd_synth},
    {"sim", "<file> [steps] [seed]", "random token-game walk", cmd_sim},
    {"profile", "<file>", "explore + structural analysis with span tree",
     cmd_profile},
    {"bench", "<file> [reps]", "time explore over reps (BENCH_ROW lines)",
     cmd_bench},
    {"report", "<artifact>... [--format F] [-o out]",
     "post-mortem from trace/flight/sample artifacts", cmd_report},
    {"serve", "[--listen HOST:PORT] [--workers N] [--queue N] ...",
     "NDJSON analysis service, stdio or TCP (docs/SERVICE.md)",
     cmd_serve},
};

int usage() {
  std::fprintf(stderr, "usage: cipnet <command> [args...] [flags]\n\n");
  std::fprintf(stderr, "commands:\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-8s %-28s %s\n", c.name, c.args, c.help);
  }
  std::fprintf(stderr,
               "\nglobal flags (any command):\n"
               "  --version           print build provenance (git SHA, "
               "compiler, build type)\n"
               "  --stats             print the metrics report to stderr on "
               "exit\n"
               "  --trace-out <file>  write the span trace: .jsonl = JSON "
               "lines, anything\n"
               "                      else = Chrome trace JSON (load in "
               "ui.perfetto.dev)\n"
               "  --progress          heartbeats on stderr during long "
               "explorations\n"
               "  --sample-ms <n>     sample metrics + RSS every n ms "
               "(CIPNET_SAMPLE_MS)\n"
               "  --samples-out <f>   stream samples as JSON lines "
               "(CIPNET_SAMPLES_OUT)\n"
               "  --flight-dump <f>   route flight-recorder dumps (crash or "
               "serve exit) to f\n"
               "  --fault-spec <s>    seeded fault injection, e.g. "
               "'seed=1;reach.cancel=p0.1'\n"
               "                      (docs/RESILIENCE.md; overrides "
               "CIPNET_FAULT_SPEC)\n");
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // `--version` anywhere wins: print build provenance and exit, so server
  // deployments are identifiable from logs without running a command.
  for (const std::string& arg : args) {
    if (arg == "--version") {
      std::printf("cipnet %s (%s, %s)\n", obs::build_git_sha(),
                  obs::build_compiler(), obs::build_type());
      std::printf("features: %s, sanitizer: %s\n", obs::build_features(),
                  obs::build_sanitizer());
      return 0;
    }
  }

  // Strip the global observability flags wherever they appear.
  bool stats = false;
  bool progress = false;
  std::string trace_out;
  std::string fault_spec;
  bool have_fault_spec = false;
  std::string sample_ms;
  std::string samples_out;
  std::string flight_dump;
  for (std::size_t i = 0; i < args.size();) {
    auto take_value = [&](std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return true;
    };
    if (args[i] == "--stats") {
      stats = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (args[i] == "--progress") {
      progress = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (args[i] == "--trace-out" && i + 1 < args.size()) {
      take_value(trace_out);
    } else if (args[i] == "--sample-ms" && i + 1 < args.size()) {
      take_value(sample_ms);
    } else if (args[i] == "--samples-out" && i + 1 < args.size()) {
      take_value(samples_out);
    } else if (args[i] == "--flight-dump" && i + 1 < args.size()) {
      take_value(flight_dump);
    } else if (args[i] == "--fault-spec" && i + 1 < args.size()) {
      take_value(fault_spec);
      have_fault_spec = true;
    } else {
      ++i;
    }
  }
  if (args.empty()) return usage();
  // The CLI flag overrides any CIPNET_FAULT_SPEC loaded from the
  // environment; a bad spec is a hard error (typos must not silently
  // disable injection).
  if (have_fault_spec) fault::configure(fault_spec);

  // Every command gets the fatal-signal flight dump, not just `serve`: a
  // crashed analysis should leave its timeline at --flight-dump (or stderr).
  if (!flight_dump.empty()) {
    obs::FlightRecorder::instance().set_dump_path(flight_dump);
  }
  obs::FlightRecorder::instance().install_crash_handler();

  // Time-series sampling: --sample-ms N (fallback CIPNET_SAMPLE_MS) turns
  // the background sampler on; --samples-out (fallback CIPNET_SAMPLES_OUT)
  // streams each sample as a JSONL line.
  obs::SamplerOptions sampler_options;
  bool sampling = false;
  if (!sample_ms.empty()) {
    sampler_options.interval_ms = std::strtoull(sample_ms.c_str(), nullptr, 10);
    sampling = sampler_options.interval_ms > 0;
  } else if (const char* env = std::getenv("CIPNET_SAMPLE_MS")) {
    sampler_options.interval_ms = std::strtoull(env, nullptr, 10);
    sampling = sampler_options.interval_ms > 0;
  }
  if (!samples_out.empty()) {
    sampler_options.jsonl_path = samples_out;
  } else if (const char* env = std::getenv("CIPNET_SAMPLES_OUT")) {
    sampler_options.jsonl_path = env;
  }

  std::optional<obs::ScopedEnable> enable;
  if (stats || !trace_out.empty() || sampling) enable.emplace();
  if (sampling && !obs::TimeSeriesSampler::instance().start(sampler_options)) {
    std::fprintf(stderr, "error: cannot start sampler (samples-out \"%s\")\n",
                 sampler_options.jsonl_path.c_str());
    return 1;
  }
  // The trace file extension picks the sink: `.jsonl` streams span/counter
  // JSON lines, anything else writes Chrome trace-event JSON for Perfetto.
  std::ofstream trace_file;
  std::shared_ptr<obs::JsonlSink> jsonl;
  std::shared_ptr<obs::ChromeSink> chrome;
  if (!trace_out.empty()) {
    trace_file.open(trace_out);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_out.c_str());
      return 1;
    }
    if (trace_out.ends_with(".jsonl")) {
      jsonl = std::make_shared<obs::JsonlSink>(trace_file);
      obs::Tracer::instance().add_sink(jsonl);
    } else {
      chrome = std::make_shared<obs::ChromeSink>(trace_file);
      obs::Tracer::instance().add_sink(chrome);
    }
  }

  // Progress listeners: a stderr renderer for --progress, and a mirror into
  // the JSONL trace when one is open. Registering any listener activates
  // the ProgressBus, so the in-loop reporters start publishing.
  std::vector<int> progress_listeners;
  if (progress) {
    progress_listeners.push_back(obs::ProgressBus::instance().add_listener(
        [](const obs::ProgressEvent& ev) {
          std::string eta;
          if (ev.target != 0 && ev.eta_ms != 0 && !ev.final_event) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), ", eta %.1fs",
                          static_cast<double>(ev.eta_ms) / 1000.0);
            eta = buf;
          }
          std::fprintf(
              stderr,
              "[%s] %llu items, frontier %llu, %.0f/s, %.1fs%s, rss %.1f "
              "MiB%s\n",
              ev.phase.c_str(), static_cast<unsigned long long>(ev.items),
              static_cast<unsigned long long>(ev.frontier), ev.items_per_sec,
              static_cast<double>(ev.elapsed_ms) / 1000.0, eta.c_str(),
              static_cast<double>(ev.peak_rss_bytes) / (1024.0 * 1024.0),
              ev.final_event ? " (done)" : "");
        }));
  }
  if (jsonl) {
    progress_listeners.push_back(obs::ProgressBus::instance().add_listener(
        [jsonl](const obs::ProgressEvent& ev) { jsonl->write_progress(ev); }));
  }

  const std::string command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  const Command* chosen = nullptr;
  for (const Command& c : kCommands) {
    if (command == c.name) chosen = &c;
  }
  if (!chosen) return usage();
  // Errors are reported here (not in main) so the stats/trace epilogue
  // still runs — a LimitError plus its counter report is the whole point.
  int rc;
  try {
    rc = chosen->fn(rest);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  for (int id : progress_listeners) {
    obs::ProgressBus::instance().remove_listener(id);
  }
  // Stop sampling before snapshotting so the close-out sample (and the last
  // exported JSONL line) precedes the final counters report.
  if (sampling) obs::TimeSeriesSampler::instance().stop();
  // Stamp real process memory into the registry so the reports carry it.
  if (enable) obs::Gauge("mem.peak_rss_bytes").set(obs::peak_rss_bytes());
  if (jsonl) {
    obs::Tracer::instance().remove_sink(jsonl);
    jsonl->write_counters(obs::Registry::instance().snapshot());
  }
  if (chrome) {
    obs::Tracer::instance().remove_sink(chrome);
    chrome->finish();
  }
  if (stats) {
    std::fputs(
        obs::render_text_report(obs::Registry::instance().snapshot()).c_str(),
        stderr);
  }
  return rc;
}

}  // namespace
}  // namespace cipnet::cli

int main(int argc, char** argv) {
  try {
    return cipnet::cli::run(argc, argv);
  } catch (const cipnet::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
