// cipbench: runs one named workload against the cipnet library or the
// `cipnet serve --listen` server and prints every metric by name and unit,
// then one JSON result line:
//
//   cipbench --workload state_space|design_flow|serve_mix --seed N
//            --seconds S --trace 0|1 --root CHECKOUT
//
// `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
// around every layer call and prints the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",    "jobs_per_s", "goodput_rps",
    "job_p50_ms", "job_p99_ms", "peak_rss_mb",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cipbench: %s\nusage: cipbench --workload "
               "state_space|design_flow|serve_mix --seed N --seconds S "
               "--trace 0|1 --root DIR\n",
               why);
  std::exit(2);
}

cipbench::Args parse_args(int argc, char** argv) {
  cipbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.root.empty()) usage("missing arguments");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const cipbench::Args args = parse_args(argc, argv);
  try {
    const cipbench::KnownAnswers known(args.root +
                                       "/cipbench/known_answers.json");
    cipbench::Outcome out;
    if (args.workload == "state_space") {
      out = cipbench::run_state_space(args, known);
    } else if (args.workload == "design_flow") {
      out = cipbench::run_design_flow(args, known);
    } else if (args.workload == "serve_mix") {
      out = cipbench::run_serve_mix(args, known);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }

    std::vector<std::string> keep;
    if (args.trace) {
      for (const auto& m : cipbench::layer_metrics()) {
        if (!out.report.has(m.name)) {
          out.report.add(m.name, 0.0, m.unit, "not on this workload's path");
        }
        keep.push_back(m.name);
      }
    } else {
      keep = kEndToEnd;
    }
    std::printf("%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    out.report.print_text();
    const std::string metrics = out.report.json_metrics(keep);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false", out.attempted, out.failed,
                metrics.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cipbench: %s\n", e.what());
    return 1;
  }
}
