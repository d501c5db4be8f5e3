// E8 — the paper's complexity claims (Sections 1, 4, 5.3):
//   * "These methods all operate at the Petri net level, which avoids
//     potential state space explosion problems encountered by state based
//     techniques."
//   * "Many properties can be checked structurally for marked graphs and
//     free-choice nets in polynomial time, but which require exponential
//     time for general Petri nets."
//
// Report: a table of N-stage concurrent systems showing net size (linear
// in N) against state count (exponential in N), with wall-clock for the
// net-level composition vs state-space construction; and marked-graph
// liveness/safeness via the structural Murata checks vs via reachability.
//
// Benchmarks: the same comparisons as google-benchmark sweeps.

#include <chrono>

#include "algebra/parallel.h"
#include "bench_util.h"
#include "petri/marked_graph.h"
#include "reach/properties.h"
#include "reach/reachability.h"

namespace cipnet {
namespace {

using benchutil::cycle_chain;

/// N independent 2-state cycles composed in parallel: |states| = 2^N while
/// the net has 2N places.
PetriNet independent_cycles(std::size_t n) {
  PetriNet net = cycle_chain(2, "m0_");
  for (std::size_t i = 1; i < n; ++i) {
    net = parallel_net(net, cycle_chain(2, "m" + std::to_string(i) + "_"));
  }
  return net;
}

double seconds(auto fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void report() {
  benchutil::header("E8 bench_scalability",
                    "complexity claims (net-level vs state-level)");
  std::printf("%-4s %-28s %-10s %-14s %-14s\n", "N", "composed net", "states",
              "compose (s)", "reach (s)");
  for (std::size_t n : {2u, 4u, 8u, 12u, 16u}) {
    PetriNet net;
    double compose_time = seconds([&] { net = independent_cycles(n); });
    std::size_t states = 0;
    double reach_time = seconds([&] { states = explore(net).state_count(); });
    std::printf("%-4zu %-28s %-10zu %-14.6f %-14.6f\n", n,
                net.summary().c_str(), states, compose_time, reach_time);
    benchutil::machine_row("independent_cycles/" + std::to_string(n), states,
                           compose_time + reach_time);
  }
  std::printf(
      "\nnet size and composition time grow linearly in N; the state space\n"
      "and its construction grow exponentially — the shape behind the\n"
      "paper's net-level argument.\n");

  // Explore-core focus: the arena/interner hot loop, single- vs
  // multi-threaded and dense vs packed, on the largest cycle family
  // (2^16 states). states/sec is the number the flat store + single-probe
  // intern are optimizing; the packed rows run the same BFS over
  // one-bit-per-place markings (the family is 1-safe, so auto would pick
  // packed too — both engines are pinned here to keep the rows comparable).
  std::printf("\nexplore core on independent_cycles/16 (2^16 states)\n");
  std::printf("%-8s %-10s %-10s %-12s %-14s\n", "engine", "threads", "states",
              "wall (s)", "states/sec");
  PetriNet big = independent_cycles(16);
  for (ReachEngine engine : {ReachEngine::kDense, ReachEngine::kPacked}) {
    for (std::size_t threads : {1u, 2u, 4u}) {
      ReachOptions options;
      options.threads = threads;
      options.engine = engine;
      std::size_t states = 0;
      double t =
          seconds([&] { states = explore(big, options).state_count(); });
      std::printf("%-8s %-10zu %-10zu %-12.6f %-14.0f\n", to_string(engine),
                  threads, states, t, t > 0 ? states / t : 0.0);
      const std::string row = engine == ReachEngine::kPacked
                                  ? "explore_packed" + std::to_string(threads)
                                  : "explore_mt" + std::to_string(threads);
      benchutil::machine_row(row + "/16", states, t);
    }
  }

  // The reachability side is split by layer: building the graph, then the
  // bottom-SCC liveness pass over it. k=512 (131 328 states) keeps the
  // is_live row above the regression gate's 10 ms floor.
  std::printf("\nmarked-graph checks: structural (Murata) vs reachability\n");
  std::printf("%-6s %-10s %-16s %-16s %-12s %-12s %-12s\n", "k", "states",
              "structural live", "structural safe", "struct (s)",
              "explore (s)", "is_live (s)");
  for (std::size_t k : {8u, 64u, 256u, 512u}) {
    // A k-stage marked-graph ring with 2 tokens: live, not safe.
    PetriNet ring = cycle_chain(k, "r");
    ring.set_initial_tokens(PlaceId(1), 1);  // second token
    bool live = false, safe = true;
    double struct_time = seconds([&] {
      live = mg_is_live(ring);
      safe = mg_is_safe(ring);
    });
    ReachabilityGraph rg;
    double explore_time = seconds([&] { rg = explore(ring); });
    double live_time =
        seconds([&] { benchmark::DoNotOptimize(is_live(ring, rg)); });
    const std::size_t states = rg.state_count();
    std::printf("%-6zu %-10zu %-16s %-16s %-12.6f %-12.6f %-12.6f\n", k,
                states, live ? "live" : "not live", safe ? "safe" : "unsafe",
                struct_time, explore_time, live_time);
    const std::string suffix = "/" + std::to_string(k);
    benchutil::machine_row("mg_ring_structural" + suffix, states, struct_time);
    benchutil::machine_row("mg_ring_explore" + suffix, states, explore_time);
    benchutil::machine_row("mg_ring_is_live" + suffix, states, live_time);
  }
}

void BM_NetLevelCompose(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(independent_cycles(n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NetLevelCompose)->DenseRange(2, 16, 2)->Complexity();

void BM_StateSpaceConstruction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  PetriNet net = independent_cycles(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(net).state_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StateSpaceConstruction)->DenseRange(2, 16, 2)->Complexity();

void BM_StateSpaceConstructionMT(benchmark::State& state) {
  PetriNet net = independent_cycles(16);
  ReachOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore(net, options).state_count());
  }
}
BENCHMARK(BM_StateSpaceConstructionMT)->Arg(1)->Arg(2)->Arg(4);

void BM_StructuralLiveness(benchmark::State& state) {
  PetriNet ring = cycle_chain(static_cast<std::size_t>(state.range(0)), "r");
  for (auto _ : state) {
    benchmark::DoNotOptimize(mg_is_live(ring));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StructuralLiveness)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_StructuralSafeness(benchmark::State& state) {
  PetriNet ring = cycle_chain(static_cast<std::size_t>(state.range(0)), "r");
  for (auto _ : state) {
    benchmark::DoNotOptimize(mg_is_safe(ring));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StructuralSafeness)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_ReachabilityLiveness(benchmark::State& state) {
  PetriNet ring = cycle_chain(static_cast<std::size_t>(state.range(0)), "r");
  for (auto _ : state) {
    auto rg = explore(ring);
    benchmark::DoNotOptimize(is_live(ring, rg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReachabilityLiveness)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_BoundednessCheck(benchmark::State& state) {
  PetriNet net = independent_cycles(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_boundedness(net));
  }
}
BENCHMARK(BM_BoundednessCheck)->DenseRange(2, 10, 2);

}  // namespace
}  // namespace cipnet

int main(int argc, char** argv) {
  cipnet::report();
  std::printf("\n");
  return cipnet::benchutil::run_benchmarks(argc, argv);
}
