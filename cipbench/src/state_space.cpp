// `state_space`: one thread, closed loop; each job is one full reachability
// verdict (explore under `auto`, then the properties the service's `reach`
// op reports) on a seeded instance of a family with analytic answers.

#include <cstdio>

#include "common.h"
#include "families.h"
#include "reach/properties.h"
#include "reach/reachability.h"

namespace cipbench {

namespace {

enum class Family { kCycles, kRing, kChains };

/// One stratum of a round: a family at a fixed size. Each round draws a
/// fresh seeded variant of every stratum and shuffles their order. The
/// variants change the net but not the size of its state space: the phase
/// of each cycle, where the ring's second token starts, and the order of
/// the three chain lengths k-1, k, k+1.
struct Stratum {
  Family family;
  std::size_t size;
};

// Sizes span 1k to ~70k states so that both exploration and the liveness
// check carry weight. The count is odd, the middle stratum's cost (ring,
// k=192) is far from its neighbours', and the costliest stratum appears
// twice: the median and the tail percentile of a run's job latencies each
// fall inside one stratum's cluster instead of between two. Long ring jobs
// hold the median because their latency varied least between runs on a
// shared machine.
const std::vector<Stratum> kStrata = {
    {Family::kCycles, 10}, {Family::kChains, 10}, {Family::kRing, 96},
    {Family::kChains, 16}, {Family::kRing, 192},  {Family::kRing, 224},
    {Family::kCycles, 16}, {Family::kRing, 256},  {Family::kRing, 256},
};

struct Instance {
  Family family;
  std::size_t size;
  std::vector<std::size_t> lengths;  // chains only
  cipnet::PetriNet net;
};

const char* family_key(Family f) {
  switch (f) {
    case Family::kCycles: return "independent_cycles";
    case Family::kRing: return "two_token_ring";
    case Family::kChains: return "three_chains";
  }
  return "";
}

Instance make_instance(const Stratum& s, Rng& rng) {
  Instance inst{s.family, s.size, {}, {}};
  switch (s.family) {
    case Family::kCycles:
      inst.net = independent_cycles(s.size, rng());
      break;
    case Family::kRing:
      inst.net = two_token_ring(s.size, uniform(rng, 1, s.size - 1));
      break;
    case Family::kChains:
      inst.lengths = {s.size - 1, s.size, s.size + 1};
      shuffle(inst.lengths, rng);
      inst.net = one_shot_chains(inst.lengths);
      break;
  }
  return inst;
}

struct Totals {
  double states = 0;
  double edges = 0;
  double graph_bytes = 0;
  double packed = 0;
};

}  // namespace

Outcome run_state_space(const Args& args, const KnownAnswers& known) {
  Verdicts verdicts;
  std::vector<Instance> round;
  Totals totals;

  auto verdict = [&](const Instance& inst) {
    using cipnet::ReachabilityGraph;
    ReachabilityGraph rg;
    {
      Span span("reach.explore");
      rg = cipnet::explore(inst.net);
    }
    bool safe = false;
    std::size_t max_tokens = 0, deadlocks = 0, dead = 0, edges = 0;
    {
      Span span("reach.props");
      edges = rg.edge_count();
      deadlocks = cipnet::deadlock_states(rg).size();
      safe = cipnet::is_safe(rg);
      max_tokens = cipnet::max_tokens_in_any_place(rg);
      dead = cipnet::dead_transitions(inst.net, rg).size();
    }
    bool live = false;
    {
      Span span("reach.is_live");
      live = cipnet::is_live(inst.net, rg);
    }
    if (g_spans != nullptr) {
      totals.states += static_cast<double>(rg.state_count());
      totals.edges += static_cast<double>(edges);
      totals.graph_bytes += static_cast<double>(rg.estimated_graph_bytes());
      totals.packed += rg.engine() == cipnet::ReachEngine::kPacked ? 1 : 0;
    }

    const std::string fam = family_key(inst.family);
    KnownAnswers::Vars vars;
    if (inst.family == Family::kChains) {
      const char* const names[] = {"k1", "k2", "k3"};
      for (std::size_t i = 0; i < inst.lengths.size(); ++i) {
        vars[names[i]] = static_cast<std::int64_t>(inst.lengths[i]);
      }
    } else {
      vars[inst.family == Family::kRing ? "k" : "N"] =
          static_cast<std::int64_t>(inst.size);
    }
    const Expect expect(verdicts, known, "families." + fam + ".",
                        fam + "/" + std::to_string(inst.size), vars);
    bool ok = expect.eq(rg.state_count(), "states");
    ok &= expect.eq(edges, "edges");
    ok &= expect.eq(max_tokens, "max_tokens");
    ok &= expect.eq(deadlocks, "deadlock_states");
    ok &= expect.eq(dead, "dead_transitions");
    ok &= expect.is(safe, "safe");
    ok &= expect.is(live, "live");
    const std::string engine = cipnet::to_string(rg.engine());
    ok &= verdicts.check(
        engine == known.at("families." + fam + ".engine").as_string(),
        fam + " engine " + engine);
    return ok;
  };

  ClosedLoop loop;
  loop.latency_limit_ms = 2000;
  loop.setup = [&](Rng& rng) {
    // Build one variant of every stratum, and warm up with a verdict on
    // each of the five lighter strata (every family, up to ~130 ms a job).
    round.clear();
    for (const Stratum& s : kStrata) round.push_back(make_instance(s, rng));
    for (std::size_t i = 0; i < 5; ++i) verdict(round[i]);
  };
  loop.next_round = [&](Rng& rng) {
    round.clear();
    for (const Stratum& s : kStrata) round.push_back(make_instance(s, rng));
    shuffle(round, rng);
    return round.size();
  };
  loop.job = [&](std::size_t i) { return verdict(round[i]); };
  loop.layers = [&](Report& r, const std::map<std::string, double>& self,
                    std::size_t jobs) {
    const double n = jobs == 0 ? 1.0 : static_cast<double>(jobs);
    auto per_job = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / n;
    };
    r.add("reach.explore.ms", per_job("reach.explore"), "ms", "self, per job");
    r.add("reach.is_live.ms", per_job("reach.is_live"), "ms", "self, per job");
    r.add("reach.props.ms", per_job("reach.props"), "ms", "self, per job");
    r.add("petri.safety_check.ms", per_job("petri.safety_check"), "ms",
          "self, per job (inside explore)");
    const double explore_s = per_job("reach.explore") * n / 1000.0;
    r.add("reach.states_per_s",
          explore_s > 0 ? totals.states / explore_s : 0.0, "1/s",
          "states over explore self time");
    r.add("reach.graph_bytes_per_state",
          totals.states > 0 ? totals.graph_bytes / totals.states : 0.0, "B",
          "estimated_graph_bytes / states");
    r.add("reach.packed_share", totals.packed / n, "ratio",
          "jobs explored packed");
    r.add("reach.states", totals.states / n, "count", "mean per job");
    r.add("reach.edges", totals.edges / n, "count", "mean per job");
  };

  Outcome out = run_closed_loop(args, loop, verdicts);
  std::printf(
      "state_space: %zu strata per round, %zu verdicts checked, %zu wrong\n",
      kStrata.size(), verdicts.checked(), verdicts.wrong());
  return out;
}

}  // namespace cipbench
