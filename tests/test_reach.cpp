#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "algebra/parallel.h"
#include "helpers.h"
#include "reach/dead.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "reach/trace_enum.h"
#include "sim/random_net.h"
#include "util/error.h"

namespace cipnet {
namespace {

PetriNet cycle2() {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0});
  return net;
}

// Two independent cycles -> product state space.
PetriNet two_independent_cycles() {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0});
  PlaceId q0 = net.add_place("q0", 1);
  PlaceId q1 = net.add_place("q1", 0);
  net.add_transition({q0}, "c", {q1});
  net.add_transition({q1}, "d", {q0});
  return net;
}

TEST(Reachability, Cycle2HasTwoStates) {
  auto rg = explore(cycle2());
  EXPECT_EQ(rg.state_count(), 2u);
  EXPECT_EQ(rg.edge_count(), 2u);
  EXPECT_EQ(rg.marking(rg.initial()), cycle2().initial_marking());
}

TEST(Reachability, IndependentCyclesMultiply) {
  auto rg = explore(two_independent_cycles());
  EXPECT_EQ(rg.state_count(), 4u);
  EXPECT_EQ(rg.edge_count(), 8u);
}

TEST(Reachability, StateLimitRaises) {
  ReachOptions options;
  options.max_states = 2;
  EXPECT_THROW(explore(two_independent_cycles(), options), LimitError);
}

TEST(Reachability, ZeroStateBudgetRaisesImmediately) {
  ReachOptions options;
  options.max_states = 0;
  EXPECT_THROW((void)explore(two_independent_cycles(), options), LimitError);
}

TEST(Reachability, DeadlockedNetHasOneState) {
  PetriNet net;
  net.add_place("p", 0);
  auto rg = explore(net);
  EXPECT_EQ(rg.state_count(), 1u);
  EXPECT_EQ(deadlock_states(rg),
            (std::vector<StateId>{rg.initial()}));
}

TEST(Reachability, SingleStateNetHasNoEdges) {
  PetriNet net;
  net.add_place("p", 0);
  auto rg = explore(net);
  EXPECT_EQ(rg.state_count(), 1u);
  EXPECT_EQ(rg.edge_count(), 0u);
  EXPECT_TRUE(rg.contains(net.initial_marking()));
}

TEST(Reachability, ContainsResolvesEveryStoredDenseMarking) {
  // ReachPacked.ContainsPacksTheQueryMarking covers the packed index.
  PetriNet net = two_independent_cycles();
  ReachOptions options;
  options.engine = ReachEngine::kDense;
  auto rg = explore(net, options);
  for (StateId s : rg.all_states()) {
    EXPECT_TRUE(rg.contains(rg.marking(s).to_marking()));
  }
  Marking absent(net.place_count());
  EXPECT_FALSE(rg.contains(absent));
  EXPECT_FALSE(rg.contains(Marking(net.place_count() + 1)));
}

TEST(Properties, BoundedNetDetected) {
  EXPECT_EQ(check_boundedness(cycle2()), Boundedness::kBounded);
}

TEST(Properties, UnboundedProducerDetected) {
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId out = net.add_place("out", 0);
  net.add_transition({p}, "a", {p, out});  // pumps tokens into `out`
  EXPECT_EQ(check_boundedness(net), Boundedness::kUnbounded);
}

TEST(Properties, UnboundedViaTwoStepPump) {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  PlaceId acc = net.add_place("acc", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0, acc});
  EXPECT_EQ(check_boundedness(net), Boundedness::kUnbounded);
}

TEST(Properties, SafeAndMaxTokens) {
  auto rg = explore(cycle2());
  EXPECT_TRUE(is_safe(rg));
  EXPECT_EQ(max_tokens_in_any_place(rg), 1u);
}

TEST(Properties, UnsafeNetDetectedInReachability) {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 1);
  PlaceId sink = net.add_place("sink", 0);
  net.add_transition({p0}, "a", {sink});
  net.add_transition({p1}, "b", {sink});
  auto rg = explore(net);
  EXPECT_FALSE(is_safe(rg));
  EXPECT_EQ(max_tokens_in_any_place(rg), 2u);
}

TEST(Properties, LivenessOfCycle) {
  PetriNet net = cycle2();
  auto rg = explore(net);
  EXPECT_TRUE(is_live(net, rg));
  EXPECT_TRUE(non_live_transitions(net, rg).empty());
}

TEST(Properties, OneShotTransitionIsNotLive) {
  PetriNet net = cycle2();
  PlaceId once = net.add_place("once", 1);
  net.add_transition({once}, "c", {});
  auto rg = explore(net);
  EXPECT_FALSE(is_live(net, rg));
  auto nl = non_live_transitions(net, rg);
  ASSERT_EQ(nl.size(), 1u);
  EXPECT_EQ(net.transition_label(nl[0]), "c");
  // But it is not dead: it can fire once.
  EXPECT_TRUE(dead_transitions(net, rg).empty());
}

TEST(Properties, DeadTransitionNeverEnabled) {
  PetriNet net = cycle2();
  PlaceId never = net.add_place("never", 0);
  net.add_transition({never}, "dead", {});
  auto rg = explore(net);
  auto dead = dead_transitions(net, rg);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(net.transition_label(dead[0]), "dead");
}

TEST(Properties, FiringSequenceReconstructed) {
  PetriNet net = cycle2();
  auto rg = explore(net);
  // Find the state where p1 is marked.
  StateId target = rg.initial();
  for (StateId s : rg.all_states()) {
    if (rg.marking(s)[PlaceId(1)] == 1) target = s;
  }
  auto seq = firing_sequence_to(rg, target);
  ASSERT_TRUE(seq.has_value());
  ASSERT_EQ(seq->size(), 1u);
  EXPECT_EQ(net.transition_label((*seq)[0]), "a");
}

// ---------------------------------------------------------------------------
// L4 liveness: the bottom-SCC condensation must return exactly what a
// per-transition backward closure over the same graph returns.

using testutil::chain_net;

/// The reference oracle: t is live iff every state reaches, backwards over
/// the stored edges, a state whose marking enables t. One closure per
/// transition, O(|T| * (|S| * |T| + |E|)).
std::vector<TransitionId> non_live_by_backward_closure(
    const PetriNet& net, const ReachabilityGraph& rg) {
  std::vector<std::vector<StateId>> pred(rg.state_count());
  for (StateId s : rg.all_states()) {
    for (const auto& e : rg.successors(s)) pred[e.to.index()].push_back(s);
  }
  std::vector<TransitionId> out;
  for (TransitionId t : net.all_transitions()) {
    std::vector<bool> can_reach(rg.state_count(), false);
    std::deque<StateId> frontier;
    for (StateId s : rg.all_states()) {
      if (net.is_enabled(rg.marking(s), t)) {
        can_reach[s.index()] = true;
        frontier.push_back(s);
      }
    }
    while (!frontier.empty()) {
      StateId s = frontier.front();
      frontier.pop_front();
      for (StateId p : pred[s.index()]) {
        if (!can_reach[p.index()]) {
          can_reach[p.index()] = true;
          frontier.push_back(p);
        }
      }
    }
    if (std::find(can_reach.begin(), can_reach.end(), false) !=
        can_reach.end()) {
      out.push_back(t);
    }
  }
  return out;
}

/// A k-place ring with tokens on places 0 and `second`: live, not safe.
PetriNet two_token_ring(std::size_t k, std::size_t second) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < k; ++i) labels.push_back("r" + std::to_string(i));
  PetriNet net = chain_net(labels, /*cyclic=*/true, "r");
  net.set_initial_tokens(PlaceId(static_cast<std::uint32_t>(second)), 1);
  return net;
}

PetriNet independent_cycles(std::size_t n) {
  PetriNet net = chain_net({"m0_a", "m0_b"}, /*cyclic=*/true, "m0_");
  for (std::size_t i = 1; i < n; ++i) {
    std::string p = "m" + std::to_string(i) + "_";
    net = parallel_net(net, chain_net({p + "a", p + "b"}, true, p));
  }
  return net;
}

/// Three concurrent one-shot chains: every transition fires once, and the
/// graph ends in a single deadlock.
PetriNet one_shot_chains(std::size_t a, std::size_t b, std::size_t c) {
  auto chain = [](std::size_t length, const std::string& prefix) {
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < length; ++i) {
      labels.push_back(prefix + std::to_string(i));
    }
    return chain_net(labels, /*cyclic=*/false, prefix);
  };
  return parallel_net(parallel_net(chain(a, "k0_"), chain(b, "k1_")),
                      chain(c, "k2_"));
}

/// Tallies over every graph the differential check has seen, so the
/// families can assert they exercised what they claim to.
struct LivenessTally {
  int graphs = 0;
  int truncated = 0;
  int packed = 0;
  int with_non_live = 0;  // some transition is not live
  int with_live = 0;      // some transition is live
  int all_live = 0;
};

/// Explores `net` dense and packed, each complete (or cut at
/// `full_states`) and truncated at every budget in `cuts`, and requires the
/// condensation to return exactly the oracle's vector on each graph.
void expect_matches_oracle(const PetriNet& net, const std::string& what,
                           LivenessTally& tally,
                           std::size_t full_states = 5'000,
                           std::initializer_list<std::size_t> cuts = {1, 3,
                                                                      7}) {
  std::vector<std::size_t> budgets(cuts);
  budgets.push_back(full_states);
  for (ReachEngine engine : {ReachEngine::kDense, ReachEngine::kAuto}) {
    for (std::size_t budget : budgets) {
      ReachOptions options;
      options.engine = engine;
      options.max_states = budget;
      options.truncate_on_limit = true;
      const ReachabilityGraph rg = explore(net, options);
      const auto got = non_live_transitions(net, rg);
      EXPECT_EQ(got, non_live_by_backward_closure(net, rg))
          << what << " engine=" << to_string(rg.engine())
          << " max_states=" << budget << " truncated=" << rg.truncated();
      EXPECT_EQ(is_live(net, rg), got.empty());
      ++tally.graphs;
      tally.truncated += rg.truncated() ? 1 : 0;
      tally.packed += rg.engine() == ReachEngine::kPacked ? 1 : 0;
      tally.with_non_live += got.empty() ? 0 : 1;
      tally.with_live += got.size() < net.transition_count() ? 1 : 0;
      tally.all_live += got.empty() ? 1 : 0;
    }
  }
}

TEST(LivenessOracle, MatchesOnSeededRandomNets) {
  LivenessTally tally;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomNetConfig config;
    config.places = 5 + seed % 4;
    config.transitions = 5 + seed % 5;
    config.marked_places = 1 + seed % 3;
    config.seed = seed;
    expect_matches_oracle(random_net(config),
                          "random seed=" + std::to_string(seed), tally, 2'000);
  }
  EXPECT_GT(tally.truncated, 0);
  EXPECT_GT(tally.graphs - tally.truncated, 0);
  EXPECT_GT(tally.packed, 0);
  EXPECT_GT(tally.with_live, 0);
  EXPECT_GT(tally.with_non_live, 0);
}

TEST(LivenessOracle, MatchesOnTwoTokenRings) {
  LivenessTally tally;
  for (std::size_t k : {2u, 3u, 5u, 8u, 12u}) {
    for (std::size_t second = 1; second < k; second += 2) {
      expect_matches_oracle(two_token_ring(k, second),
                            "ring k=" + std::to_string(k) +
                                " second=" + std::to_string(second),
                            tally);
    }
  }
  EXPECT_GT(tally.all_live, 0);
  EXPECT_GT(tally.truncated, 0);
}

TEST(LivenessOracle, MatchesOnIndependentCycles) {
  LivenessTally tally;
  for (std::size_t n : {1u, 2u, 3u, 6u}) {
    expect_matches_oracle(independent_cycles(n),
                          "cycles n=" + std::to_string(n), tally);
  }
  EXPECT_GT(tally.all_live, 0);
  EXPECT_GT(tally.packed, 0);
  EXPECT_GT(tally.truncated, 0);
}

TEST(LivenessOracle, MatchesOnOneShotChains) {
  LivenessTally tally;
  expect_matches_oracle(one_shot_chains(1, 2, 3), "chains 1,2,3", tally);
  expect_matches_oracle(one_shot_chains(3, 2, 4), "chains 3,2,4", tally);
  expect_matches_oracle(one_shot_chains(5, 4, 6), "chains 5,4,6", tally,
                        5'000, {1, 10, 40});
  EXPECT_EQ(tally.all_live, 0);  // every chain transition fires once
  EXPECT_GT(tally.packed, 0);
  EXPECT_GT(tally.truncated, 0);
}

TEST(LivenessOracle, OnlyOneOfTwoBottomSccsEnablesT) {
  // A choice between two cycles. `t` is a self-loop on a place only the
  // right branch marks, so it is enabled at both states of the right
  // bottom SCC and at none of the left one; `s` is enabled everywhere.
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId a0 = net.add_place("a0", 0);
  PlaceId a1 = net.add_place("a1", 0);
  PlaceId b0 = net.add_place("b0", 0);
  PlaceId b1 = net.add_place("b1", 0);
  PlaceId right = net.add_place("right", 0);
  PlaceId always = net.add_place("always", 1);
  net.add_transition({p}, "l", {a0});
  net.add_transition({p}, "r", {b0, right});
  net.add_transition({a0}, "x", {a1});
  net.add_transition({a1}, "y", {a0});
  net.add_transition({b0}, "u", {b1});
  net.add_transition({b1}, "v", {b0});
  TransitionId t = net.add_transition({right}, "t", {right});
  TransitionId s = net.add_transition({always}, "s", {always});
  auto rg = explore(net);
  ASSERT_FALSE(rg.truncated());
  auto nl = non_live_transitions(net, rg);
  EXPECT_EQ(nl, non_live_by_backward_closure(net, rg));
  EXPECT_EQ(nl.size(), net.transition_count() - 1);
  EXPECT_NE(std::find(nl.begin(), nl.end(), t), nl.end());
  EXPECT_EQ(std::find(nl.begin(), nl.end(), s), nl.end());
}

TEST(LivenessOracle, ReachableDeadlockKillsEveryTransition) {
  PetriNet net = cycle2();
  PlaceId stop = net.add_place("stop", 0);
  net.add_transition({PlaceId(0)}, "halt", {stop});
  auto rg = explore(net);
  ASSERT_EQ(deadlock_states(rg).size(), 1u);
  auto nl = non_live_transitions(net, rg);
  EXPECT_EQ(nl, non_live_by_backward_closure(net, rg));
  EXPECT_EQ(nl, net.all_transitions());
}

TEST(LivenessOracle, SingleStateSelfLoop) {
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId never = net.add_place("never", 0);
  net.add_transition({p}, "a", {p});
  TransitionId dead = net.add_transition({never}, "b", {});
  for (ReachEngine engine : {ReachEngine::kDense, ReachEngine::kAuto}) {
    ReachOptions options;
    options.engine = engine;
    auto rg = explore(net, options);
    ASSERT_EQ(rg.state_count(), 1u);
    ASSERT_EQ(rg.edge_count(), 1u);
    auto nl = non_live_transitions(net, rg);
    EXPECT_EQ(nl, non_live_by_backward_closure(net, rg));
    EXPECT_EQ(nl, std::vector<TransitionId>{dead});
  }
}

TEST(DeadRemoval, UsesStructuralPathOnMarkedGraphs) {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  PlaceId z0 = net.add_place("z0", 0);
  PlaceId z1 = net.add_place("z1", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0});
  net.add_transition({z0}, "x", {z1});  // token-free cycle: dead
  net.add_transition({z1}, "y", {z0});
  auto result = remove_dead_transitions(net);
  EXPECT_EQ(result.method, DeadCheckMethod::kStructuralMarkedGraph);
  EXPECT_EQ(result.removed, 2u);
  EXPECT_EQ(result.slice.net.transition_count(), 2u);
  EXPECT_FALSE(result.slice.net.find_place("z0").has_value());
}

TEST(DeadRemoval, FallsBackToReachability) {
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId x = net.add_place("x", 0);
  PlaceId y = net.add_place("y", 0);
  PlaceId never = net.add_place("never", 0);
  net.add_transition({p}, "a", {x});
  net.add_transition({p}, "b", {y});  // conflict: not a marked graph
  net.add_transition({never}, "dead", {});
  auto result = remove_dead_transitions(net);
  EXPECT_EQ(result.method, DeadCheckMethod::kReachability);
  EXPECT_EQ(result.removed, 1u);
  EXPECT_EQ(result.slice.net.transition_count(), 2u);
}

TEST(TraceEnum, BoundedLanguageOfCycle) {
  TraceEnumOptions options;
  options.max_length = 3;
  auto traces = bounded_language(cycle2(), options);
  // <>, a, a.b, a.b.a
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_EQ(trace_to_string(traces[0]), "<>");
  EXPECT_EQ(trace_to_string(traces[3]), "a.b.a");
}

TEST(TraceEnum, SkipEpsilonCollapsesDummies) {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  PlaceId p2 = net.add_place("p2", 0);
  net.add_transition({p0}, std::string(kEpsilonLabel), {p1});
  net.add_transition({p1}, "a", {p2});
  TraceEnumOptions options;
  options.max_length = 2;
  options.skip_epsilon = true;
  auto traces = bounded_language(net, options);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(trace_to_string(traces[1]), "a");
}

TEST(TraceEnum, AcceptsTraceChecksWord) {
  PetriNet net = cycle2();
  EXPECT_TRUE(accepts_trace(net, {"a", "b", "a"}));
  EXPECT_FALSE(accepts_trace(net, {"b"}));
  EXPECT_TRUE(accepts_trace(net, {}));
}

}  // namespace
}  // namespace cipnet
