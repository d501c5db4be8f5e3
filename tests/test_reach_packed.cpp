// The packed 1-safe marking engine: PackedNet mask construction, the
// structural safety predicate that auto-selects it, and the hard contract
// that packed exploration is bit-identical to dense exploration — same
// states, same ids, same edge order — sequentially and under the parallel
// explorer, with a dynamic fallback to dense whenever the 1-safe encoding
// turns out to be unsound for the net at hand.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algebra/parallel.h"
#include "helpers.h"
#include "models/figures.h"
#include "petri/packed.h"
#include "petri/structure.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "sim/random_net.h"
#include "util/error.h"
#include "util/fault.h"

namespace cipnet {
namespace {

using testutil::chain_net;
using testutil::graphs_identical;

PetriNet independent_cycles(std::size_t n) {
  PetriNet net = chain_net({"m0_a", "m0_b"}, /*cyclic=*/true, "m0_");
  for (std::size_t i = 1; i < n; ++i) {
    std::string p = "m" + std::to_string(i) + "_";
    net = parallel_net(net, chain_net({p + "a", p + "b"}, true, p));
  }
  return net;
}

/// 1-safe initial marking, but firing `t` puts a second token on `p1`: the
/// smallest net whose packed run must dynamically fall back to dense.
PetriNet second_token_net() {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 1);
  net.add_transition({p0}, "t", {p1});
  return net;
}

ReachOptions with_engine(ReachEngine engine, std::size_t threads = 1) {
  ReachOptions options;
  options.engine = engine;
  options.threads = threads;
  return options;
}

// ---------------------------------------------------------------------------
// PackedNet: masks and word-parallel dynamics

TEST(PackedNet, WordCountRoundsUpTo64PlaceWords) {
  EXPECT_EQ(packed::word_count(0), 0u);
  EXPECT_EQ(packed::word_count(1), 1u);
  EXPECT_EQ(packed::word_count(64), 1u);
  EXPECT_EQ(packed::word_count(65), 2u);
  EXPECT_EQ(packed::word_count(130), 3u);
}

TEST(PackedNet, PackUnpackRoundTripsAcrossWordBoundaries) {
  const std::size_t places = 70;  // spans two words
  std::vector<Token> tokens(places, 0);
  tokens[0] = 1;
  tokens[63] = 1;
  tokens[64] = 1;
  tokens[69] = 1;
  std::vector<std::uint64_t> words(packed::word_count(places), ~0ull);
  ASSERT_TRUE(packed::pack_row(tokens.data(), places, words.data()));
  std::vector<Token> back(places, 77);
  packed::unpack_row(words.data(), places, back.data());
  EXPECT_EQ(back, tokens);
}

TEST(PackedNet, PackRejectsMultiTokenPlaces) {
  std::vector<Token> tokens = {1, 2, 0};
  std::vector<std::uint64_t> words(1);
  EXPECT_FALSE(packed::pack_row(tokens.data(), tokens.size(), words.data()));
}

TEST(PackedNet, SelfLoopIsReadArcNotMove) {
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId q = net.add_place("q", 0);
  net.add_transition({p}, "a", {p, q});  // reads p, produces q
  PackedNet masks(net);
  TransitionId t(0);
  EXPECT_EQ(masks.pre(t)[0], 0b01ull);
  EXPECT_EQ(masks.consume(t)[0], 0ull);  // p stays
  EXPECT_EQ(masks.produce(t)[0], 0b10ull);
  std::uint64_t m = 0b01;
  std::uint64_t out = 0;
  EXPECT_TRUE(masks.is_enabled(&m, t));
  EXPECT_TRUE(masks.fire_into(&m, t, &out));
  EXPECT_EQ(out, 0b11ull);
}

TEST(PackedNet, FireMatchesDenseFiringRule) {
  PetriNet net = independent_cycles(3);
  PackedNet masks(net);
  const Marking& m0 = net.initial_marking();
  std::vector<std::uint64_t> packed_m(masks.words());
  ASSERT_TRUE(packed::pack_row(m0.tokens().data(), net.place_count(),
                               packed_m.data()));
  std::vector<Token> dense_next;
  std::vector<std::uint64_t> packed_next(masks.words());
  std::vector<Token> unpacked(net.place_count());
  for (TransitionId t : net.all_transitions()) {
    ASSERT_EQ(masks.is_enabled(packed_m.data(), t),
              net.is_enabled(m0, t));
    if (!net.is_enabled(m0, t)) continue;
    net.fire_into(m0, t, dense_next);
    ASSERT_TRUE(masks.fire_into(packed_m.data(), t, packed_next.data()));
    packed::unpack_row(packed_next.data(), net.place_count(),
                       unpacked.data());
    EXPECT_EQ(unpacked, dense_next) << "transition " << t.value();
  }
}

TEST(PackedNet, FireDetectsSecondTokenClash) {
  PetriNet net = second_token_net();
  PackedNet masks(net);
  std::uint64_t m = 0b11;  // both places marked
  std::uint64_t out = 0;
  TransitionId t(0);
  ASSERT_TRUE(masks.is_enabled(&m, t));
  EXPECT_FALSE(masks.fire_into(&m, t, &out));  // p1 would get 2 tokens
}

TEST(PackedNet, EnabledTransitionsMatchesPetriNetAscending) {
  PetriNet net = independent_cycles(4);
  PackedNet masks(net);
  std::vector<std::uint64_t> packed_m(masks.words());
  ASSERT_TRUE(packed::pack_row(net.initial_marking().tokens().data(),
                               net.place_count(), packed_m.data()));
  std::vector<TransitionId> out;
  masks.enabled_transitions(packed_m.data(), out);
  EXPECT_EQ(out, net.enabled_transitions(net.initial_marking()));
}

// ---------------------------------------------------------------------------
// is_structurally_safe: the auto-selection predicate

TEST(StructuralSafety, SingleTokenStateMachineIsSafe) {
  EXPECT_TRUE(is_structurally_safe(chain_net({"a", "b", "c"}, true)));
}

TEST(StructuralSafety, MultiTokenInitialPlaceIsNotProven) {
  PetriNet net;
  PlaceId p = net.add_place("p", 2);
  PlaceId q = net.add_place("q", 0);
  net.add_transition({p}, "a", {q});
  EXPECT_FALSE(is_structurally_safe(net));
}

TEST(StructuralSafety, SemiflowCoverProvesParallelCycles) {
  // Not a state machine as a whole (total tokens = n), but each cycle is a
  // P-semiflow with constant 1.
  EXPECT_TRUE(is_structurally_safe(independent_cycles(3)));
}

TEST(StructuralSafety, ProducerFreePlacesNeedNoSemiflow) {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 1);
  net.add_transition({p0, p1}, "a", {});
  EXPECT_TRUE(is_structurally_safe(net));
}

TEST(StructuralSafety, UnboundedGrowthIsNotProven) {
  PetriNet net;
  PlaceId p = net.add_place("p", 1);
  PlaceId sink = net.add_place("sink", 0);
  net.add_transition({p}, "a", {p, sink});  // pumps tokens into sink
  EXPECT_FALSE(is_structurally_safe(net));
}

TEST(StructuralSafety, PaperFiguresAreSafe) {
  EXPECT_TRUE(is_structurally_safe(models::fig1_left()));
  EXPECT_TRUE(is_structurally_safe(models::fig1_right()));
  EXPECT_TRUE(is_structurally_safe(models::fig3_marked_graph()));
}

// ---------------------------------------------------------------------------
// Engine selection, fallback, and the bit-identity contract

TEST(ReachPacked, EngineNamesRoundTrip) {
  for (ReachEngine e :
       {ReachEngine::kAuto, ReachEngine::kDense, ReachEngine::kPacked}) {
    auto parsed = parse_reach_engine(to_string(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(parse_reach_engine("sparse").has_value());
  EXPECT_FALSE(parse_reach_engine("").has_value());
}

TEST(ReachPacked, AutoSelectsPackedOnProvenSafeNet) {
  PetriNet net = independent_cycles(4);
  EXPECT_EQ(explore(net).engine(), ReachEngine::kPacked);
  EXPECT_EQ(explore(net, with_engine(ReachEngine::kDense)).engine(),
            ReachEngine::kDense);
}

TEST(ReachPacked, AutoStaysDenseWhenSafetyIsNotProven) {
  PetriNet net;
  PlaceId p = net.add_place("p", 2);
  PlaceId q = net.add_place("q", 0);
  net.add_transition({p}, "a", {q});
  ASSERT_FALSE(is_structurally_safe(net));
  auto rg = explore(net);
  EXPECT_EQ(rg.engine(), ReachEngine::kDense);
  EXPECT_EQ(rg.state_count(), 3u);
}

TEST(ReachPacked, ForcedPackedFallsBackOnSecondTokenFiring) {
  PetriNet net = second_token_net();
  auto dense = explore(net, with_engine(ReachEngine::kDense));
  auto packed = explore(net, with_engine(ReachEngine::kPacked));
  EXPECT_EQ(packed.engine(), ReachEngine::kDense);  // fell back
  EXPECT_TRUE(graphs_identical(dense, packed));
  // The result is a real dense graph: p1 holds two tokens somewhere.
  EXPECT_FALSE(is_safe(packed));
}

TEST(ReachPacked, ForcedPackedFallsBackWhenInitialMarkingCannotPack) {
  PetriNet net;
  PlaceId p = net.add_place("p", 3);
  net.add_transition({p}, "a", {});
  auto rg = explore(net, with_engine(ReachEngine::kPacked));
  EXPECT_EQ(rg.engine(), ReachEngine::kDense);
  EXPECT_EQ(rg.state_count(), 4u);  // 3, 2, 1, 0 tokens
}

TEST(ReachPacked, BitIdenticalOnPaperFigures) {
  const PetriNet nets[] = {models::fig1_left(), models::fig1_right(),
                           models::fig2_left(), models::fig2_right(),
                           models::fig3_net(), models::fig3_marked_graph()};
  for (const PetriNet& net : nets) {
    auto dense = explore(net, with_engine(ReachEngine::kDense));
    auto packed = explore(net, with_engine(ReachEngine::kPacked));
    auto chosen = explore(net);
    EXPECT_TRUE(graphs_identical(dense, packed));
    EXPECT_TRUE(graphs_identical(dense, chosen));
  }
}

TEST(ReachPacked, BitIdenticalOnRandomNetsSequentialAndParallel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomNetConfig config;
    config.places = 7;
    config.transitions = 7;
    config.marked_places = 3;
    config.seed = seed;
    PetriNet net = random_net(config);
    ReachOptions dense_options = with_engine(ReachEngine::kDense);
    dense_options.max_states = 20'000;
    ReachabilityGraph dense;
    try {
      dense = explore(net, dense_options);
    } catch (const LimitError&) {
      continue;  // unbounded / huge sample: every engine would overflow
    }
    for (std::size_t threads : {1u, 2u, 4u}) {
      ReachOptions options = with_engine(ReachEngine::kPacked, threads);
      options.max_states = 20'000;
      auto packed = explore(net, options);
      EXPECT_TRUE(graphs_identical(dense, packed))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ReachPacked, BitIdenticalAcrossManyPlacesWordBoundary) {
  // 33 cycles = 66 places: packed rows span two words.
  PetriNet net = independent_cycles(33);
  ReachOptions dense_options = with_engine(ReachEngine::kDense);
  dense_options.max_states = 500;
  dense_options.truncate_on_limit = true;
  auto dense = explore(net, dense_options);
  ReachOptions packed_options = with_engine(ReachEngine::kPacked);
  packed_options.max_states = 500;
  packed_options.truncate_on_limit = true;
  auto packed = explore(net, packed_options);
  EXPECT_EQ(packed.engine(), ReachEngine::kPacked);
  // Truncated prefixes of the same BFS are identical too.
  EXPECT_TRUE(graphs_identical(dense, packed));
  EXPECT_TRUE(packed.truncated());
}

TEST(ReachPacked, ParallelPackedMatchesSequentialDense) {
  PetriNet net = independent_cycles(8);  // 256 states
  auto dense = explore(net, with_engine(ReachEngine::kDense));
  for (std::size_t threads : {2u, 4u}) {
    auto packed = explore(net, with_engine(ReachEngine::kPacked, threads));
    EXPECT_EQ(packed.engine(), ReachEngine::kPacked);
    EXPECT_TRUE(graphs_identical(dense, packed)) << "threads=" << threads;
  }
}

TEST(ReachPacked, ParallelForcedPackedFallsBackToDense) {
  PetriNet net = second_token_net();
  auto dense = explore(net, with_engine(ReachEngine::kDense));
  auto packed = explore(net, with_engine(ReachEngine::kPacked, 4));
  EXPECT_EQ(packed.engine(), ReachEngine::kDense);
  EXPECT_TRUE(graphs_identical(dense, packed));
}

TEST(ReachPacked, LimitErrorStillRaisedUnderPacked) {
  PetriNet net = independent_cycles(8);
  ReachOptions options = with_engine(ReachEngine::kPacked);
  options.max_states = 10;
  EXPECT_THROW((void)explore(net, options), LimitError);
}

TEST(ReachPacked, ContainsPacksTheQueryMarking) {
  PetriNet net = independent_cycles(5);
  auto rg = explore(net);
  ASSERT_EQ(rg.engine(), ReachEngine::kPacked);
  EXPECT_TRUE(rg.contains(net.initial_marking()));
  for (StateId s : rg.all_states()) {
    EXPECT_TRUE(rg.contains(rg.marking(s).to_marking()));
  }
  // Unpackable and wrong-width queries are definite misses, not errors.
  Marking two_tokens(net.place_count());
  two_tokens[PlaceId(0)] = 2;
  EXPECT_FALSE(rg.contains(two_tokens));
  EXPECT_FALSE(rg.contains(Marking(net.place_count() + 1)));
}

TEST(ReachPacked, PropertiesAgreeAcrossEngines) {
  // is_safe and max_tokens_in_any_place answer packed graphs without
  // unpacking a row; the one-state nets pin the empty-marking corner.
  PetriNet empty;
  empty.add_place("p", 0);
  PetriNet one_state_marked;
  PlaceId p = one_state_marked.add_place("p", 1);
  one_state_marked.add_transition({p}, "a", {p});
  const PetriNet nets[] = {independent_cycles(4), chain_net({"a", "b"}, false),
                           empty, one_state_marked};
  for (const PetriNet& net : nets) {
    auto dense = explore(net, with_engine(ReachEngine::kDense));
    auto packed = explore(net, with_engine(ReachEngine::kPacked));
    ASSERT_EQ(packed.engine(), ReachEngine::kPacked);
    EXPECT_EQ(is_safe(dense), is_safe(packed));
    EXPECT_EQ(deadlock_states(dense), deadlock_states(packed));
    EXPECT_EQ(is_live(net, dense), is_live(net, packed));
    EXPECT_EQ(non_live_transitions(net, dense),
              non_live_transitions(net, packed));
    EXPECT_EQ(max_tokens_in_any_place(dense), max_tokens_in_any_place(packed))
        << net.summary();
  }
}

#if CIPNET_FAULT_ENABLED
TEST(ReachPacked, FallbackFaultSiteForcesDenseRerun) {
  fault::clear();
  fault::configure("reach.packed.fallback=n1");
  PetriNet net = independent_cycles(4);
  ASSERT_TRUE(is_structurally_safe(net));
  auto rg = explore(net);  // auto would pick packed; the fault evicts it
  EXPECT_EQ(rg.engine(), ReachEngine::kDense);
  EXPECT_TRUE(graphs_identical(explore(net, with_engine(ReachEngine::kDense)),
                               rg));
  fault::clear();
}
#endif

}  // namespace
}  // namespace cipnet
