#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/ops.h"
#include "petri/net.h"
#include "reach/reachability.h"
#include "reach/trace_enum.h"

namespace cipnet::testutil {

/// Exact (bit-identical) graph equality: same state count, same marking at
/// every state id, same edge list (order included) at every state. This is
/// the contract the packed engine is held to against the dense one.
inline ::testing::AssertionResult graphs_identical(const ReachabilityGraph& a,
                                                   const ReachabilityGraph& b) {
  if (a.state_count() != b.state_count()) {
    return ::testing::AssertionFailure()
           << "state counts differ: " << a.state_count() << " vs "
           << b.state_count();
  }
  for (StateId s : a.all_states()) {
    if (!(a.marking(s) == b.marking(s))) {
      return ::testing::AssertionFailure()
             << "markings differ at state " << s.value() << ": "
             << a.marking(s).to_string() << " vs " << b.marking(s).to_string();
    }
    const auto& ea = a.successors(s);
    const auto& eb = b.successors(s);
    if (ea.size() != eb.size()) {
      return ::testing::AssertionFailure()
             << "edge counts differ at state " << s.value() << ": "
             << ea.size() << " vs " << eb.size();
    }
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].transition != eb[i].transition || ea[i].to != eb[i].to) {
        return ::testing::AssertionFailure()
               << "edge " << i << " differs at state " << s.value();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Assert that two canonical DFAs denote the same language; on failure the
/// message carries a shortest distinguishing word.
inline ::testing::AssertionResult languages_equal(const Dfa& a, const Dfa& b) {
  auto word = distinguishing_word(a, b);
  if (!word) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "languages differ on word: " << trace_to_string(*word);
}

/// Canonical DFA of a net's trace language (nothing hidden).
inline Dfa lang_of(const PetriNet& net) { return canonical_language(net); }

/// A cycle net: marked place p0 -> t(labels[0]) -> p1 -> ... -> back to p0.
/// With `cyclic=false` the chain ends in a final place instead.
inline PetriNet chain_net(const std::vector<std::string>& labels,
                          bool cyclic, const std::string& prefix = "") {
  PetriNet net;
  std::vector<PlaceId> places;
  places.push_back(net.add_place(prefix + "c0", 1));
  for (std::size_t i = 1; i <= labels.size(); ++i) {
    if (cyclic && i == labels.size()) break;
    places.push_back(net.add_place(prefix + "c" + std::to_string(i), 0));
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    PlaceId from = places[i];
    PlaceId to = (cyclic && i + 1 == labels.size()) ? places[0] : places[i + 1];
    net.add_transition({from}, labels[i], {to});
  }
  return net;
}

/// Word containment in a canonical DFA.
inline bool dfa_accepts(const Dfa& dfa, const std::vector<std::string>& word) {
  return dfa.accepts(word);
}

}  // namespace cipnet::testutil
