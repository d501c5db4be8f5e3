#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "petri/net.h"

namespace cipnet {

/// Structural subclass flags of a net (Section 5.1: "Usually an STG is a
/// restricted subclass of Petri nets, e.g. the marked graphs or the
/// free-choice nets... Many properties can be checked structurally for
/// marked graphs and free-choice nets in polynomial time").
struct StructureClass {
  /// Every place has at most one consumer and at most one producer.
  bool marked_graph = false;
  /// Every transition has exactly one input and one output place.
  bool state_machine = false;
  /// If a place has several consumers, it is the sole input of each of them.
  bool free_choice = false;
  /// Transitions sharing any input place have identical presets.
  bool extended_free_choice = false;
};

[[nodiscard]] StructureClass classify(const PetriNet& net);

[[nodiscard]] bool is_marked_graph(const PetriNet& net);
[[nodiscard]] bool is_state_machine(const PetriNet& net);
[[nodiscard]] bool is_free_choice(const PetriNet& net);
[[nodiscard]] bool is_extended_free_choice(const PetriNet& net);

/// The bipartite flow graph: nodes `0..P-1` are places, `P..P+T-1` are
/// transitions; an arc per preset/postset membership.
[[nodiscard]] Digraph flow_digraph(const PetriNet& net);

/// Strong connectedness of the flow graph (classical STG requirement,
/// Definition 2.3). Nets without places or transitions are not strongly
/// connected.
[[nodiscard]] bool is_strongly_connected(const PetriNet& net);

/// For a marked graph in which every place has exactly one producer and one
/// consumer: the transition-level digraph whose nodes are transitions and
/// which has, per place `p`, an edge producer(p) -> consumer(p) weighted by
/// `M0(p)`. Returns the graph plus `edge_place[e]` mapping edges back to
/// places. Empty optional if the net is not such a marked graph.
struct TransitionGraph {
  Digraph graph;
  std::vector<PlaceId> edge_place;
};
[[nodiscard]] std::optional<TransitionGraph> transition_graph(
    const PetriNet& net);

}  // namespace cipnet
