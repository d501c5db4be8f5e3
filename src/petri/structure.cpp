#include "petri/structure.h"

#include "obs/trace.h"

namespace cipnet {

StructureClass classify(const PetriNet& net) {
  obs::Span span("petri.classify");
  StructureClass c;
  c.marked_graph = is_marked_graph(net);
  c.state_machine = is_state_machine(net);
  c.free_choice = is_free_choice(net);
  c.extended_free_choice = is_extended_free_choice(net);
  return c;
}

bool is_marked_graph(const PetriNet& net) {
  for (PlaceId p : net.all_places()) {
    if (net.consumers_of(p).size() > 1 || net.producers_of(p).size() > 1) {
      return false;
    }
  }
  return true;
}

bool is_state_machine(const PetriNet& net) {
  for (TransitionId t : net.all_transitions()) {
    const auto& tr = net.transition(t);
    if (tr.preset.size() != 1 || tr.postset.size() != 1) return false;
  }
  return true;
}

bool is_free_choice(const PetriNet& net) {
  for (PlaceId p : net.all_places()) {
    const auto& consumers = net.consumers_of(p);
    if (consumers.size() <= 1) continue;
    for (TransitionId t : consumers) {
      const auto& preset = net.transition(t).preset;
      if (preset.size() != 1 || preset[0] != p) return false;
    }
  }
  return true;
}

bool is_extended_free_choice(const PetriNet& net) {
  for (PlaceId p : net.all_places()) {
    const auto& consumers = net.consumers_of(p);
    for (std::size_t i = 1; i < consumers.size(); ++i) {
      if (net.transition(consumers[i]).preset !=
          net.transition(consumers[0]).preset) {
        return false;
      }
    }
  }
  return true;
}

Digraph flow_digraph(const PetriNet& net) {
  const int p_count = static_cast<int>(net.place_count());
  Digraph g(p_count + static_cast<int>(net.transition_count()));
  for (TransitionId t : net.all_transitions()) {
    const auto& tr = net.transition(t);
    const int t_node = p_count + static_cast<int>(t.index());
    for (PlaceId p : tr.preset) {
      g.add_edge(static_cast<int>(p.index()), t_node);
    }
    for (PlaceId p : tr.postset) {
      g.add_edge(t_node, static_cast<int>(p.index()));
    }
  }
  return g;
}

bool is_strongly_connected(const PetriNet& net) {
  if (net.place_count() == 0 || net.transition_count() == 0) return false;
  return is_strongly_connected(flow_digraph(net));
}

std::optional<TransitionGraph> transition_graph(const PetriNet& net) {
  TransitionGraph tg;
  tg.graph = Digraph(static_cast<int>(net.transition_count()));
  for (PlaceId p : net.all_places()) {
    const auto& producers = net.producers_of(p);
    const auto& consumers = net.consumers_of(p);
    if (producers.size() != 1 || consumers.size() != 1) return std::nullopt;
    tg.graph.add_edge(static_cast<int>(producers[0].index()),
                      static_cast<int>(consumers[0].index()),
                      net.initial_marking()[p]);
    tg.edge_place.push_back(p);
  }
  return tg;
}

}  // namespace cipnet
