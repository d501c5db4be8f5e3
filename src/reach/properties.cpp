#include "reach/properties.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "graph/digraph.h"
#include "util/error.h"

namespace cipnet {

namespace {

/// a strictly dominates b: a >= b pointwise and a != b.
bool strictly_dominates(const Marking& a, const Marking& b) {
  bool strict = false;
  for (std::size_t i = 0; i < a.tokens().size(); ++i) {
    if (a.tokens()[i] < b.tokens()[i]) return false;
    if (a.tokens()[i] > b.tokens()[i]) strict = true;
  }
  return strict;
}

}  // namespace

Boundedness check_boundedness(const PetriNet& net, std::size_t max_states) {
  // Iterative DFS carrying the ancestor path for the domination test.
  struct Frame {
    Marking marking;
    std::vector<TransitionId> pending;
  };
  std::unordered_set<Marking, MarkingHash> visited;
  std::vector<Frame> stack;

  auto push = [&](Marking m) -> bool {  // returns false on domination
    for (const Frame& f : stack) {
      if (strictly_dominates(m, f.marking)) return false;
    }
    if (visited.size() >= max_states) {
      throw LimitError("boundedness check exceeded state limit");
    }
    auto pending = net.enabled_transitions(m);
    stack.push_back(Frame{std::move(m), std::move(pending)});
    return true;
  };

  if (!push(net.initial_marking())) return Boundedness::kUnbounded;
  visited.insert(net.initial_marking());

  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.pending.empty()) {
      stack.pop_back();
      continue;
    }
    TransitionId t = top.pending.back();
    top.pending.pop_back();
    Marking next = net.fire(top.marking, t);
    if (visited.contains(next)) continue;
    visited.insert(next);
    if (!push(std::move(next))) return Boundedness::kUnbounded;
  }
  return Boundedness::kBounded;
}

bool is_safe(const ReachabilityGraph& rg) {
  // A packed graph is 1-safe by construction: a second-token clash makes
  // the explorer fall back to dense.
  if (rg.engine() == ReachEngine::kPacked) return true;
  for (StateId s : rg.all_states()) {
    if (!rg.marking(s).is_safe()) return false;
  }
  return true;
}

Token max_tokens_in_any_place(const ReachabilityGraph& rg) {
  // Packed markings are 1-safe and pairwise distinct, so only a one-state
  // packed graph can lack a token everywhere.
  if (rg.engine() == ReachEngine::kPacked && rg.state_count() > 1) return 1;
  Token best = 0;
  for (StateId s : rg.all_states()) {
    for (Token t : rg.marking(s)) best = std::max(best, t);
  }
  return best;
}

std::vector<StateId> deadlock_states(const ReachabilityGraph& rg) {
  std::vector<StateId> out;
  for (StateId s : rg.all_states()) {
    if (rg.successors(s).empty()) out.push_back(s);
  }
  return out;
}

std::vector<TransitionId> dead_transitions(const PetriNet& net,
                                           const ReachabilityGraph& rg) {
  std::vector<bool> fired(net.transition_count(), false);
  for (StateId s : rg.all_states()) {
    for (const auto& e : rg.successors(s)) fired[e.transition.index()] = true;
  }
  std::vector<TransitionId> out;
  for (std::size_t i = 0; i < fired.size(); ++i) {
    if (!fired[i]) out.push_back(TransitionId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

std::vector<TransitionId> non_live_transitions(const PetriNet& net,
                                               const ReachabilityGraph& rg) {
  // Every state of a finite graph reaches some bottom SCC (one no edge
  // leaves), and a bottom SCC reaches nothing outside itself. So t is
  // L4-live iff every bottom SCC holds a state enabling t: one condensation,
  // O(|S| + |E| + |T|).
  const int n = static_cast<int>(rg.state_count());
  auto out = [&](int v) -> const std::vector<ReachabilityGraph::Edge>& {
    return rg.successors(StateId(static_cast<std::uint32_t>(v)));
  };
  const SccResult scc = strongly_connected_components(
      n, [&](int v) { return out(v).size(); },
      [&](int v, std::size_t i) {
        return static_cast<int>(out(v)[i].to.index());
      });
  const std::vector<int>& comp = scc.component;

  std::vector<bool> bottom(scc.component_count, true);
  for (int v = 0; v < n; ++v) {
    for (const auto& e : out(v)) {
      if (comp[e.to.index()] != comp[v]) bottom[comp[v]] = false;
    }
  }

  // Thread the states of each bottom SCC into a list, so each SCC's
  // enabled set is gathered in one run.
  std::vector<int> head(scc.component_count, -1), next(n, -1);
  for (int v = n - 1; v >= 0; --v) {
    if (!bottom[comp[v]]) continue;
    next[v] = head[comp[v]];
    head[comp[v]] = v;
  }

  // covered[t]: bottom SCCs holding a state that enables t; stamp[t]: the
  // last SCC counted. A fully expanded state enables exactly the labels of
  // its out-edges. A state with none, or any state of a truncated graph
  // (whose last expansion may be partial), asks the net.
  const std::size_t transitions = net.transition_count();
  std::vector<int> covered(transitions, 0), stamp(transitions, -1);
  auto cover = [&](int c, TransitionId t) {
    if (stamp[t.index()] == c) return;
    stamp[t.index()] = c;
    ++covered[t.index()];
  };
  int bottoms = 0;
  for (int c = 0; c < scc.component_count; ++c) {
    if (!bottom[c]) continue;
    ++bottoms;
    for (int v = head[c]; v >= 0; v = next[v]) {
      if (!rg.truncated() && !out(v).empty()) {
        for (const auto& e : out(v)) cover(c, e.transition);
      } else {
        const StateId s(static_cast<std::uint32_t>(v));
        for (TransitionId t : net.enabled_transitions(rg.marking(s))) {
          cover(c, t);
        }
      }
    }
  }

  std::vector<TransitionId> not_live;
  for (TransitionId t : net.all_transitions()) {
    if (covered[t.index()] < bottoms) not_live.push_back(t);
  }
  return not_live;
}

bool is_live(const PetriNet& net, const ReachabilityGraph& rg) {
  return non_live_transitions(net, rg).empty();
}

std::optional<std::vector<TransitionId>> firing_sequence_to(
    const ReachabilityGraph& rg, StateId target) {
  // BFS from the initial state recording parent edges.
  struct Parent {
    StateId state;
    TransitionId transition;
  };
  std::vector<std::optional<Parent>> parent(rg.state_count());
  std::vector<bool> seen(rg.state_count(), false);
  std::deque<StateId> frontier{rg.initial()};
  seen[rg.initial().index()] = true;
  while (!frontier.empty()) {
    StateId s = frontier.front();
    frontier.pop_front();
    if (s == target) break;
    for (const auto& e : rg.successors(s)) {
      if (!seen[e.to.index()]) {
        seen[e.to.index()] = true;
        parent[e.to.index()] = Parent{s, e.transition};
        frontier.push_back(e.to);
      }
    }
  }
  if (!seen[target.index()]) return std::nullopt;
  std::vector<TransitionId> path;
  StateId cur = target;
  while (parent[cur.index()]) {
    path.push_back(parent[cur.index()]->transition);
    cur = parent[cur.index()]->state;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cipnet
