#pragma once

#include <optional>
#include <vector>

#include "reach/reachability.h"

namespace cipnet {

/// Boundedness verdict from the Karp-Miller style domination test.
enum class Boundedness { kBounded, kUnbounded };

/// Decides boundedness exactly: depth-first search in which a newly reached
/// marking that strictly dominates an ancestor on the current path witnesses
/// unboundedness (the classic monotonicity argument); if the full finite
/// state space is exhausted without a witness the net is bounded. The
/// `max_states` limit only guards against pathological blow-up of *bounded*
/// nets and raises `LimitError`.
[[nodiscard]] Boundedness check_boundedness(const PetriNet& net,
                                            std::size_t max_states = 1u << 20);

/// Every reachable marking puts at most one token in each place
/// (Section 2.1: "Safe nets"). O(1) on a packed graph, which is 1-safe by
/// construction.
[[nodiscard]] bool is_safe(const ReachabilityGraph& rg);

/// Largest token count any place reaches.
[[nodiscard]] Token max_tokens_in_any_place(const ReachabilityGraph& rg);

/// States with no enabled transition.
[[nodiscard]] std::vector<StateId> deadlock_states(const ReachabilityGraph& rg);

/// Transitions that are never enabled in any reachable marking (dead, i.e.
/// not L1-live). Exact on the explored graph.
[[nodiscard]] std::vector<TransitionId> dead_transitions(
    const PetriNet& net, const ReachabilityGraph& rg);

/// Liveness in the strong (L4) sense: from every reachable marking, every
/// transition can eventually fire again. Computed from one bottom-SCC
/// condensation of the reachability graph: t is live iff every bottom SCC
/// holds a state enabling t. Linear in the graph, O(|S| + |E| + |T|).
/// Enabledness is the marking's (`PetriNet::enabled_transitions`), so on a
/// truncated graph the verdict is about the explored prefix.
[[nodiscard]] bool is_live(const PetriNet& net, const ReachabilityGraph& rg);

/// The transitions that are *not* L4-live, ascending.
[[nodiscard]] std::vector<TransitionId> non_live_transitions(
    const PetriNet& net, const ReachabilityGraph& rg);

/// A firing sequence (transition ids) from the initial state to `target`,
/// or nullopt if unreachable (it never is for states in the graph).
[[nodiscard]] std::optional<std::vector<TransitionId>> firing_sequence_to(
    const ReachabilityGraph& rg, StateId target);

}  // namespace cipnet
