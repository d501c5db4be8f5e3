#pragma once

// Marking-domain policies for the reachability explorer. The BFS in
// reachability.cpp is a template over a `Domain` that fixes how a marking
// is represented and fired:
//
//  * `DenseDomain`  — rows of `Token` (one per place), dynamics delegated
//    to `PetriNet`; correct for every net.
//  * `PackedDomain` — rows of `uint64_t` (one *bit* per place), dynamics
//    delegated to the precomputed `PackedNet` word masks; sound only for
//    1-safe nets.
//
// Everything order-relevant (BFS discovery order, ascending enabled sets,
// the delta merge, intern order) lives in the shared explorer skeleton, so
// the two domains produce bit-identical graphs — packing changes the cost
// of a step, never its outcome.
//
// The packed domain polices its own soundness: `fire` detects a firing that
// would put a second token on a place (impossible on a truly 1-safe net)
// and throws `PackedUnsafe`, which the `explore` dispatcher converts into a
// dense rerun. The same exception is raised by the `reach.packed.fallback`
// fault site so the rerun path is testable on nets that never violate
// 1-safety for real.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "petri/net.h"
#include "petri/packed.h"
#include "reach/reachability.h"
#include "util/sorted_set.h"

namespace cipnet::reach_detail {

/// Internal control-flow signal, not an `Error`: a packed exploration
/// discovered the net is not 1-safe after all (or the fallback fault site
/// fired). Never escapes `explore` — the dispatcher catches it and reruns
/// the exploration on the dense engine.
struct PackedUnsafe {};

/// Out-of-line hooks (reachability.cpp) so the domain templates stay
/// header-only: the `reach.delta_enabled` counter bump, and the
/// `reach.packed.fallback` fault point (throws `PackedUnsafe` when fired).
void count_delta_update();
void packed_fault_check();

struct DenseDomain {
  using Cell = Token;
  static constexpr bool kIsPacked = false;

  const PetriNet& net;
  std::size_t width;  ///< cells per row = place count

  explicit DenseDomain(const PetriNet& n) : net(n), width(n.place_count()) {}

  void initial_row(std::vector<Cell>& out) const {
    const std::vector<Token>& tokens = net.initial_marking().tokens();
    out.assign(tokens.begin(), tokens.end());
  }

  [[nodiscard]] bool is_enabled(const Cell* m, TransitionId t) const {
    return net.is_enabled(MarkingView(m, width), t);
  }

  /// `out` is fully overwritten with the successor row.
  void fire(const Cell* m, TransitionId t, std::vector<Cell>& out) const {
    net.fire_into(MarkingView(m, width), t, out);
  }

  /// Per-expanded-state hook; nothing to check densely.
  void state_check() const {}

  static BasicMarkingStore<Cell>& store(ReachabilityGraph& g) {
    return GraphAccess::dense_store(g);
  }
  static BasicMarkingInterner<Cell>& index(ReachabilityGraph& g) {
    return GraphAccess::dense_index(g);
  }
  /// Stamp domain identity onto a finished graph (no-op: dense is the
  /// default representation).
  void bind(ReachabilityGraph&) const {}
};

struct PackedDomain {
  using Cell = std::uint64_t;
  static constexpr bool kIsPacked = true;

  const PetriNet& net;
  PackedNet masks;
  std::size_t width;  ///< cells per row = words per packed marking

  explicit PackedDomain(const PetriNet& n)
      : net(n), masks(n), width(masks.words()) {}

  /// Throws `PackedUnsafe` if M0 itself has no 1-safe encoding (some place
  /// starts with two tokens); `explore` selects packed only when it has one.
  void initial_row(std::vector<Cell>& out) const {
    out.resize(width);
    if (!packed::pack_row(net.initial_marking().tokens().data(),
                          net.place_count(), out.data())) {
      throw PackedUnsafe{};
    }
  }

  [[nodiscard]] bool is_enabled(const Cell* m, TransitionId t) const {
    return masks.is_enabled(m, t);
  }

  void fire(const Cell* m, TransitionId t, std::vector<Cell>& out) const {
    out.resize(width);
    if (!masks.fire_into(m, t, out.data())) throw PackedUnsafe{};
  }

  void state_check() const { packed_fault_check(); }

  static BasicMarkingStore<Cell>& store(ReachabilityGraph& g) {
    return GraphAccess::packed_store(g);
  }
  static BasicMarkingInterner<Cell>& index(ReachabilityGraph& g) {
    return GraphAccess::packed_index(g);
  }
  void bind(ReachabilityGraph& g) const {
    GraphAccess::mark_packed(g, net.place_count());
  }
};

/// Incremental enabled-set maintenance: given the enabled set of a parent
/// marking and the transition fired to reach `next`, produce `next`'s
/// enabled set (ascending) by rechecking only the parent's set plus the
/// consumers of places that gained a token — instead of rescanning all |T|
/// transitions per state. `candidates` is caller-provided scratch. The
/// candidate set is purely structural, so it is shared by both domains;
/// only the enabledness recheck goes through the domain. The ascending
/// merge order is part of the bit-identity contract between engines.
template <class Domain>
void delta_enabled_t(const Domain& dom,
                     const std::vector<TransitionId>& parent_enabled,
                     TransitionId fired, const typename Domain::Cell* next,
                     std::vector<TransitionId>& out,
                     std::vector<TransitionId>& candidates) {
  count_delta_update();
  out.clear();
  candidates.clear();
  // Only consumers of places that gained a token can newly become enabled;
  // everything else enabled in `next` was already enabled in the parent.
  const auto& tr = dom.net.transition(fired);
  for (PlaceId p : tr.postset) {
    if (sorted_set::contains(tr.preset, p)) continue;  // self-loop: no change
    const auto& consumers = dom.net.consumers_of(p);
    candidates.insert(candidates.end(), consumers.begin(), consumers.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // Ascending merge of (parent set) ∪ (candidates), rechecking enabledness
  // against `next` — presets are tiny, so this is O(small) per successor
  // where the full rescan is O(|T|).
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < parent_enabled.size() || j < candidates.size()) {
    TransitionId t;
    if (j >= candidates.size() ||
        (i < parent_enabled.size() && parent_enabled[i] <= candidates[j])) {
      t = parent_enabled[i];
      if (j < candidates.size() && candidates[j] == t) ++j;
      ++i;
    } else {
      t = candidates[j];
      ++j;
    }
    if (dom.is_enabled(next, t)) out.push_back(t);
  }
}

}  // namespace cipnet::reach_detail
