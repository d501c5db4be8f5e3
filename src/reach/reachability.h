#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "petri/net.h"
#include "petri/packed.h"
#include "reach/marking_store.h"
#include "util/cancel.h"

namespace cipnet {

/// Marking representation used by the explorer.
///
///  * `kDense`  — one `Token` per place; works for every net.
///  * `kPacked` — one *bit* per place (petri/packed.h); sound only for
///    1-safe nets, 8-32x smaller per state and word-parallel on the firing
///    rule. If a firing would put a second token on a place, the packed run
///    aborts and the exploration reruns dense (counted by
///    `reach.packed.fallbacks`).
///  * `kAuto`   — packed whenever every place of M0 holds at most one
///    token, dense otherwise. The default: the paper's nets are 1-safe by
///    construction, and the dynamic second-token check is the only
///    1-safety guard.
///
/// A request names `kAuto` or `kDense`; `kPacked` is what
/// `ReachabilityGraph::engine()` reports, never a request (`explore`
/// rejects it). Engine choice never changes the result: packed graphs are
/// bit-identical to dense ones (same states, same ids, same edge order).
enum class ReachEngine { kAuto, kDense, kPacked };

/// Wire names: "auto" / "dense" / "packed". Only the two request values
/// parse.
[[nodiscard]] const char* to_string(ReachEngine engine);
[[nodiscard]] std::optional<ReachEngine> parse_reach_engine(
    std::string_view name);

/// Exploration limits. General Petri nets can have huge or infinite state
/// spaces, so every exploration is bounded and overflow raises `LimitError`.
struct ReachOptions {
  std::size_t max_states = 1u << 20;
  /// Polled once per expanded state; a tripped token raises `Cancelled`.
  CancelToken cancel;
  /// Graceful degradation: when the state limit or memory budget trips,
  /// stop exploring and return the partial graph with `truncated()` set
  /// instead of throwing `LimitError`. The partial graph is always
  /// internally consistent (every edge targets a stored state). Requires
  /// `max_states >= 1` — a zero budget still throws.
  bool truncate_on_limit = false;
  /// Approximate cap on the graph + index heap footprint in bytes
  /// (0 = unlimited), checked against the same O(1) estimates behind the
  /// `reach.graph_bytes` / `reach.index_bytes` gauges. Honors
  /// `truncate_on_limit`.
  std::size_t max_graph_bytes = 0;
  /// Marking representation: `kAuto` or `kDense` (see `ReachEngine`).
  ReachEngine engine = ReachEngine::kAuto;
  /// Durability (reach/checkpoint.h). With a non-empty `checkpoint_path`
  /// and `checkpoint_every_states > 0`, the explorer atomically replaces
  /// the checkpoint file every time that many further states have been
  /// discovered. A failed write is counted (`store.persist.errors`) and
  /// exploration continues — a lost checkpoint loses durability, never
  /// progress.
  std::string checkpoint_path;
  std::size_t checkpoint_every_states = 0;
  /// Continue from a checkpoint written by an earlier run. A missing file
  /// starts fresh; a corrupt one is quarantined to `.bad` and counted
  /// (`store.corrupt.skipped`); one for a different net / engine /
  /// geometry is rejected and counted (`store.resume.rejected`). Under
  /// `kAuto` a checkpoint of this net decides the engine: a dense image
  /// means the packed attempt already met a second token. In every
  /// fallback case the exploration simply runs from the initial marking —
  /// resume is an optimization, never a correctness dependency.
  std::string resume_path;
  /// Test hook for the kill-and-resume suite: SIGKILL the process after
  /// this many successful checkpoint writes (0 = never).
  std::size_t crash_after_checkpoints = 0;
};

namespace reach_detail {
struct GraphAccess;
}  // namespace reach_detail

/// The reachability graph RG(N) (Section 2.1): nodes are reachable markings,
/// edges are transition firings labeled by the fired transition (and hence by
/// its action). State 0 is the initial marking.
///
/// Markings live contiguously in an arena — dense graphs store one `Token`
/// per place, packed graphs one bit per place — deduplicated by an
/// open-addressing interner. `marking()` always hands out a dense
/// `MarkingView` either way; on a packed graph the row is unpacked into a
/// per-graph scratch buffer, so the view is only valid until the next
/// `marking()` call on the same graph (dense views live as long as the
/// graph). No consumer in-tree holds two views of one graph at once, and
/// reading a packed graph from several threads concurrently is not
/// supported.
class ReachabilityGraph {
 public:
  struct Edge {
    TransitionId transition;
    StateId to;
  };

  [[nodiscard]] std::size_t state_count() const {
    return packed_ ? packed_store_.size() : store_.size();
  }
  [[nodiscard]] std::size_t edge_count() const;

  /// Rough heap footprint of the graph (marking arena + adjacency) and of
  /// the interner's slot table — the numbers behind the
  /// `reach.graph_bytes` / `reach.index_bytes` gauges.
  [[nodiscard]] std::size_t estimated_graph_bytes() const;
  [[nodiscard]] std::size_t estimated_index_bytes() const;

  [[nodiscard]] MarkingView marking(StateId s) const {
    if (!packed_) return store_.view(s.index());
    unpack_scratch_.resize(places_);
    packed::unpack_row(packed_store_.row(s.index()), places_,
                       unpack_scratch_.data());
    return MarkingView(unpack_scratch_.data(), places_);
  }
  [[nodiscard]] const std::vector<Edge>& successors(StateId s) const {
    return edges_[s.index()];
  }
  [[nodiscard]] StateId initial() const { return StateId(0); }

  [[nodiscard]] bool contains(const Marking& m) const;

  /// All states, ascending.
  [[nodiscard]] std::vector<StateId> all_states() const;

  /// True when exploration stopped early on a limit/memory-budget trip
  /// under `ReachOptions::truncate_on_limit` — the graph is a valid prefix
  /// of the full reachability graph, not all of it.
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// The engine that actually built this graph (`kDense` or `kPacked`,
  /// never `kAuto`) — what auto-selection resolved to, after any fallback.
  [[nodiscard]] ReachEngine engine() const {
    return packed_ ? ReachEngine::kPacked : ReachEngine::kDense;
  }

 private:
  friend struct reach_detail::GraphAccess;

  // Exactly one of the two stores is populated, per `packed_`.
  MarkingStore store_;
  MarkingInterner index_;
  PackedMarkingStore packed_store_;
  PackedMarkingInterner packed_index_;
  std::vector<std::vector<Edge>> edges_;
  bool packed_ = false;
  std::size_t places_ = 0;  // dense width of packed rows
  mutable std::vector<Token> unpack_scratch_;
  bool truncated_ = false;
};

/// Breadth-first construction of RG(N). Throws `LimitError` if more than
/// `options.max_states` markings are reachable, and `Error` if
/// `options.engine` is `kPacked`. The returned graph does not depend on
/// `options.engine` (see `ReachEngine`).
[[nodiscard]] ReachabilityGraph explore(const PetriNet& net,
                                        const ReachOptions& options = {});

namespace reach_detail {

/// Private-member access for the explorer (reachability.cpp) and its
/// marking domains (engine.h) — one named back door instead of a friend
/// list.
struct GraphAccess {
  static MarkingStore& dense_store(ReachabilityGraph& g) { return g.store_; }
  static MarkingInterner& dense_index(ReachabilityGraph& g) {
    return g.index_;
  }
  static PackedMarkingStore& packed_store(ReachabilityGraph& g) {
    return g.packed_store_;
  }
  static PackedMarkingInterner& packed_index(ReachabilityGraph& g) {
    return g.packed_index_;
  }
  static std::vector<std::vector<ReachabilityGraph::Edge>>& edges(
      ReachabilityGraph& g) {
    return g.edges_;
  }
  static void set_truncated(ReachabilityGraph& g, bool v) {
    g.truncated_ = v;
  }
  static void mark_packed(ReachabilityGraph& g, std::size_t places) {
    g.packed_ = true;
    g.places_ = places;
  }
};

/// Cap on the rows/slots pre-reserved from the `max_states` hint. Arena and
/// table growth are amortized-linear doublings, so reserving buys only the
/// first few rehashes — a small cap keeps tiny explorations (the common
/// case) from committing MBs against a default 1M-state budget.
inline constexpr std::size_t kReserveCap = std::size_t{1} << 10;

}  // namespace reach_detail

}  // namespace cipnet
