#include "reach/reachability.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <deque>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "petri/canonical.h"
#include "reach/checkpoint.h"
#include "reach/engine.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/fault.h"

namespace cipnet {

namespace {
CIPNET_FAULT_SITE(f_cancel, "reach.cancel");
CIPNET_FAULT_SITE(f_packed_fallback, "reach.packed.fallback");
const obs::Counter c_states("reach.states");
const obs::Counter c_edges("reach.edges");
const obs::Counter c_hash_lookups("reach.hash_lookups");
const obs::Counter c_delta_updates("reach.delta_enabled");
const obs::Counter c_packed_selected("reach.packed.selected");
const obs::Counter c_packed_fallbacks("reach.packed.fallbacks");
const obs::Gauge g_packed_words("reach.packed.words_per_state");
const obs::Gauge g_frontier_peak("reach.frontier_peak");
const obs::Gauge g_graph_bytes("reach.graph_bytes");
const obs::Gauge g_index_bytes("reach.index_bytes");
const obs::Histogram h_frontier("reach.frontier_size");
const obs::Histogram h_enabled("reach.enabled_per_state");
const obs::Counter c_ckpt_writes("store.ckpt.writes");
const obs::Counter c_persist_errors("store.persist.errors");
const obs::Counter c_resume_loaded("store.resume.loaded");
const obs::Counter c_resume_rejected("store.resume.rejected");
const obs::Counter c_corrupt_skipped("store.corrupt.skipped");

/// Arena + adjacency footprint — the one sum behind
/// `estimated_graph_bytes()`, the `reach.graph_bytes` gauge and the
/// `max_graph_bytes` budget.
std::size_t graph_bytes(std::size_t arena_bytes, std::size_t rows,
                        std::size_t edges) {
  return arena_bytes + rows * sizeof(std::vector<ReachabilityGraph::Edge>) +
         edges * sizeof(ReachabilityGraph::Edge);
}
}  // namespace

const char* to_string(ReachEngine engine) {
  switch (engine) {
    case ReachEngine::kAuto:
      return "auto";
    case ReachEngine::kDense:
      return "dense";
    case ReachEngine::kPacked:
      return "packed";
  }
  return "auto";
}

std::optional<ReachEngine> parse_reach_engine(std::string_view name) {
  if (name == "auto") return ReachEngine::kAuto;
  if (name == "dense") return ReachEngine::kDense;
  return std::nullopt;
}

std::size_t ReachabilityGraph::edge_count() const {
  std::size_t n = 0;
  for (const auto& out : edges_) n += out.size();
  return n;
}

std::size_t ReachabilityGraph::estimated_graph_bytes() const {
  return graph_bytes(
      packed_ ? packed_store_.arena_bytes() : store_.arena_bytes(),
      edges_.size(), edge_count());
}

std::size_t ReachabilityGraph::estimated_index_bytes() const {
  return packed_ ? packed_index_.table_bytes() : index_.table_bytes();
}

bool ReachabilityGraph::contains(const Marking& m) const {
  if (!packed_) {
    return m.size() == store_.width() &&
           index_.find(m.tokens().data(), store_).has_value();
  }
  if (m.size() != places_) return false;
  // A marking with two tokens anywhere has no packed encoding and is
  // certainly not in a packed (hence 1-safe) graph.
  std::vector<std::uint64_t> row(packed_store_.width());
  if (!packed::pack_row(m.tokens().data(), places_, row.data())) return false;
  return packed_index_.find(row.data(), packed_store_).has_value();
}

std::vector<StateId> ReachabilityGraph::all_states() const {
  std::vector<StateId> out;
  out.reserve(state_count());
  for (std::size_t i = 0; i < state_count(); ++i) {
    out.push_back(StateId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

namespace reach_detail {

void count_delta_update() { c_delta_updates.add(); }

void packed_fault_check() {
  if (CIPNET_FAULT_FIRES(f_packed_fallback)) throw PackedUnsafe{};
}

}  // namespace reach_detail

namespace {

/// The sequential BFS, generic over the marking domain. Everything that
/// determines the result — discovery order, ascending enabled sets, intern
/// order — is domain-independent, which is what makes packed graphs
/// bit-identical to dense ones.
template <class Domain>
ReachabilityGraph explore_seq(const Domain& dom, const PetriNet& net,
                              const ReachOptions& options,
                              const reach_detail::CheckpointImage* resume) {
  using Cell = typename Domain::Cell;
  using Access = reach_detail::GraphAccess;
  constexpr std::uint32_t kNoId = BasicMarkingInterner<Cell>::kNoId;
  obs::Span span("reach.explore");
  obs::ProgressReporter progress("reach.explore");
  progress.set_target(options.max_states);
  ReachabilityGraph rg;
  BasicMarkingStore<Cell>& store = Domain::store(rg);
  BasicMarkingInterner<Cell>& index = Domain::index(rg);
  std::vector<std::vector<ReachabilityGraph::Edge>>& edges = Access::edges(rg);
  store.reset(dom.width);
  const std::size_t hint =
      std::min(options.max_states, reach_detail::kReserveCap);
  store.reserve(hint);
  index.reserve(hint);
  edges.reserve(hint);

  std::size_t edges_added = 0;
  bool truncated = false;
  // O(1) live estimate of the graph footprint, from the running counts
  // (edge_count() would rescan every state).
  auto live_graph_bytes = [&] {
    return graph_bytes(store.arena_bytes(), edges.size(), edges_added);
  };
  auto sample_memory = [&] {
    if (!obs::enabled()) return;
    g_graph_bytes.set(live_graph_bytes());
    g_index_bytes.set(index.table_bytes());
  };
  auto limit_error = [&] {
    sample_memory();
    return LimitError(
        "reachability exploration exceeded " +
            std::to_string(options.max_states) + " states",
        LimitContext{store.size(), edges_added, options.max_states});
  };
  // Memory-budget guard: the gauges' two quantities summed.
  auto approx_bytes = [&] {
    return live_graph_bytes() + index.table_bytes();
  };

  // Enabled sets of discovered-but-unexpanded states, maintained
  // incrementally from the parent's set (moved out on expansion).
  std::vector<std::vector<TransitionId>> pending_enabled;
  pending_enabled.reserve(hint);

  std::deque<StateId> frontier;
  if (resume != nullptr) {
    // Seed from the checkpoint: arena rows, adjacency, and the frontier
    // with its pending enabled sets, exactly as the interrupted run held
    // them at its loop head. The interner is rebuilt from the rows, so a
    // resumed run probes the same table an uninterrupted one would.
    std::vector<Cell> cells(static_cast<std::size_t>(resume->state_count) *
                            dom.width);
    std::memcpy(cells.data(), resume->arena.data(), resume->arena.size());
    for (std::size_t i = 0; i < resume->state_count; ++i) {
      store.push_back(cells.data() + i * dom.width);
    }
    index.rebuild(store);
    edges = resume->edges;
    for (const auto& out : edges) edges_added += out.size();
    pending_enabled.assign(store.size(), {});
    for (std::size_t k = 0; k < resume->frontier.size(); ++k) {
      pending_enabled[resume->frontier[k]] = resume->frontier_enabled[k];
      frontier.push_back(StateId(resume->frontier[k]));
    }
  } else {
    std::vector<Cell> m0;
    dom.initial_row(m0);
    c_hash_lookups.add();
    auto r0 = index.intern(m0.data(), store, options.max_states);
    if (r0.id == kNoId) throw limit_error();
    edges.emplace_back();
    pending_enabled.push_back(net.enabled_transitions(net.initial_marking()));
    c_states.add();
    frontier.push_back(rg.initial());
  }

  const bool checkpointing = !options.checkpoint_path.empty() &&
                             options.checkpoint_every_states > 0;
  const std::uint64_t net_hash = checkpointing ? canonical_hash(net) : 0;
  std::size_t next_checkpoint =
      checkpointing ? store.size() + options.checkpoint_every_states : 0;
  std::size_t checkpoints_written = 0;
  // Snapshot at the loop head: every expanded state's edges are complete
  // and every frontier state's enabled set is still pending, so a resumed
  // run replays the identical discovery order.
  auto maybe_checkpoint = [&] {
    if (!checkpointing || store.size() < next_checkpoint) return;
    const std::size_t frontier_size = frontier.size();
    reach_detail::CheckpointImage image;
    image.packed = Domain::kIsPacked;
    image.net_hash = net_hash;
    image.cell_size = sizeof(Cell);
    image.places = net.place_count();
    image.width = dom.width;
    image.state_count = store.size();
    image.arena.assign(reinterpret_cast<const char*>(store.row(0)),
                       store.size() * dom.width * sizeof(Cell));
    image.edges = edges;
    image.frontier.reserve(frontier_size);
    image.frontier_enabled.reserve(frontier_size);
    for (StateId f : frontier) {
      image.frontier.push_back(static_cast<std::uint32_t>(f.index()));
      image.frontier_enabled.push_back(pending_enabled[f.index()]);
    }
    next_checkpoint = store.size() + options.checkpoint_every_states;
    try {
      reach_detail::write_checkpoint(options.checkpoint_path, image);
      c_ckpt_writes.add();
      obs::FlightRecorder::instance().record(obs::FlightKind::kCustom, 0,
                                             "store.ckpt.write", store.size(),
                                             frontier_size);
      ++checkpoints_written;
      if (options.crash_after_checkpoints != 0 &&
          checkpoints_written >= options.crash_after_checkpoints) {
        std::raise(SIGKILL);  // deterministic crash for resume_smoke.sh
      }
    } catch (const Error&) {
      // A failed checkpoint write (real or injected store.write /
      // store.fsync) costs durability, not progress.
      c_persist_errors.add();
      obs::FlightRecorder::instance().record(obs::FlightKind::kCustom, 0,
                                             "store.persist.error",
                                             store.size(), frontier_size);
    }
  };

  std::vector<Cell> scratch;
  std::vector<TransitionId> candidates;
  while (!frontier.empty() && !truncated) {
    maybe_checkpoint();
    g_frontier_peak.set_max(frontier.size());
    h_frontier.record(frontier.size());
    StateId s = frontier.front();
    frontier.pop_front();
    progress.update(store.size(), frontier.size());
    options.cancel.check("reach.explore");
    if (CIPNET_FAULT_FIRES(f_cancel)) {
      throw Cancelled("reach.explore", options.cancel.elapsed_ms(), false);
    }
    dom.state_check();
    if (options.max_graph_bytes != 0 &&
        approx_bytes() > options.max_graph_bytes) {
      if (options.truncate_on_limit) {
        truncated = true;
        obs::FlightRecorder::instance().record(
            obs::FlightKind::kTruncated, 0, "reach.explore.bytes",
            store.size(), approx_bytes());
        break;
      }
      sample_memory();
      throw LimitError(
          "reachability exploration exceeded memory budget of " +
              std::to_string(options.max_graph_bytes) + " bytes",
          LimitContext{store.size(), edges_added, options.max_graph_bytes});
    }
    const std::vector<TransitionId> enabled =
        std::move(pending_enabled[s.index()]);
    h_enabled.record(enabled.size());
    for (TransitionId t : enabled) {
      // Re-fetch the row per edge: interning a fresh successor may grow
      // the arena under the pointer.
      dom.fire(store.row(s.index()), t, scratch);
      c_hash_lookups.add();
      auto r = index.intern(scratch.data(), store, options.max_states);
      if (r.id == kNoId) {
        if (options.truncate_on_limit) {
          truncated = true;
          obs::FlightRecorder::instance().record(
              obs::FlightKind::kTruncated, 0, "reach.explore.states",
              store.size(), options.max_states);
          break;
        }
        throw limit_error();
      }
      StateId target(r.id);
      edges[s.index()].push_back(ReachabilityGraph::Edge{t, target});
      ++edges_added;
      c_edges.add();
      if (r.fresh) {
        edges.emplace_back();
        pending_enabled.emplace_back();
        reach_detail::delta_enabled_t(dom, enabled, t, store.row(r.id),
                                      pending_enabled.back(), candidates);
        c_states.add();
        frontier.push_back(target);
      }
    }
    if ((store.size() & 0x3ff) == 0) sample_memory();
  }
  sample_memory();
  Access::set_truncated(rg, truncated);
  dom.bind(rg);
  return rg;
}

}  // namespace

ReachabilityGraph explore(const PetriNet& net, const ReachOptions& options) {
  if (options.engine == ReachEngine::kPacked) {
    throw Error("reach engine 'packed' is not a request; use auto or dense");
  }
  // Optimistic selection: packed whenever M0 has a 1-safe encoding. A firing
  // that would put a second token on a place throws `PackedUnsafe` and the
  // exploration reruns dense — the only 1-safety guard.
  bool use_packed = options.engine == ReachEngine::kAuto &&
                    net.initial_marking().is_safe();
  reach_detail::CheckpointImage resume_image;
  const reach_detail::CheckpointImage* resume = nullptr;
  if (!options.resume_path.empty()) {
    reach_detail::LoadResult loaded;
    try {
      loaded = reach_detail::load_checkpoint(options.resume_path);
    } catch (const Error&) {
      // Read failure (real I/O trouble or the injected store.load fault):
      // transient, so the file is left alone — no quarantine — and the
      // exploration starts cold. Resume is never a correctness dependency.
      c_corrupt_skipped.add();
      obs::FlightRecorder::instance().record(
          obs::FlightKind::kCustom, 0, "store.corrupt.skipped: read failure",
          0, 0);
      loaded.status = reach_detail::LoadStatus::kMissing;
    }
    if (loaded.status == reach_detail::LoadStatus::kCorrupt) {
      // Quarantine the evidence and fall back to a fresh exploration —
      // a bad checkpoint must never take the analysis down with it.
      c_corrupt_skipped.add();
      store::quarantine_file(options.resume_path);
      obs::FlightRecorder::instance().record(
          obs::FlightKind::kCustom, 0, "store.corrupt.skipped: " + loaded.why,
          0, 0);
    } else if (loaded.status == reach_detail::LoadStatus::kOk) {
      // Where packed is on the table, the image decides the engine: a dense
      // checkpoint of this net means the packed attempt already failed.
      const bool image_packed = use_packed && loaded.image.packed;
      const std::string reject =
          reach_detail::validate_checkpoint(loaded.image, net, image_packed);
      if (!reject.empty()) {
        c_resume_rejected.add();
        obs::FlightRecorder::instance().record(
            obs::FlightKind::kCustom, 0, "store.resume.rejected: " + reject,
            loaded.image.state_count, 0);
      } else {
        use_packed = image_packed;
        resume_image = std::move(loaded.image);
        resume = &resume_image;
        c_resume_loaded.add();
        obs::FlightRecorder::instance().record(
            obs::FlightKind::kCustom, 0, "store.resume.loaded",
            resume_image.state_count, resume_image.frontier.size());
      }
    }
  }
  if (use_packed) {
    c_packed_selected.add();
    g_packed_words.set(packed::word_count(net.place_count()));
    try {
      const reach_detail::PackedDomain dom(net);
      return explore_seq(dom, net, options, resume);
    } catch (const reach_detail::PackedUnsafe&) {
      // The net is not 1-safe after all, or the reach.packed.fallback fault
      // fired: rerun on the dense engine.
      c_packed_fallbacks.add();
    }
  }
  const reach_detail::DenseDomain dom(net);
  // A checkpoint validated for the packed engine cannot seed the dense
  // fallback rerun — geometry differs; the rerun starts fresh.
  return explore_seq(dom, net, options, use_packed ? nullptr : resume);
}

}  // namespace cipnet
