#pragma once

// Cache-friendly storage for explicit state-space construction. Explicit
// explorers (reach::explore, the Karp-Miller tree, the STG state-graph
// builder) intern millions of small fixed-width rows; giving each its own
// heap-allocated `Marking` plus an `std::unordered_map` node costs two
// pointer chases and ~48 bytes of overhead per state. Instead:
//
//  * `BasicMarkingStore<Cell>` — one flat `std::vector<Cell>` arena. Row
//    `i` lives at `[i*width, (i+1)*width)`, so a linear pass over all
//    states is a linear pass over memory (the subsumption scan in
//    coverability, the checkpoint snapshot of the explorer).
//  * `BasicMarkingInterner<Cell>` — an open-addressing linear-probe table
//    of `{hash, id}` slots over a store. One probe answers both "have we
//    seen this row?" and "what is its id?", and inserts on a miss — the
//    classic `contains()`-then-`emplace()` double lookup becomes a single
//    `intern()` returning `{id, fresh}`.
//
// Both are cell- and width-generic. The dense engine uses `Cell = Token`
// rows of `place_count` entries; the STG builder uses combined `Token`
// rows of `place_count + signal_count` (marking ++ encoding); the packed
// 1-safe engine uses `Cell = std::uint64_t` rows of `ceil(places/64)`
// words — one bit per place, which is where the 8-32x arena shrink and the
// one-word hash/compare of docs/PERFORMANCE.md come from. Neither class is
// thread-safe.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "petri/marking.h"

namespace cipnet {

namespace marking_detail {
/// Out-of-line obs/fault hooks (marking_store.cpp) so the templates stay
/// header-only without dragging metrics/fault headers into every includer:
/// probe-length histogram `reach.interner.probe` and the
/// `reach.store.grow` allocation-failure fault site.
void record_probe(std::uint64_t probes);
void grow_fault_check();
}  // namespace marking_detail

/// Stable, schedule-independent 64-bit hash of one row: FNV-1a over the
/// cells (tokens or packed words alike), widened per element, then an xmx
/// avalanche so the low bits (table index) are well mixed. A fixed
/// algorithm, not `std::hash`, so probe sequences are reproducible.
template <class Cell>
[[nodiscard]] std::uint64_t row_hash_cells(const Cell* row,
                                           std::size_t width) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (width * 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < width; ++i) {
    h ^= static_cast<std::uint64_t>(row[i]);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// The dense-token instantiation, kept under its historical name.
[[nodiscard]] inline std::uint64_t row_hash(const Token* row,
                                            std::size_t width) {
  return row_hash_cells(row, width);
}

/// A flat arena of fixed-width rows.
template <class Cell>
class BasicMarkingStore {
 public:
  BasicMarkingStore() = default;
  explicit BasicMarkingStore(std::size_t width) : width_(width) {}

  /// Drops all rows and switches to a new row width.
  void reset(std::size_t width) {
    width_ = width;
    count_ = 0;
    arena_.clear();
  }

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Pointer to row `i`; invalidated by `push_back` growth (copy the row
  /// out before interleaving reads with inserts).
  [[nodiscard]] const Cell* row(std::size_t i) const {
    return arena_.data() + i * width_;
  }

  /// Dense-token stores only: a `MarkingView` of row `i` (instantiated on
  /// use, so packed stores simply never call it).
  [[nodiscard]] MarkingView view(std::size_t i) const {
    return MarkingView(row(i), width_);
  }

  /// Appends a copy of `row` (width cells); returns its index.
  std::size_t push_back(const Cell* row) {
    arena_.insert(arena_.end(), row, row + width_);
    return count_++;
  }

  void reserve(std::size_t rows) { arena_.reserve(rows * width_); }

  /// Bytes held by the arena (capacity, not size — this is what the
  /// `reach.graph_bytes` estimate charges for markings).
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.capacity() * sizeof(Cell);
  }

 private:
  std::size_t width_ = 0;
  std::size_t count_ = 0;
  std::vector<Cell> arena_;
};

/// Open-addressing linear-probe interner over a `BasicMarkingStore`: slots
/// hold `{hash, id}` where `id` indexes the store. Growth rehashes from
/// the stored hashes without touching the rows. Ids are dense and assigned
/// in interning order.
template <class Cell>
class BasicMarkingInterner {
 public:
  /// Sentinel id returned by `intern` when the row is fresh but the
  /// caller's state budget is exhausted (nothing was inserted).
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  struct Result {
    std::uint32_t id = kNoId;
    bool fresh = false;
  };

  /// Single-probe intern: returns `{id, false}` for a known row. For a
  /// fresh row, appends it to `store` and returns `{new_id, true}` — unless
  /// the store already holds `limit` rows, in which case `{kNoId, true}`
  /// comes back and nothing is modified (the caller turns this into its
  /// own LimitError).
  Result intern(const Cell* row, BasicMarkingStore<Cell>& store,
                std::size_t limit = kNoId) {
    const std::uint64_t hash = row_hash_cells(row, store.width());
    if (slots_.empty() || over_loaded(count_, slots_.size())) {
      grow(next_pow2((count_ + 1) * 8 / 7 + 1));
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    std::uint64_t probes = 1;
    while (slots_[i].id != kNoId) {
      if (slots_[i].hash == hash &&
          rows_equal(store.row(slots_[i].id), row, store.width())) {
        marking_detail::record_probe(probes);
        return Result{slots_[i].id, false};
      }
      i = (i + 1) & mask;
      ++probes;
    }
    marking_detail::record_probe(probes);
    if (store.size() >= limit) return Result{kNoId, true};
    const auto id = static_cast<std::uint32_t>(store.push_back(row));
    slots_[i] = Slot{hash, id};
    ++count_;
    return Result{id, true};
  }

  /// Probe without inserting.
  [[nodiscard]] std::optional<std::uint32_t> find(
      const Cell* row, const BasicMarkingStore<Cell>& store) const {
    if (slots_.empty()) return std::nullopt;
    const std::uint64_t hash = row_hash_cells(row, store.width());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i].id != kNoId) {
      if (slots_[i].hash == hash &&
          rows_equal(store.row(slots_[i].id), row, store.width())) {
        return slots_[i].id;
      }
      i = (i + 1) & mask;
    }
    return std::nullopt;
  }

  /// Re-index every row already in `store` (table is cleared first). The
  /// explorer uses this to seed a resumed run from checkpointed rows.
  void rebuild(const BasicMarkingStore<Cell>& store) {
    slots_.clear();
    count_ = store.size();
    slots_.assign(next_pow2(count_ * 8 / 7 + 1), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < store.size(); ++id) {
      const std::uint64_t hash = row_hash_cells(store.row(id), store.width());
      std::size_t i = static_cast<std::size_t>(hash) & mask;
      while (slots_[i].id != kNoId) i = (i + 1) & mask;
      slots_[i] = Slot{hash, static_cast<std::uint32_t>(id)};
    }
  }

  /// Pre-size the table for `expected` entries (rounds up to a power of
  /// two honoring the load factor) to avoid rehash storms mid-explore.
  void reserve(std::size_t expected) {
    const std::size_t want = next_pow2(expected * 8 / 7 + 1);
    if (want > slots_.size()) grow(want);
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Bytes held by the slot table — the `reach.index_bytes` estimate.
  [[nodiscard]] std::size_t table_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kNoId;  // kNoId = empty slot
  };

  /// Max load factor 7/8 before growing: linear probing stays short and
  /// the table is still 12 bytes/state — far below the ~56 bytes/node of
  /// the `unordered_map<Marking, StateId>` it replaces.
  static bool over_loaded(std::size_t count, std::size_t slots) {
    return (count + 1) * 8 > slots * 7;
  }

  static std::size_t next_pow2(std::size_t n) {
    std::size_t p = 16;  // kMinSlots
    while (p < n) p <<= 1;
    return p;
  }

  static bool rows_equal(const Cell* a, const Cell* b, std::size_t width) {
    return width == 0 || std::memcmp(a, b, width * sizeof(Cell)) == 0;
  }

  void grow(std::size_t min_slots) {
    // Every growth event — the `reserve()` pre-size and load-factor
    // doublings alike — is one hit at the `reach.store.grow` allocation
    // fault point.
    marking_detail::grow_fault_check();
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(next_pow2(min_slots), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNoId) continue;
      std::size_t i = static_cast<std::size_t>(s.hash) & mask;
      while (slots_[i].id != kNoId) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// Dense rows: one `Token` per place (general nets).
using MarkingStore = BasicMarkingStore<Token>;
using MarkingInterner = BasicMarkingInterner<Token>;

/// Packed rows: one bit per place, 64 places per word (1-safe nets only).
using PackedMarkingStore = BasicMarkingStore<std::uint64_t>;
using PackedMarkingInterner = BasicMarkingInterner<std::uint64_t>;

}  // namespace cipnet
