// Fixed-capacity neighbor table with the pin bit.
//
// RAM limits on sensornet nodes mean the table is small (the paper uses
// 10 entries) — choosing *which* links to track is as important as the
// estimates themselves. The table enforces the pin bit: pinned entries
// are never evicted by any policy.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/ids.hpp"
#include "sim/rng.hpp"

namespace fourbit::link {

/// `EntryData` holds the estimator-specific per-link state.
template <typename EntryData>
class NeighborTable {
 public:
  struct Entry {
    NodeId node;
    bool pinned = false;
    EntryData data;
  };

  /// capacity == 0 means unbounded (the "CTP unconstrained" baseline).
  explicit NeighborTable(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool unbounded() const { return capacity_ == 0; }
  [[nodiscard]] bool full() const {
    return !unbounded() && entries_.size() >= capacity_;
  }

  [[nodiscard]] Entry* find(NodeId n) {
    for (auto& e : entries_) {
      if (e.node == n) return &e;
    }
    return nullptr;
  }
  [[nodiscard]] const Entry* find(NodeId n) const {
    for (const auto& e : entries_) {
      if (e.node == n) return &e;
    }
    return nullptr;
  }

  /// Inserts a new entry if there is room (or the table is unbounded).
  /// Returns the entry, or nullptr if the table is full. `n` must not
  /// already be present.
  Entry* insert(NodeId n, EntryData data = EntryData{}) {
    FOURBIT_ASSERT(find(n) == nullptr, "node already in table");
    if (full()) return nullptr;
    entries_.push_back(Entry{n, false, std::move(data)});
    return &entries_.back();
  }

  /// Evicts a uniformly random unpinned entry (the paper's replacement
  /// rule for white+compare insertions). Returns the victim's id — so
  /// telemetry can attribute the eviction — or nullopt if every entry is
  /// pinned.
  std::optional<NodeId> evict_random_unpinned(sim::Rng& rng) {
    // Draw the k-th unpinned entry in table order, without building a
    // candidate list.
    std::size_t unpinned = 0;
    for (const auto& e : entries_) {
      if (!e.pinned) ++unpinned;
    }
    if (unpinned == 0) return std::nullopt;
    std::size_t k = rng.uniform_int(unpinned);
    auto victim = entries_.begin();
    while (victim->pinned || k-- != 0) ++victim;
    const NodeId evicted = victim->node;
    entries_.erase(victim);
    return evicted;
  }

  /// Evicts the unpinned entry for which `worse(a, b)` ranks it last —
  /// i.e. the entry e maximizing the ordering (used by baseline policies
  /// that evict the worst link). Returns the victim's id, or nullopt if
  /// every entry is pinned.
  template <typename WorseThan>
  std::optional<NodeId> evict_worst_unpinned(WorseThan worse) {
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].pinned) continue;
      if (victim == entries_.size() ||
          worse(entries_[victim], entries_[i])) {
        victim = i;
      }
    }
    if (victim == entries_.size()) return std::nullopt;
    const NodeId evicted = entries_[victim].node;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    return evicted;
  }

  /// Removes `n` if present and unpinned. Returns true if removed.
  bool remove(NodeId n) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].node == n) {
        if (entries_[i].pinned) return false;
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool pin(NodeId n) {
    if (Entry* e = find(n)) {
      e->pinned = true;
      return true;
    }
    return false;
  }

  void unpin(NodeId n) {
    if (Entry* e = find(n)) e->pinned = false;
  }

  void clear_pins() {
    for (auto& e : entries_) e.pinned = false;
  }

  /// Drops every entry, pinned or not (a node reboot wipes RAM; the pin
  /// bit does not survive a crash).
  void clear() { entries_.clear(); }

  /// Nodes whose entries are currently pinned (supervision/audit hook).
  [[nodiscard]] std::vector<NodeId> pinned_nodes() const {
    std::vector<NodeId> out;
    for (const auto& e : entries_) {
      if (e.pinned) out.push_back(e.node);
    }
    return out;
  }

  [[nodiscard]] std::vector<Entry>& entries() { return entries_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace fourbit::link
