// Pending-event set of the discrete-event kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace fourbit::sim {

/// Handle for cancelling a scheduled event. Default-constructed handles
/// are inert. Handles are opaque: only valid(), equality, and raw()
/// (for logging) are part of the contract.
class EventId {
 public:
  constexpr EventId() = default;

  [[nodiscard]] constexpr bool valid() const { return id_ != 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return id_; }

  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  constexpr explicit EventId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Timestamped-callback set with two interchangeable implementations:
///
///  * kCalendar (default): a classic calendar queue — buckets of
///    sorted intrusive lists indexed by (time / width) mod buckets,
///    self-resizing bucket count and width, O(1) amortized schedule /
///    pop / cancel. The only queue the Simulator builds.
///  * kHeap: a binary heap over the same node slab — O(log n) but
///    distribution-insensitive. Kept only as the reference the
///    randomized equivalence test and the queue benchmarks compare the
///    calendar against.
///
/// Both implementations pop in identical (time, seq) order: ties in
/// time break by insertion order, so same-time events run FIFO — a
/// property several MAC/timer interactions rely on and tests assert.
/// Events live in a generation-checked slab, so cancel() validates the
/// handle exactly: cancelling a fired, cancelled, or recycled id is a
/// precise no-op on both paths.
class EventQueue {
 public:
  using Callback = EventCallback;

  enum class Impl : std::uint8_t { kHeap, kCalendar };

  explicit EventQueue(Impl impl = Impl::kCalendar);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute time `at`. `at` must be >= the time of the
  /// last popped event (enforced by the Simulator, not here).
  EventId schedule(Time at, Callback cb);

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Must not be called when empty.
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest event's callback along with its
  /// time. Must not be called when empty.
  struct Popped {
    Time time;
    Callback callback;
  };
  Popped pop();

  /// Drops every pending event (used at simulation teardown).
  void clear();

  [[nodiscard]] Impl impl() const { return impl_; }

  /// Number of calendar rebuilds (bucket-count or width changes) so
  /// far; always 0 on the heap path. Exported as sim/eq_resizes.
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

  /// Invoked after every calendar rebuild (off the hot path); the
  /// Simulator hooks this to bump the sim/eq_resizes counter.
  void set_resize_observer(std::function<void()> fn) {
    resize_observer_ = std::move(fn);
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint64_t kMinBuckets = 64;

  /// Slab node. Handles (slab indices) are stable across slab growth
  /// and rebuilds; `gen` is bumped on free so stale EventIds never
  /// alias a recycled slot.
  struct Node {
    Time time;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    // kCalendar: prev/next in the bucket's sorted chain.
    // kHeap: `prev` holds the node's index in heap_; `next` is unused.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    Callback cb;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // ---- slab -----------------------------------------------------------
  std::uint32_t alloc_node(Time at, Callback cb);
  void free_node(std::uint32_t h);
  [[nodiscard]] std::uint32_t handle_of(EventId id) const;
  [[nodiscard]] EventId id_of(std::uint32_t h) const {
    return EventId{(static_cast<std::uint64_t>(h) + 1) << 32 |
                   slab_[h].gen};
  }
  [[nodiscard]] bool key_less(std::uint32_t a, std::uint32_t b) const {
    const Node& na = slab_[a];
    const Node& nb = slab_[b];
    if (na.time != nb.time) return na.time < nb.time;
    return na.seq < nb.seq;
  }

  // ---- binary heap (reference path) ------------------------------------
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);
  void heap_remove_at(std::size_t pos);

  // ---- calendar ---------------------------------------------------------
  [[nodiscard]] static std::int64_t floor_div(std::int64_t a,
                                              std::int64_t b) {
    std::int64_t q = a / b;
    if (a % b != 0 && (a < 0) != (b < 0)) --q;
    return q;
  }
  [[nodiscard]] std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(floor_div(t.us(), width_us_)) & mask_);
  }
  void cal_link(std::uint32_t h);
  void cal_unlink(std::uint32_t h);
  [[nodiscard]] std::uint32_t cal_locate_min() const;
  [[nodiscard]] std::int64_t target_width() const;
  void cal_rebuild(std::uint64_t new_buckets, std::int64_t new_width);
  void cal_maybe_resize_after_pop();

  Impl impl_;
  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;

  // Heap state: handles arranged as a binary min-heap by (time, seq).
  std::vector<std::uint32_t> heap_;

  // Calendar state.
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> rebuild_scratch_;  // cal_rebuild's live list
  std::uint64_t bucket_count_ = 0;
  std::uint64_t mask_ = 0;
  std::int64_t width_us_ = 1;
  std::int64_t floor_us_ = 0;  // no live event is earlier than this
  // EMA of inter-pop gaps in Q8 fixed point (value << 8). Plain integer
  // µs truncates to zero for sub-8µs gaps — (7*0 + 6)/8 == 0 — which
  // collapses target_width() to 1 and sends the calendar into a
  // widen/narrow rebuild oscillation at high event rates.
  std::int64_t gap_ema_q8_ = 0;
  std::uint64_t pops_since_check_ = 0;
  std::uint64_t resizes_ = 0;
  mutable std::uint32_t peek_ = kNil;  // cached min handle, kNil = unknown
  mutable std::uint64_t lap_misses_ = 0;
  std::function<void()> resize_observer_;
};

}  // namespace fourbit::sim
