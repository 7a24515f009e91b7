#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace fourbit::sim {

EventQueue::EventQueue(Impl impl) : impl_(impl) {
  if (impl_ == Impl::kCalendar) {
    bucket_count_ = kMinBuckets;
    mask_ = bucket_count_ - 1;
    buckets_.assign(bucket_count_, Bucket{});
  }
}

// ---- slab ---------------------------------------------------------------

std::uint32_t EventQueue::alloc_node(Time at, Callback cb) {
  std::uint32_t h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
  } else {
    FOURBIT_ASSERT(slab_.size() < 0xFFFFFFFEu, "event slab exhausted");
    h = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Node& n = slab_[h];
  n.time = at;
  n.seq = next_seq_++;
  n.prev = kNil;
  n.next = kNil;
  n.cb = std::move(cb);
  return h;
}

void EventQueue::free_node(std::uint32_t h) {
  Node& n = slab_[h];
  n.cb = nullptr;
  // Bump the generation so every EventId issued for this slot so far is
  // dead; the next occupant is issued the new generation.
  ++n.gen;
  free_.push_back(h);
}

std::uint32_t EventQueue::handle_of(EventId id) const {
  if (!id.valid()) return kNil;
  const std::uint64_t slot = (id.raw() >> 32) - 1;
  if (slot >= slab_.size()) return kNil;
  if (slab_[slot].gen != static_cast<std::uint32_t>(id.raw())) return kNil;
  return static_cast<std::uint32_t>(slot);
}

// ---- public API -----------------------------------------------------------

EventId EventQueue::schedule(Time at, Callback cb) {
  FOURBIT_ASSERT(cb != nullptr, "cannot schedule a null callback");
  const std::uint32_t h = alloc_node(at, std::move(cb));
  const EventId id = id_of(h);
  ++live_;
  if (impl_ == Impl::kHeap) {
    slab_[h].prev = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(h);
    heap_sift_up(heap_.size() - 1);
  } else {
    // Defensive: the Simulator never schedules before the last popped
    // time, but direct users may; lowering the floor keeps the lap scan
    // correct for any input.
    if (at.us() < floor_us_) floor_us_ = at.us();
    cal_link(h);
    if (peek_ != kNil && at < slab_[peek_].time) peek_ = h;
    if (live_ > bucket_count_ * 2) {
      cal_rebuild(bucket_count_ * 2, target_width());
    }
  }
  return id;
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t h = handle_of(id);
  if (h == kNil) return;
  if (impl_ == Impl::kHeap) {
    const std::size_t pos = slab_[h].prev;
    free_node(h);
    heap_remove_at(pos);
  } else {
    if (peek_ == h) peek_ = kNil;
    cal_unlink(h);
    free_node(h);
  }
  --live_;
}

Time EventQueue::next_time() const {
  FOURBIT_ASSERT(live_ > 0, "next_time on an empty queue");
  if (impl_ == Impl::kHeap) return slab_[heap_.front()].time;
  return slab_[cal_locate_min()].time;
}

EventQueue::Popped EventQueue::pop() {
  FOURBIT_ASSERT(live_ > 0, "pop on an empty queue");
  const std::uint32_t h =
      impl_ == Impl::kHeap ? heap_.front() : cal_locate_min();
  Node& n = slab_[h];
  Popped out{n.time, std::move(n.cb)};
  if (impl_ == Impl::kHeap) {
    free_node(h);
    heap_remove_at(0);
  } else {
    std::int64_t gap = n.time.us() - floor_us_;
    if (gap < 0) gap = 0;
    constexpr std::int64_t kGapCap = std::int64_t{1} << 40;  // ~12.7 days
    if (gap > kGapCap) gap = kGapCap;
    gap_ema_q8_ = (7 * gap_ema_q8_ + (gap << 8)) / 8;
    floor_us_ = n.time.us();
    peek_ = kNil;
    cal_unlink(h);
    free_node(h);
  }
  --live_;
  if (impl_ == Impl::kCalendar) cal_maybe_resize_after_pop();
  return out;
}

void EventQueue::clear() {
  if (impl_ == Impl::kHeap) {
    for (const std::uint32_t h : heap_) free_node(h);
    heap_.clear();
  } else {
    for (Bucket& b : buckets_) {
      std::uint32_t h = b.head;
      while (h != kNil) {
        const std::uint32_t next = slab_[h].next;
        free_node(h);
        h = next;
      }
      b = Bucket{};
    }
    peek_ = kNil;
    floor_us_ = 0;
    gap_ema_q8_ = 0;
    lap_misses_ = 0;
  }
  live_ = 0;
}

// ---- binary heap (reference path) ------------------------------------------

void EventQueue::heap_sift_up(std::size_t pos) {
  const std::uint32_t h = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!key_less(h, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos]].prev = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = h;
  slab_[h].prev = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_sift_down(std::size_t pos) {
  const std::uint32_t h = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && key_less(heap_[child + 1], heap_[child])) ++child;
    if (!key_less(heap_[child], h)) break;
    heap_[pos] = heap_[child];
    slab_[heap_[pos]].prev = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = h;
  slab_[h].prev = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_remove_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slab_[heap_[pos]].prev = static_cast<std::uint32_t>(pos);
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The relocated element may belong either above or below `pos`.
    heap_sift_down(pos);
    heap_sift_up(pos);
  }
}

// ---- calendar ---------------------------------------------------------------

void EventQueue::cal_link(std::uint32_t h) {
  Bucket& b = buckets_[bucket_of(slab_[h].time)];
  Node& n = slab_[h];
  // Reset explicitly: rebuilds relink nodes whose chain pointers are
  // stale from the previous layout.
  n.prev = kNil;
  n.next = kNil;
  if (b.head == kNil) {
    b.head = b.tail = h;
    return;
  }
  // Chains stay sorted by (time, seq) so the chain head is the chain
  // min and the common rising-time / same-time pattern appends in O(1).
  if (!key_less(h, b.tail)) {
    n.prev = b.tail;
    slab_[b.tail].next = h;
    b.tail = h;
    return;
  }
  std::uint32_t cur = b.head;
  while (!key_less(h, cur)) cur = slab_[cur].next;
  n.next = cur;
  n.prev = slab_[cur].prev;
  slab_[cur].prev = h;
  if (n.prev == kNil) {
    b.head = h;
  } else {
    slab_[n.prev].next = h;
  }
}

void EventQueue::cal_unlink(std::uint32_t h) {
  Bucket& b = buckets_[bucket_of(slab_[h].time)];
  Node& n = slab_[h];
  if (n.prev == kNil) {
    b.head = n.next;
  } else {
    slab_[n.prev].next = n.next;
  }
  if (n.next == kNil) {
    b.tail = n.prev;
  } else {
    slab_[n.next].prev = n.prev;
  }
  n.prev = kNil;
  n.next = kNil;
}

std::uint32_t EventQueue::cal_locate_min() const {
  if (peek_ != kNil) return peek_;
  // Walk consecutive "year" windows starting at the floor. Every live
  // event is >= floor_us_, chains are sorted, and exactly one bucket
  // serves each window — so the first chain head inside its window is
  // the global minimum.
  std::int64_t year = floor_div(floor_us_, width_us_);
  for (std::uint64_t step = 0; step < bucket_count_; ++step, ++year) {
    const Bucket& b =
        buckets_[static_cast<std::size_t>(static_cast<std::uint64_t>(year) &
                                          mask_)];
    if (b.head == kNil) continue;
    const std::int64_t window_end = (year + 1) * width_us_;
    if (slab_[b.head].time.us() < window_end) {
      peek_ = b.head;
      return b.head;
    }
  }
  // A full lap found nothing in-window: everything is more than one
  // year out. Fall back to a head-of-chain sweep (chains are sorted, so
  // this is O(buckets), not O(live)).
  ++lap_misses_;
  std::uint32_t best = kNil;
  for (const Bucket& b : buckets_) {
    if (b.head == kNil) continue;
    if (best == kNil || key_less(b.head, best)) best = b.head;
  }
  peek_ = best;
  return best;
}

std::int64_t EventQueue::target_width() const {
  // ~3 head-rate event gaps per bucket (Brown's rule of thumb).
  const std::int64_t w = (3 * gap_ema_q8_) >> 8;
  return w < 1 ? 1 : w;
}

void EventQueue::cal_rebuild(std::uint64_t new_buckets,
                             std::int64_t new_width) {
  // A member, so a queue whose load swings between two sizes rebuilds
  // without allocating once its buffers have grown.
  std::vector<std::uint32_t>& live = rebuild_scratch_;
  live.clear();
  live.reserve(live_);
  std::int64_t min_us = 0;
  std::int64_t max_us = 0;
  bool first = true;
  for (const Bucket& b : buckets_) {
    for (std::uint32_t h = b.head; h != kNil; h = slab_[h].next) {
      live.push_back(h);
      const std::int64_t t = slab_[h].time.us();
      if (first || t < min_us) min_us = t;
      if (first || t > max_us) max_us = t;
      first = false;
    }
  }
  if (new_width <= 0) new_width = 1;
  if (gap_ema_q8_ == 0 && live.size() >= 2) {
    // No pops observed yet (boot storm): size the width off the live
    // span instead so the first lap scan already lands in-window.
    const std::int64_t span = max_us - min_us;
    const std::int64_t w = 2 * span / static_cast<std::int64_t>(live.size());
    if (w > new_width) new_width = w;
  }
  bucket_count_ = new_buckets < kMinBuckets ? kMinBuckets : new_buckets;
  mask_ = bucket_count_ - 1;
  width_us_ = new_width;
  buckets_.assign(static_cast<std::size_t>(bucket_count_), Bucket{});
  // Relinking in key order makes every insert an O(1) append even when
  // many events share a bucket.
  std::sort(live.begin(), live.end(),
            [this](std::uint32_t a, std::uint32_t b) { return key_less(a, b); });
  for (const std::uint32_t h : live) cal_link(h);
  lap_misses_ = 0;
  ++resizes_;
  if (resize_observer_) resize_observer_();
}

void EventQueue::cal_maybe_resize_after_pop() {
  ++pops_since_check_;
  if (bucket_count_ > kMinBuckets && live_ < bucket_count_ / 8) {
    cal_rebuild(bucket_count_ / 2, target_width());
    pops_since_check_ = 0;
    return;
  }
  if (lap_misses_ >= 32) {
    // The lap scan keeps falling through to the global sweep: the year
    // (buckets * width) is too short for the live distribution. Widen
    // geometrically; the drift check below narrows it back once the
    // head rate recovers.
    std::int64_t w = width_us_ * 8;
    const std::int64_t t = target_width();
    if (t > w) w = t;
    cal_rebuild(bucket_count_, w);
    pops_since_check_ = 0;
    return;
  }
  if (pops_since_check_ >= 1024) {
    pops_since_check_ = 0;
    const std::int64_t t = target_width();
    if (8 * width_us_ < t) {
      // Width far too narrow for the head rate: widen unconditionally.
      cal_rebuild(bucket_count_, t);
    } else if (width_us_ > 8 * t && lap_misses_ == 0) {
      // Narrow only while the lap scan is clean. A width the drift
      // check considers "too wide" may be exactly what a prior lap-miss
      // widening bought; narrowing it back while misses still occur
      // re-creates them and the two rules rebuild-oscillate.
      cal_rebuild(bucket_count_, t);
    }
  }
}

}  // namespace fourbit::sim
