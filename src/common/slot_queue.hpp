// FIFO queue whose records live in reusable slots.
//
// The MAC and forwarding queues hold records that own byte buffers. A
// std::deque destroys a record on pop, freeing its buffer, and allocates
// a new block every few pushes. SlotQueue keeps its records in one ring
// that only grows: a popped slot keeps its buffer's capacity for the
// push that reuses it, so a queue that stays within its largest depth so
// far allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace fourbit {

template <typename T>
class SlotQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    FOURBIT_ASSERT(size_ > 0, "front of an empty SlotQueue");
    return slots_[head_];
  }

  /// Appends a record and returns its slot. A reused slot still holds an
  /// earlier record's values, so the caller assigns every field. The
  /// ring may grow here, which invalidates references into the queue.
  [[nodiscard]] T& push_back() {
    if (size_ == slots_.size()) grow();
    std::size_t at = head_ + size_;
    if (at >= slots_.size()) at -= slots_.size();
    ++size_;
    return slots_[at];
  }

  /// Drops the front record. Its slot keeps its storage for a later
  /// push_back; move out of front() first whatever must outlive the pop.
  void pop_front() {
    FOURBIT_ASSERT(size_ > 0, "pop from an empty SlotQueue");
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }

  /// Drops every record and frees every slot.
  void clear() {
    slots_.clear();
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInitialSlots = 4;

  void grow() {
    std::vector<T> bigger(std::max(kInitialSlots, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      std::size_t at = head_ + i;
      if (at >= slots_.size()) at -= slots_.size();
      bigger[i] = std::move(slots_[at]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fourbit
