// Slot storage for the bodies of queued simulator events.
//
// The event heap holds small, trivially copyable keys; what an event carries
// beyond its key (the message of a delivery or data frame, the function of
// a harness call) is parked here under a slot index and moved out when the
// event dispatches.  Freed slots are reused last-in first-out, so a steady
// stream of in-flight messages recycles the same few slots instead of
// allocating per event.  The slots live in a deque: growing never moves the
// values already parked and never needs one large contiguous block.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace ddbg {

template <typename T>
class Slab {
 public:
  // Park `value`; returns its slot.
  std::uint32_t put(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(value));
      live_.push_back(1);
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      live_[slot] = 1;
    }
    return slot;
  }

  // Move the value out of `slot` and free the slot.
  T take(std::uint32_t slot) {
    DDBG_ASSERT(slot < live_.size() && live_[slot] != 0,
                "slab: read of a free slot");
    live_[slot] = 0;
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  std::deque<T> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: the warmest slot is reused
  // One flag per slot, checked in every build type like the engine's other
  // invariants.
  std::deque<char> live_;
};

}  // namespace ddbg
