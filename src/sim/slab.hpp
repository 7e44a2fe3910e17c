// Slot storage for the bodies of queued simulator events.
//
// The event heap holds small, trivially copyable keys; what an event carries
// beyond its key (the message of a delivery, the function of a harness
// call) is parked here under a slot index and moved out when the event
// dispatches.  Freed slots are reused last-in first-out, so a steady stream
// of in-flight messages recycles the same few warm slots instead of
// allocating per event.  The slots live in one contiguous vector, so a put
// or take is a single indexed access.  Growing moves the parked values;
// that is safe because nothing holds a reference into the slab: a
// dispatching event takes its value out before its handler can put another
// in.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace ddbg {

template <typename T>
class Slab {
  // Growth must move the parked values, never copy them.
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  // Park `value`; returns its slot.
  std::uint32_t put(T&& value) {
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
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: the warmest slot is reused
  // One flag per slot, checked in every build type like the engine's other
  // invariants.
  std::vector<char> live_;
};

}  // namespace ddbg
