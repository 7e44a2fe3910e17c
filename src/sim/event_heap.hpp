// The simulator's event queue: a (when, seq) min-heap of event keys.
//
// A 4-ary heap: each node has four children, so the heap has half the
// levels of a binary heap, and the four children a pop compares sit next
// to each other in memory.  Fewer levels means fewer scattered loads when
// the heap outgrows the caches, as with the ~1M events live in a
// complete(1024) halt wave.  Every queued event has a unique seq, so
// (when, seq) is a strict total order: the pop order, and with it every
// schedule, does not depend on the heap's shape.
#pragma once

#include <cstddef>
#include <vector>

namespace ddbg {

// `E` has ordered `when` and `seq` members, which must not change while
// the event is queued.
template <typename E>
class EventHeap {
 public:
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const E& top() const { return events_.front(); }

  void push(const E& event) {
    // Sift up: move parents down into the hole until `event` fits.
    std::size_t hole = events_.size();
    events_.push_back(event);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(event, events_[parent])) break;
      events_[hole] = events_[parent];
      hole = parent;
    }
    events_[hole] = event;
  }

  E pop() {
    const E top = events_.front();
    const E last = events_.back();
    events_.pop_back();
    const std::size_t n = events_.size();
    if (n == 0) return top;
    // Sift down: move the earliest child up into the hole until `last`
    // fits.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t child = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(events_[c], events_[child])) child = c;
      }
      if (!before(events_[child], last)) break;
      events_[hole] = events_[child];
      hole = child;
    }
    events_[hole] = last;
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool before(const E& a, const E& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  std::vector<E> events_;
};

}  // namespace ddbg
