// An explicit happened-before graph over recorded events.
//
// Built by the analysis layer from event traces; used to answer reachability
// (did event a causally precede event b?) independently of the piggybacked
// vector clocks, so tests can cross-check the two mechanisms against each
// other on random executions.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace ddbg {

// Index of an event in a trace (see analysis/trace.hpp).
using EventIndex = std::size_t;

class HappenedBeforeGraph {
 public:
  // Add an event and return its index.  Events must be added in an order
  // consistent with each process's local order (trace order satisfies this).
  EventIndex add_event(ProcessId process);

  // Record that `earlier` immediately precedes `later` (same-process program
  // order or a send→receive message edge).
  void add_edge(EventIndex earlier, EventIndex later);

  // Convenience for message edges keyed by an opaque message id: the sender
  // registers the send, the receiver links its receive to it.
  void register_send(std::uint64_t message_id, EventIndex send_event);
  void link_receive(std::uint64_t message_id, EventIndex receive_event);

  [[nodiscard]] std::size_t num_events() const { return process_of_.size(); }

  // True iff a happened-before b (strict; reflexive pairs return false).
  // Computed by forward BFS with memoized reachability for repeated queries.
  [[nodiscard]] bool happened_before(EventIndex a, EventIndex b) const;

  [[nodiscard]] bool concurrent(EventIndex a, EventIndex b) const {
    return a != b && !happened_before(a, b) && !happened_before(b, a);
  }

 private:
  std::vector<ProcessId> process_of_;
  std::vector<std::vector<EventIndex>> successors_;
  std::unordered_map<std::uint64_t, EventIndex> pending_sends_;
};

}  // namespace ddbg
