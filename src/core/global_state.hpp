// Global states: the S_r recorded by the C&L algorithm and the S_h produced
// by the Halting Algorithm (sections 2.1–2.2).
//
// A global state is the per-process application states plus the per-channel
// sequences of in-flight messages.  Theorem 2 of the paper says S_h == S_r
// "in the sense that (1) the state of each process ... is the same ... and
// (2) the undelivered messages in each channel ... are the same"; the
// equivalent() predicate implements exactly that comparison, and experiment
// E1 checks it on identical deterministic executions.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clock/vector_clock.hpp"
#include "common/ids.hpp"
#include "common/serialization.hpp"
#include "common/time.hpp"

namespace ddbg {

// Recorded contents of one incoming channel: the application payloads, in
// order, that were in flight at the cut.
struct ChannelState {
  ChannelId channel;
  std::vector<Bytes> messages;

  friend bool operator==(const ChannelState& a, const ChannelState& b) {
    return a.channel == b.channel && a.messages == b.messages;
  }
};

// One process's contribution to a global state.
struct ProcessSnapshot {
  ProcessId process;
  Bytes state;              // opaque application state bytes
  std::string description;  // human-readable state rendering
  // Incoming-channel states, sparse: only channels that recorded at least
  // one in-flight payload appear; an absent channel means it was empty at
  // the cut (equivalence treats the two the same).
  std::vector<ChannelState> in_channels;
  // Section 2.2.4: the names accumulated on the halt marker this process
  // halted on (empty for a spontaneous initiator or a C&L recording).
  std::vector<ProcessId> halt_path;
  // Vector clock at the instant of halting/recording (instrumentation).
  VectorClock vclock;
  TimePoint captured_at{};

  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<ProcessSnapshot> decode(ByteReader& reader);
  // Steps `reader` over one encoded record without allocating and returns
  // its process id.  It accepts exactly the records decode() accepts, so
  // the convergecast can validate records once and then only copy them.
  [[nodiscard]] static Result<ProcessId> scan(ByteReader& reader);
};

// A (possibly still-assembling) global state keyed by halt/snapshot wave.
class GlobalState {
 public:
  GlobalState() = default;
  explicit GlobalState(HaltId id) : id_(id) {}

  [[nodiscard]] HaltId id() const { return id_; }

  // Adds (or replaces) one process's snapshot.  decode_snapshots() and
  // callers that build a state by hand move theirs in; the lvalue overload
  // copies explicitly.  The convergecast never builds a GlobalState: it
  // carries snapshots as encoded records (Command::records) up to d.
  void add(ProcessSnapshot&& snapshot);
  void add(const ProcessSnapshot& snapshot) { add(ProcessSnapshot(snapshot)); }
  [[nodiscard]] bool has(ProcessId p) const {
    return snapshots_.contains(p);
  }
  [[nodiscard]] const ProcessSnapshot& at(ProcessId p) const;
  [[nodiscard]] std::size_t size() const { return snapshots_.size(); }
  [[nodiscard]] const std::map<ProcessId, ProcessSnapshot>& snapshots() const {
    return snapshots_;
  }
  // Theorem-2 equivalence: same processes, same state bytes, same channel
  // contents.  halt_path, clocks and capture times are *not* compared (they
  // are metadata about how the cut was taken, not part of the cut).
  [[nodiscard]] bool equivalent(const GlobalState& other) const;
  // Detailed first difference, for test diagnostics.
  [[nodiscard]] std::optional<std::string> first_difference(
      const GlobalState& other) const;

  // Total undelivered messages across all recorded channels.
  [[nodiscard]] std::size_t total_channel_messages() const;

  [[nodiscard]] std::string describe() const;

  // Wire form: varint count + ProcessSnapshot records in process-id order,
  // the records the convergecast ships.  It is the form d keeps every
  // completed wave in, and the session protocol (state/snapshot payloads)
  // and the replay log's HaltCut records carry it.
  [[nodiscard]] Bytes encode_snapshots() const;
  [[nodiscard]] static Result<GlobalState> decode_snapshots(
      HaltId id, std::span<const std::uint8_t> data);

 private:
  HaltId id_;
  std::map<ProcessId, ProcessSnapshot> snapshots_;
};

}  // namespace ddbg
