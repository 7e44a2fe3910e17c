// The messages that travel over channels.
//
// Section 3.6 of the paper: "we can append to every message originated by
// the program some kind of tag so that each process can distinguish the
// genuine messages from halt markers and predicate markers which are
// introduced by the debugging system."  MessageKind is that tag.
//
// Application messages additionally piggyback debug instrumentation (a
// vector clock and a Lamport timestamp) added by the debug shim; the
// instrumentation is *not* consulted by the halting algorithm — it exists so
// the analysis layer can verify consistency and classify event orderings.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clock/vector_clock.hpp"
#include "common/ids.hpp"
#include "common/serialization.hpp"

namespace ddbg {

enum class MessageKind : std::uint8_t {
  kApplication = 0,      // genuine program message
  kHaltMarker = 1,       // Halting Algorithm marker (section 2.2)
  kSnapshotMarker = 2,   // plain C&L recording marker (section 2.1)
  kPredicateMarker = 3,  // Linked-Predicate detection marker (section 3.6)
  kControl = 4,          // debugger <-> process command traffic (section 2.2.3)
};

[[nodiscard]] constexpr const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kApplication: return "app";
    case MessageKind::kHaltMarker: return "halt_marker";
    case MessageKind::kSnapshotMarker: return "snapshot_marker";
    case MessageKind::kPredicateMarker: return "predicate_marker";
    case MessageKind::kControl: return "control";
  }
  return "?";
}

// Payload of a halt marker.  halt_id distinguishes halting waves; halt_path
// is the section-2.2.4 extension: each process appends its name before
// forwarding, so a received marker describes which processes already halted.
struct HaltMarkerData {
  HaltId halt_id;
  std::vector<ProcessId> halt_path;
};

// Payload of a C&L snapshot marker (monitor-only recording).
struct SnapshotMarkerData {
  std::uint64_t snapshot_id = 0;
};

// Payload of a predicate marker: the remaining Linked Predicate, encoded by
// core/predicate.cpp.  Kept as opaque bytes here so the network layer does
// not depend on the predicate machinery.
struct PredicateMarkerData {
  BreakpointId breakpoint;
  Bytes encoded_predicate;
  // Number of LP stages already consumed, for tracing/benchmarks.
  std::uint32_t stage_index = 0;
  // Monitor-mode chains record an abstract event instead of halting.
  bool monitor = false;
};

// The bytes each payload adds to a message's wire encoding.
[[nodiscard]] std::size_t wire_size(const HaltMarkerData& data);
[[nodiscard]] std::size_t wire_size(const SnapshotMarkerData& data);
[[nodiscard]] std::size_t wire_size(const PredicateMarkerData& data);

// A marker's payload, immutable and shared.  A process sends the same
// marker on each of its out-channels; every copy points at one body, so
// copying a marker allocates nothing and costs one pointer copy.  The body
// knows its wire size, computed once when it is built.  Reads like an
// optional.
template <typename T>
class MarkerBody {
 public:
  MarkerBody() = default;
  // Implicit, so `message.halt = data` reads like an optional's assignment.
  MarkerBody(T data)  // NOLINT
      : body_(std::make_shared<const Body>(std::move(data))) {}

  [[nodiscard]] bool has_value() const { return body_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  const T& operator*() const { return body_->data; }
  const T* operator->() const { return &body_->data; }
  [[nodiscard]] std::size_t wire_size() const { return body_->wire_size; }

 private:
  struct Body {
    explicit Body(T value)
        : data(std::move(value)), wire_size(ddbg::wire_size(data)) {}
    T data;
    std::size_t wire_size;
  };
  std::shared_ptr<const Body> body_;
};

struct Message {
  MessageKind kind = MessageKind::kApplication;

  // Unique per run; assigned at send time by the transport.  Used by the
  // analysis layer to pair sends with receives.
  std::uint64_t message_id = 0;

  // Application payload or encoded control command.
  Bytes payload;

  // Debug instrumentation piggybacked on application messages by the shim.
  VectorClock vclock;
  std::uint64_t lamport = 0;

  MarkerBody<HaltMarkerData> halt;
  MarkerBody<SnapshotMarkerData> snapshot;
  MarkerBody<PredicateMarkerData> predicate;

  [[nodiscard]] static Message application(Bytes payload) {
    Message m;
    m.kind = MessageKind::kApplication;
    m.payload = std::move(payload);
    return m;
  }

  [[nodiscard]] static Message halt_marker(HaltId id,
                                           std::vector<ProcessId> path) {
    Message m;
    m.kind = MessageKind::kHaltMarker;
    m.halt = HaltMarkerData{id, std::move(path)};
    return m;
  }

  [[nodiscard]] static Message snapshot_marker(std::uint64_t snapshot_id) {
    Message m;
    m.kind = MessageKind::kSnapshotMarker;
    m.snapshot = SnapshotMarkerData{snapshot_id};
    return m;
  }

  [[nodiscard]] static Message predicate_marker(BreakpointId bp, Bytes lp,
                                                std::uint32_t stage_index,
                                                bool monitor = false) {
    Message m;
    m.kind = MessageKind::kPredicateMarker;
    m.predicate = PredicateMarkerData{bp, std::move(lp), stage_index, monitor};
    return m;
  }

  [[nodiscard]] static Message control(Bytes command) {
    Message m;
    m.kind = MessageKind::kControl;
    m.payload = std::move(command);
    return m;
  }

  // Wire encoding.  In-memory transports hand the struct across directly;
  // encode/decode exist for byte-oriented transports (TCP).
  void encode(ByteWriter& writer) const;
  [[nodiscard]] static Result<Message> decode(ByteReader& reader);
  // The one definition of a message's wire size: the bytes encode() would
  // append, computed field by field without encoding.  Every substrate's
  // byte accounting uses it.
  [[nodiscard]] std::size_t encoded_size() const;

  [[nodiscard]] std::string describe() const;
};

}  // namespace ddbg
