#include "net/message.hpp"

#include <sstream>

namespace ddbg {

namespace {
constexpr std::uint8_t kHasHalt = 1u << 0;
constexpr std::uint8_t kHasSnapshot = 1u << 1;
constexpr std::uint8_t kHasPredicate = 1u << 2;
constexpr std::uint8_t kHasVClock = 1u << 3;
}  // namespace

void Message::encode(ByteWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(kind));
  writer.u64(message_id);
  writer.varint(lamport);

  std::uint8_t flags = 0;
  if (halt) flags |= kHasHalt;
  if (snapshot) flags |= kHasSnapshot;
  if (predicate) flags |= kHasPredicate;
  if (!vclock.empty()) flags |= kHasVClock;
  writer.u8(flags);

  writer.bytes(payload);
  if (!vclock.empty()) vclock.encode(writer);
  if (halt) {
    writer.varint(halt->halt_id.value());
    writer.varint(halt->halt_path.size());
    for (const ProcessId p : halt->halt_path) writer.varint(p.value());
  }
  if (snapshot) writer.varint(snapshot->snapshot_id);
  if (predicate) {
    writer.varint(predicate->breakpoint.value());
    writer.varint(predicate->stage_index);
    writer.u8(predicate->monitor ? 1 : 0);
    writer.bytes(predicate->encoded_predicate);
  }
}

Result<Message> Message::decode(ByteReader& reader) {
  Message m;
  auto kind = reader.u8();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(MessageKind::kControl)) {
    return Error(ErrorCode::kParseError, "unknown message kind");
  }
  m.kind = static_cast<MessageKind>(kind.value());

  auto id = reader.u64();
  if (!id.ok()) return id.error();
  m.message_id = id.value();

  auto lamport = reader.varint();
  if (!lamport.ok()) return lamport.error();
  m.lamport = lamport.value();

  auto flags = reader.u8();
  if (!flags.ok()) return flags.error();

  auto payload = reader.bytes();
  if (!payload.ok()) return payload.error();
  m.payload = std::move(payload).value();

  if (flags.value() & kHasVClock) {
    auto vc = VectorClock::decode(reader);
    if (!vc.ok()) return vc.error();
    m.vclock = std::move(vc).value();
  }
  if (flags.value() & kHasHalt) {
    auto halt_id = reader.varint();
    if (!halt_id.ok()) return halt_id.error();
    auto path_len = reader.count();
    if (!path_len.ok()) return path_len.error();
    HaltMarkerData data;
    data.halt_id = HaltId(halt_id.value());
    data.halt_path.reserve(path_len.value());
    for (std::uint64_t i = 0; i < path_len.value(); ++i) {
      auto p = reader.varint();
      if (!p.ok()) return p.error();
      data.halt_path.push_back(ProcessId(static_cast<std::uint32_t>(p.value())));
    }
    m.halt = std::move(data);
  }
  if (flags.value() & kHasSnapshot) {
    auto sid = reader.varint();
    if (!sid.ok()) return sid.error();
    m.snapshot = SnapshotMarkerData{sid.value()};
  }
  if (flags.value() & kHasPredicate) {
    auto bp = reader.varint();
    if (!bp.ok()) return bp.error();
    auto stage = reader.varint();
    if (!stage.ok()) return stage.error();
    auto monitor = reader.u8();
    if (!monitor.ok()) return monitor.error();
    auto lp = reader.bytes();
    if (!lp.ok()) return lp.error();
    m.predicate = PredicateMarkerData{
        BreakpointId(static_cast<std::uint32_t>(bp.value())),
        std::move(lp).value(), static_cast<std::uint32_t>(stage.value()),
        monitor.value() != 0};
  }
  // Receivers assume a marker carries its payload; a frame that lies
  // about it must not reach them.
  if ((m.kind == MessageKind::kHaltMarker && !m.halt) ||
      (m.kind == MessageKind::kSnapshotMarker && !m.snapshot) ||
      (m.kind == MessageKind::kPredicateMarker && !m.predicate)) {
    return Error(ErrorCode::kParseError, "marker without its payload");
  }
  return m;
}

std::size_t wire_size(const HaltMarkerData& data) {
  std::size_t size =
      varint_size(data.halt_id.value()) + varint_size(data.halt_path.size());
  for (const ProcessId p : data.halt_path) size += varint_size(p.value());
  return size;
}

std::size_t wire_size(const SnapshotMarkerData& data) {
  return varint_size(data.snapshot_id);
}

std::size_t wire_size(const PredicateMarkerData& data) {
  return varint_size(data.breakpoint.value()) +
         varint_size(data.stage_index) + 1 +
         varint_size(data.encoded_predicate.size()) +
         data.encoded_predicate.size();
}

std::size_t Message::encoded_size() const {
  // Field by field, in encode()'s order.  Fixed part: kind, message_id,
  // flags.  Marker bodies carry their size.
  std::size_t size = 1 + 8 + varint_size(lamport) + 1;
  size += varint_size(payload.size()) + payload.size();
  if (!vclock.empty()) size += vclock.encoded_size();
  if (halt) size += halt.wire_size();
  if (snapshot) size += snapshot.wire_size();
  if (predicate) size += predicate.wire_size();
  return size;
}

std::string Message::describe() const {
  std::ostringstream out;
  out << to_string(kind) << "#" << message_id;
  if (halt) {
    out << "{halt_id=" << halt->halt_id.value() << ", path=[";
    for (std::size_t i = 0; i < halt->halt_path.size(); ++i) {
      if (i != 0) out << ',';
      out << to_string(halt->halt_path[i]);
    }
    out << "]}";
  }
  if (snapshot) out << "{snapshot_id=" << snapshot->snapshot_id << "}";
  if (predicate) {
    out << "{bp=" << predicate->breakpoint.value()
        << ", stage=" << predicate->stage_index << "}";
  }
  if (!payload.empty()) out << " payload=" << payload.size() << "B";
  return out.str();
}

}  // namespace ddbg
