#include "core/commands.hpp"

#include <algorithm>
#include <cstdint>

#include "common/result.hpp"

namespace ddbg {

Bytes Command::encode() const {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(kind));
  writer.u32(breakpoint.valid() ? breakpoint.value() : BreakpointId::kInvalid);
  writer.bytes(predicate);
  writer.varint(stage_index);
  writer.u8(monitor ? 1 : 0);
  writer.u32(target.valid() ? target.value() : ProcessId::kInvalid);
  writer.varint(wave_id);
  writer.u32(reporter.valid() ? reporter.value() : ProcessId::kInvalid);
  writer.str(text);
  writer.varint(reports.size());
  writer.raw(records);
  return std::move(writer).take();
}

Result<Command> Command::decode(std::span<const std::uint8_t> data) {
  ByteReader reader(data);
  Command cmd;

  auto kind = reader.u8();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(CommandKind::kStateReport)) {
    return Error(ErrorCode::kParseError, "unknown command kind");
  }
  cmd.kind = static_cast<CommandKind>(kind.value());

  auto bp = reader.u32();
  if (!bp.ok()) return bp.error();
  cmd.breakpoint = BreakpointId(bp.value());

  auto predicate = reader.bytes();
  if (!predicate.ok()) return predicate.error();
  cmd.predicate = std::move(predicate).value();

  auto stage = reader.varint();
  if (!stage.ok()) return stage.error();
  cmd.stage_index = static_cast<std::uint32_t>(stage.value());

  auto monitor = reader.u8();
  if (!monitor.ok()) return monitor.error();
  cmd.monitor = monitor.value() != 0;

  auto target = reader.u32();
  if (!target.ok()) return target.error();
  cmd.target = ProcessId(target.value());

  auto wave = reader.varint();
  if (!wave.ok()) return wave.error();
  cmd.wave_id = wave.value();

  auto reporter = reader.u32();
  if (!reporter.ok()) return reporter.error();
  cmd.reporter = ProcessId(reporter.value());

  auto text = reader.str();
  if (!text.ok()) return text.error();
  cmd.text = std::move(text).value();

  auto num_reports = reader.varint();
  if (!num_reports.ok()) return num_reports.error();
  // Clamp the reserve so a corrupt count cannot trigger a huge allocation;
  // the scan of the missing records fails on its own below.
  cmd.reports.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(
          num_reports.value(), 1024)));
  const std::size_t start = reader.position();
  if (data.size() - start > UINT32_MAX) {
    return Error(ErrorCode::kParseError, "report records exceed 4 GiB");
  }
  for (std::uint64_t i = 0; i < num_reports.value(); ++i) {
    const std::size_t begin = reader.position();
    auto process = ProcessSnapshot::scan(reader);
    if (!process.ok()) return process.error();
    cmd.reports.push_back(
        SnapshotRecord{process.value(),
                       static_cast<std::uint32_t>(begin - start),
                       static_cast<std::uint32_t>(reader.position() - begin)});
  }
  if (!reader.exhausted()) {
    return Error(ErrorCode::kParseError, "trailing bytes after command");
  }
  cmd.records.assign(data.begin() + static_cast<std::ptrdiff_t>(start),
                     data.end());
  return cmd;
}

void Command::add_report(const ProcessSnapshot& snapshot) {
  const std::size_t begin = records.size();
  ByteWriter writer(records);
  snapshot.encode(writer);
  reports.push_back(
      SnapshotRecord{snapshot.process, static_cast<std::uint32_t>(begin),
                     static_cast<std::uint32_t>(records.size() - begin)});
}

void Command::add_report(ProcessId process,
                         std::span<const std::uint8_t> record) {
  reports.push_back(SnapshotRecord{process,
                                   static_cast<std::uint32_t>(records.size()),
                                   static_cast<std::uint32_t>(record.size())});
  records.insert(records.end(), record.begin(), record.end());
}

ProcessSnapshot Command::snapshot(std::size_t i) const {
  ByteReader reader(record(i));
  auto snapshot = ProcessSnapshot::decode(reader);
  DDBG_ASSERT(snapshot.ok(), "a scanned record decodes");
  return std::move(snapshot).value();
}

Command Command::arm_predicate(BreakpointId bp, Bytes lp,
                               std::uint32_t stage_index, bool monitor) {
  Command cmd;
  cmd.kind = CommandKind::kArmPredicate;
  cmd.breakpoint = bp;
  cmd.predicate = std::move(lp);
  cmd.stage_index = stage_index;
  cmd.monitor = monitor;
  return cmd;
}

Command Command::arm_notify(BreakpointId bp, Bytes sp,
                            std::uint32_t term_index) {
  Command cmd;
  cmd.kind = CommandKind::kArmNotify;
  cmd.breakpoint = bp;
  cmd.predicate = std::move(sp);
  cmd.stage_index = term_index;
  return cmd;
}

Command Command::disarm(BreakpointId bp) {
  Command cmd;
  cmd.kind = CommandKind::kDisarmBreakpoint;
  cmd.breakpoint = bp;
  return cmd;
}

Command Command::resume(std::uint64_t halt_id) {
  Command cmd;
  cmd.kind = CommandKind::kResume;
  cmd.wave_id = halt_id;
  return cmd;
}

Command Command::query_state() {
  Command cmd;
  cmd.kind = CommandKind::kQueryState;
  return cmd;
}

Command Command::halt_report(ProcessId reporter, std::uint64_t halt_id,
                             const ProcessSnapshot& snapshot) {
  Command cmd;
  cmd.kind = CommandKind::kHaltReport;
  cmd.reporter = reporter;
  cmd.wave_id = halt_id;
  cmd.add_report(snapshot);
  return cmd;
}

Command Command::snapshot_report(ProcessId reporter,
                                 std::uint64_t snapshot_id,
                                 const ProcessSnapshot& snapshot) {
  Command cmd;
  cmd.kind = CommandKind::kSnapshotReport;
  cmd.reporter = reporter;
  cmd.wave_id = snapshot_id;
  cmd.add_report(snapshot);
  return cmd;
}

Command Command::breakpoint_hit(ProcessId reporter, BreakpointId bp,
                                std::string description) {
  Command cmd;
  cmd.kind = CommandKind::kBreakpointHit;
  cmd.reporter = reporter;
  cmd.breakpoint = bp;
  cmd.text = std::move(description);
  return cmd;
}

Command Command::notify_satisfied(ProcessId reporter, BreakpointId bp,
                                  std::uint32_t term_index) {
  Command cmd;
  cmd.kind = CommandKind::kNotifySatisfied;
  cmd.reporter = reporter;
  cmd.breakpoint = bp;
  cmd.stage_index = term_index;
  return cmd;
}

Command Command::route_marker(ProcessId reporter, ProcessId target,
                              BreakpointId bp, Bytes lp,
                              std::uint32_t stage_index, bool monitor) {
  Command cmd;
  cmd.kind = CommandKind::kRouteMarker;
  cmd.reporter = reporter;
  cmd.target = target;
  cmd.breakpoint = bp;
  cmd.predicate = std::move(lp);
  cmd.stage_index = stage_index;
  cmd.monitor = monitor;
  return cmd;
}

Command Command::state_report(ProcessId reporter,
                              const ProcessSnapshot& snapshot) {
  Command cmd;
  cmd.kind = CommandKind::kStateReport;
  cmd.reporter = reporter;
  cmd.add_report(snapshot);
  return cmd;
}

}  // namespace ddbg
